"""Output checks: stored references plus the tolerances the package pins.

Two independent gates apply to every certified item:

* **Reference.**  ``reference/<workload>.json`` holds, per input, the
  well-conditioned part of the output recorded from the program by
  ``record.py``: verdicts, methods, dimensions and counts must match
  exactly; numbers must agree to ``RTOL`` (relative, well above the
  library's own accuracy, so an optimisation may change the last bits).
  No output bytes are hashed.
* **Pinned tolerances.**  Each certificate must meet the bound the package
  promises (Laplace <= 1e-9, functional equation <= 1e-8, mild membership
  <= 1e-8, ``off_limit_sup`` <= 1e-12, orbit membership <= 1e-6,
  contraction norms in (0, 1 + tol], ...), whatever the reference says.

Residuals that are pure round-off are checked against their bounds only,
never against the reference.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: Relative and absolute tolerances per workload for reference numbers.
#: The dense kernels are accurate to ~1e-12; the grid kernels
#: (expm_multiply, inverse power iteration to 1e-8) to ~1e-10 of the data
#: scale, which is 1 (sup norm of f and u0), so tiny trajectory tails are
#: compared absolutely.
RTOL = {"dense-spectral": 1e-6, "dense-semigroup": 1e-6,
        "heat-domain": 1e-5, "heat-orbit": 1e-5}
ATOL = {"dense-spectral": 1e-12, "dense-semigroup": 1e-12,
        "heat-domain": 1e-9, "heat-orbit": 1e-9}

CERT_TOL = 1e-10            # dissipative.CERT_TOL
ACCEPT_TOL = 1e-9           # spectral.ACCEPT_TOL
SECTOR_SLACK = 1e-8         # semigroup.sector_verify slack
LAPLACE_TOL = 1e-9
FUNCTIONAL_TOL = 1e-8
MILD_TOL = 1e-8
LIPSCHITZ_TOL = 1e-9
LAW_TOL = 1e-10
OFF_LIMIT_TOL = 1e-12
ORBIT_MEMBERSHIP_TOL = 1e-6
OFF_DOMAIN_TOL = 1e-12
CONTRACTION_TOL = 1e-12     # heatlab.supnorm_contraction default tol


def load_reference(name):
    with open(os.path.join(REFERENCE_DIR, f"{name}.json")) as fh:
        return json.load(fh)


def compare(got, want, rtol, atol, path=""):
    """Failures where ``got`` differs from the reference ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [f for k in want
                for f in compare(got[k], want[k], rtol, atol, f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} does not match list of {len(want)}"]
        return [f for i, (g, w) in enumerate(zip(got, want))
                for f in compare(g, w, rtol, atol, f"{path}[{i}]")]
    if isinstance(want, float):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not math.isclose(got, want, rel_tol=rtol, abs_tol=atol)):
            return [f"{path}: {got!r} != reference {want!r} (rtol {rtol:g}, atol {atol:g})"]
        return []
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != reference {want!r}"]
    return []


class _Pins:
    """Collects violations of pinned bounds."""

    def __init__(self):
        self.failures = []

    def that(self, ok, what):
        if not ok:
            self.failures.append(what)

    def at_most(self, what, value, limit):
        self.that(isinstance(value, (int, float)) and value <= limit,
                  f"{what} = {value!r} exceeds {limit:g}")

    def at_least(self, what, value, limit):
        self.that(isinstance(value, (int, float)) and value >= limit,
                  f"{what} = {value!r} below {limit:g}")


def _finite(values):
    return [v for v in values if isinstance(v, float) and math.isfinite(v)]


# -- dense-spectral ---------------------------------------------------------------


def spectral_summary(r):
    scan = r["scan"]
    norms = _finite(scan["norms"])
    return {
        "adjoint_dims": r["adjoint_dims"],
        "surjectivity_modulus": r["surjectivity_modulus"],
        "m_dissipative": {k: r["m_dissipative"][k]
                          for k in ("ok", "kind", "range_full", "norms")},
        "sector": {k: r["sector"][k] for k in ("passed", "failures", "worst_norm")},
        "scan": {"in_set": scan["in_set"], "norm_sum": math.fsum(norms),
                 "norm_max": max(norms, default=0.0)},
    }


def spectral_pins(r):
    p = _Pins()
    d = r["d"]
    dom, ran, ker, mul = r["adjoint_dims"]
    p.that(dom + mul == d and ran + ker == d,
           f"adjoint of an m-dissipative relation has graph dim {d}: dims {r['adjoint_dims']}")
    p.that(r["surjectivity_modulus"] > 0, "surjectivity modulus must be positive")
    ev = r["m_dissipative"]
    p.that(ev["ok"] and ev["dissipative"] and ev["range_full"],
           "generated relation not certified m-dissipative")
    p.at_most("Hermitian form witness", ev["witness"], CERT_TOL)
    p.at_most("resolvent bound defect", ev["defect"], CERT_TOL)
    for lam, norm in zip(ev["lams"], ev["norms"]):
        p.at_most(f"||lam R(lam)|| at lam={lam:g}", norm, 1.0 + CERT_TOL)
    sec = r["sector"]
    p.that(sec["passed"] == (sec["failures"] == 0), "sector verdict disagrees with failures")
    if sec["passed"]:
        p.at_most("sector worst norm", sec["worst_norm"], sec["bound"] + SECTOR_SLACK)
    scan = r["scan"]
    for lam, flag, norm, res in zip(scan["lams"], scan["in_set"], scan["norms"],
                                    scan["residuals"]):
        if flag == "1":
            p.at_most(f"scan residual at {lam:g}", res, ACCEPT_TOL)
        if lam > 0:
            # m-dissipative: (0, inf) is in the resolvent set and ||R(lam)|| <= 1/lam
            p.that(flag == "1", f"lam={lam:g} > 0 outside the resolvent set")
            p.at_most(f"lam ||R(lam)|| at {lam:g}", lam * norm, 1.0 + CERT_TOL)
    return p.failures


def tk_summary(r):
    return {k: r[k] for k in ("verdicts", "consistent", "integrated_sup",
                              "resolvent_errors", "mu_errors", "mu_hypothesis", "gaps")}


def tk_pins(r):
    p = _Pins()
    p.that(r["consistent"], "convergence criteria disagree")
    p.that(set(r["verdicts"]) == {"i", "ii", "iii", "iv", "v"} and all(r["verdicts"].values()),
           f"verdicts {r['verdicts']}")
    tol = r["tol"]
    finals = [r["integrated_sup"], r["mu_errors"], r["gaps"],
              *r["resolvent_errors"].values()]
    for errs in finals:
        p.at_most("final convergence error", errs[-1], tol)
    hyp = r["mu_hypothesis"]
    p.that(hyp["range_full"] and hyp["all_in_resolvent"], f"mu hypothesis {hyp}")
    # m-dissipative members: ||R(mu)|| <= 1 / Re(mu) = 1
    p.at_most("mu resolvent norm", hyp["max_norm"], 1.0 + CERT_TOL)
    return p.failures


# -- dense-semigroup ----------------------------------------------------------------


def semigroup_summary(r):
    return {k: r[k] for k in ("domain_dim", "null_dim", "mild_norms",
                              "holomorphic_norms")}


def semigroup_pins(r):
    p = _Pins()
    p.that(r["evidence_ok"], "decomposition evidence not ok")
    p.that(r["domain_dim"] == r["expected_domain_dim"],
           f"domain dim {r['domain_dim']} != generated {r['expected_domain_dim']}")
    p.that(r["domain_dim"] + r["null_dim"] == r["d"], "dom + mul != d")
    p.at_most("Laplace residual", r["laplace"], LAPLACE_TOL)
    for v in r["functional_equation"]:
        p.at_most("functional equation residual", v, FUNCTIONAL_TOL)
    p.at_most("mild membership residual", r["mild_membership"], MILD_TOL)
    p.at_most("mild Lipschitz defect", r["mild_lipschitz"], LIPSCHITZ_TOL)
    p.at_most("semigroup law residual", r["law"], LAW_TOL)
    return p.failures


# -- heat-domain --------------------------------------------------------------------


def heat_domain_summary(r):
    rep = r["report"]
    crit = rep["criterion"]
    return {
        "rc": r["rc"],
        "labels": rep["labels"],
        "verdicts": rep["verdicts"],
        "consistent": rep["consistent"],
        "integrated_sup": rep["integrated_sup"],
        "resolvent_errors": rep["resolvent_errors"],
        "mu_hypothesis": rep["mu_hypothesis"],
        "criterion": {k: crit[k] for k in ("margins", "n0", "surplus_eigs",
                                           "deficit_eigs", "ok")},
        "contraction_norms": rep["contraction_norms"],
        "errors_rows": len(r["errors_csv"]),
    }


def _decreasing(values):
    return all(b < a for a, b in zip(values, values[1:]))


def heat_domain_pins(r):
    p = _Pins()
    p.that(r["rc"] == 0, f"heat converge exit code {r['rc']}")
    p.that("heat-converge: PASS" in r["stdout"], "heat converge did not print PASS")
    if r["rc"] != 0:
        return p.failures
    rep = r["report"]
    p.that(rep["consistent"], "convergence criteria disagree")
    p.that(rep["verdicts"] and all(rep["verdicts"].values()), f"verdicts {rep['verdicts']}")
    p.that(rep["criterion"]["ok"], "domain-convergence criterion failed")
    sup = rep["integrated_sup"]
    p.that(_decreasing(sup), "integrated errors not strictly decreasing")
    p.at_most("final integrated sup error", sup[-1], rep["tol"])
    for lam, errs in rep["resolvent_errors"].items():
        p.that(_decreasing(errs), f"resolvent errors at {lam} not strictly decreasing")
    hyp = rep["mu_hypothesis"]
    p.that(hyp["range_full"] and hyp["all_in_resolvent"], f"mu hypothesis {hyp}")
    for label, norms in rep["contraction_norms"].items():
        for norm in norms:
            p.that(isinstance(norm, float) and 0.0 < norm <= 1.0 + CONTRACTION_TOL,
                   f"contraction norm {norm!r} of {label} outside (0, 1 + tol]")
    # the CSV artifacts carry the same numbers as report.json
    csv_sup = [float(row[3]) for row in r["errors_csv"] if row[1] == "integrated_sup"]
    p.that(csv_sup == sup, "errors.csv integrated errors differ from report.json")
    for row in r["criterion_csv"]:
        nearest, off_limit = float(row[6]), float(row[7])
        p.at_most(f"off_limit_sup of {row[0]}", off_limit, OFF_LIMIT_TOL)
        p.that(math.isfinite(nearest) and nearest >= 0.0,
               f"nearest-pair distance {nearest!r} of {row[0]}")
    return p.failures


# -- heat-orbit ------------------------------------------------------------------------


def heat_orbit_summary(r):
    checks, traj = r["checks"], r["trajectory"]
    return {
        "rc": r["rc"],
        "membership_times": checks["membership_times"],
        "initial_trace": checks["initial_trace"],
        "sup_ratio": checks["sup_ratio"],
        "nodewise_decreasing": checks["nodewise_decreasing"],
        "trajectory": {k: traj[k] for k in ("rows", "times", "nodes_per_time",
                                            "sup", "sum")},
        "contraction": {k: r["contraction"][k] for k in ("ok", "method", "lams", "norms")},
    }


def heat_orbit_pins(r):
    p = _Pins()
    p.that(r["rc"] == 0, f"heat orbit exit code {r['rc']}")
    p.that("heat-orbit: PASS" in r["stdout"], "heat orbit did not print PASS")
    cert = r["contraction"]
    p.that(cert["ok"], "contraction certificate not ok")
    for lam, norm in zip(cert["lams"], cert["norms"]):
        p.that(isinstance(norm, float) and 0.0 < norm <= 1.0 + CONTRACTION_TOL,
               f"contraction norm {norm!r} at lam={lam:g} outside (0, 1 + tol]")
    mp = r["max_principle"]
    p.that(mp["used"] > 0, "maximum principle used no sample")
    p.at_least("maximum-principle slack", mp["slack_min"], -CONTRACTION_TOL)
    if r["rc"] != 0:
        return p.failures
    checks, traj = r["checks"], r["trajectory"]
    p.at_most("projection defect", checks["projection_defect"], OFF_DOMAIN_TOL)
    p.at_most("off-domain max", checks["off_domain_max"], OFF_DOMAIN_TOL)
    p.that(bool(checks["membership_residuals"]), "no membership residual")
    for res in checks["membership_residuals"]:
        p.at_most("orbit membership residual", res, ORBIT_MEMBERSHIP_TOL)
    # heat semigroup: sup-norm contraction and positivity for u0 >= 0
    p.at_most("sup ratio", checks["sup_ratio"], 1.0 + CONTRACTION_TOL)
    p.at_least("min entry", checks["min_entry"], -CONTRACTION_TOL)
    p.that(traj["node_order_ok"], "trajectory.csv node order broken")
    ratio = max(traj["sup"]) / r["u0_mask_max"]
    p.that(math.isclose(ratio, checks["sup_ratio"], rel_tol=1e-12),
           f"trajectory.csv sup ratio {ratio!r} != checks.json {checks['sup_ratio']!r}")
    return p.failures


#: record kind -> (reference view, pinned checks)
KINDS = {
    "spectral": (spectral_summary, spectral_pins),
    "tk": (tk_summary, tk_pins),
    "semigroup": (semigroup_summary, semigroup_pins),
    "heat-domain": (heat_domain_summary, heat_domain_pins),
    "heat-orbit": (heat_orbit_summary, heat_orbit_pins),
}


def record_kind(workload, key):
    if workload == "dense-spectral":
        return "tk" if key.startswith("tk-") else "spectral"
    if workload == "dense-semigroup":
        return "semigroup"
    return workload


def check_item(workload, key, record, reference):
    """All failures of one item: unexpected raise, reference, pinned bounds."""
    if "error" in record:
        return [f"raised {record['error']}"]
    summary, pins = KINDS[record_kind(workload, key)]
    malformed = (KeyError, TypeError, ValueError, IndexError)
    try:
        failures = pins(record)
    except malformed as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    try:
        got = summary(record)
    except malformed as exc:
        return failures + [f"malformed output: {type(exc).__name__}: {exc}"]
    want = reference["items"].get(key)
    if want is None:
        return failures + [f"no reference for input {key}"]
    return failures + compare(got, want, RTOL[workload], ATOL[workload])


def check_records(workload, records, reference):
    """``[(label, failures)]`` for every item that failed."""
    out = []
    for label, key, record in records:
        failures = check_item(workload, key, record, reference)
        if failures:
            out.append((label, failures))
    return out
