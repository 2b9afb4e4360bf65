"""Self-test of the benchmark's output check.

Runs small real passes of the workloads, asserts that their outputs pass,
then feeds the check corrupted copies (a flipped verdict, a negative
contraction norm, a shifted final error, a broken pinned tolerance, an
unexpected raise) and asserts that each one fails.

Run from the repository root (takes about a minute)::

    python3 -m pytest -q perfbench/tests
"""

import copy
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402  (pins BLAS threads before NumPy loads)

sys.path.insert(0, str(run.SRC))
import check  # noqa: E402
import workloads  # noqa: E402


def _records(name, seed=0, limit=None):
    wl = workloads.WORKLOADS[name]
    work = run.OUT_DIR / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = wl.setup(seed, str(work))
        if limit is not None:
            inputs["items"] = inputs["items"][:limit]
        res = wl.run_pass(inputs)
        return wl.records(inputs, res.outs)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _failures(name, label, record):
    key = next(k for lab, k, _ in RECORDS[name] if lab == label)
    return check.check_item(name, key, record, check.load_reference(name))


def _only(name, kind):
    return [(label, rec) for label, key, rec in RECORDS[name]
            if check.record_kind(name, key) == kind]


RECORDS = {}


@pytest.fixture(scope="module", autouse=True)
def clean_runs():
    RECORDS["dense-spectral"] = _records("dense-spectral", limit=12)
    RECORDS["dense-semigroup"] = _records("dense-semigroup", limit=8)
    RECORDS["heat-domain"] = _records("heat-domain")
    RECORDS["heat-orbit"] = _records("heat-orbit")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_clean_run_passes(name):
    failed = check.check_records(name, RECORDS[name], check.load_reference(name))
    assert failed == []


# -- corrupted heat-domain reports --------------------------------------------


def _heat_domain(label="polygons"):
    rec = next(r for lab, _, r in RECORDS["heat-domain"] if lab == label)
    return copy.deepcopy(rec)


def test_flipped_verdict_fails():
    rec = _heat_domain()
    rec["report"]["verdicts"]["ii"] = False
    why = _failures("heat-domain", "polygons", rec)
    assert any("verdicts" in w for w in why)


def test_negative_contraction_norm_fails_even_if_the_reference_agrees():
    rec = _heat_domain()
    rec["report"]["contraction_norms"]["disk"][0] = -2.0
    why = _failures("heat-domain", "polygons", rec)
    assert any("outside (0, 1 + tol]" in w for w in why)
    # the pinned bound holds on its own: a reference carrying the same bad
    # value does not make the output acceptable
    ref = check.load_reference("heat-domain")
    ref["items"]["polygons"]["contraction_norms"]["disk"][0] = -2.0
    assert any("outside (0, 1 + tol]" in w
               for w in check.check_item("heat-domain", "polygons", rec, ref))


def test_shifted_final_error_fails():
    rec = _heat_domain("slits")
    rec["report"]["integrated_sup"][-1] *= 1.01
    why = _failures("heat-domain", "slits", rec)
    assert any("integrated_sup[3]" in w for w in why)


def test_last_bit_changes_pass():
    rec = _heat_domain("slits")
    sup = rec["report"]["integrated_sup"]
    sup[-1] = math.nextafter(sup[-1], 1.0)
    for row in rec["errors_csv"]:
        if row[0] == rec["report"]["labels"][-1] and row[1] == "integrated_sup":
            row[3] = repr(sup[-1])
    assert _failures("heat-domain", "slits", rec) == []


def test_off_limit_leak_fails():
    rec = _heat_domain()
    rec["criterion_csv"][0][7] = "1e-9"
    assert any("off_limit_sup" in w for w in _failures("heat-domain", "polygons", rec))


def test_failed_cli_run_fails():
    rec = {"rc": 1, "stdout": "heat-converge: FAIL"}
    assert _failures("heat-domain", "polygons", rec)


# -- corrupted heat-orbit outputs ---------------------------------------------------


def _orbit():
    return copy.deepcopy(RECORDS["heat-orbit"][0][2])


def test_orbit_negative_contraction_norm_fails():
    rec = _orbit()
    rec["contraction"]["norms"][1] = -2.0
    assert any("outside (0, 1 + tol]" in w for w in _failures("heat-orbit", "orbit", rec))


def test_orbit_membership_above_gate_fails():
    rec = _orbit()
    rec["checks"]["membership_residuals"][-1] = 2e-6
    assert any("membership" in w for w in _failures("heat-orbit", "orbit", rec))


def test_orbit_method_change_fails():
    rec = _orbit()
    rec["contraction"]["method"] = "dense-rowsums"
    assert any("method" in w for w in _failures("heat-orbit", "orbit", rec))


# -- corrupted dense outputs -----------------------------------------------------------


def test_dense_flipped_sector_verdict_fails():
    label, rec = _only("dense-spectral", "spectral")[0]
    rec = copy.deepcopy(rec)
    rec["sector"]["passed"] = not rec["sector"]["passed"]
    why = _failures("dense-spectral", label, rec)
    assert any("sector.passed" in w for w in why)


def test_dense_resolvent_contraction_breach_fails():
    label, rec = _only("dense-spectral", "spectral")[0]
    rec = copy.deepcopy(rec)
    rec["m_dissipative"]["norms"][3] = 1.001
    assert any("||lam R(lam)||" in w for w in _failures("dense-spectral", label, rec))


def test_dense_flipped_convergence_verdict_fails():
    label, rec = _only("dense-spectral", "tk")[0]
    rec = copy.deepcopy(rec)
    rec["verdicts"]["v"] = False
    assert _failures("dense-spectral", label, rec)


def test_dense_laplace_residual_above_pin_fails():
    label, rec = _only("dense-semigroup", "semigroup")[0]
    rec = copy.deepcopy(rec)
    rec["laplace"] = 2e-9
    assert any("Laplace" in w for w in _failures("dense-semigroup", label, rec))


def test_dense_shifted_mild_solution_fails():
    label, rec = next((lab, r) for lab, r in _only("dense-semigroup", "semigroup")
                      if r["domain_dim"] > 0)
    rec = copy.deepcopy(rec)
    rec["mild_norms"][2] *= 1.0001
    assert any("mild_norms" in w for w in _failures("dense-semigroup", label, rec))


def test_unexpected_raise_fails():
    label, _ = _only("dense-semigroup", "semigroup")[0]
    assert _failures("dense-semigroup", label, {"error": "NotMDissipative: boom"})


def test_missing_reference_fails():
    label, rec = _only("dense-semigroup", "semigroup")[0]
    ref = {"items": {}}
    assert any("no reference" in w
               for w in check.check_item("dense-semigroup", "d1-real-c0-v9", rec, ref))
