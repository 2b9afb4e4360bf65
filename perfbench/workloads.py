"""The four benchmark workloads: seeded inputs, one timed pass, records.

Every call into the program goes through a module attribute
(``semigroup.decompose``, ``cli.main`` …) so that a traced run sees it.
A pass keeps the raw program outputs; ``records`` turns them, outside the
clock, into one plain record per certified item, which :mod:`check`
compares with the stored reference and with the pinned tolerances.

Dense inputs come from a fixed pool: for each state dimension ``d``, field
and domain-dimension class there are ``VARIANTS`` seeded relations, and
the run seed picks one variant per slot and the item order.  Every run
therefore has the same mix of sizes (so timings from different seeds are
comparable), while the inputs change with the seed and every one of them
has a reference recorded from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

import relsemi.cli as cli
import relsemi.converge as converge
import relsemi.dissipative as dissipative
import relsemi.grids as grids
import relsemi.heatlab as heatlab
import relsemi.report as report
import relsemi.semigroup as semigroup
import relsemi.spectral as spectral
from relsemi.sampling import random_m_dissipative

from hostspeed import paused_s

FIELDS = ("real", "complex")
CLASSES = 7        # domain-dimension classes per (d, field): dom_dim = round(c d / 6)
VARIANTS = 3       # seeded pool relations per slot; the run seed picks one

clock = time.perf_counter


def dom_dim(d: int, cls: int) -> int:
    return round(cls * d / (CLASSES - 1))


@dataclass(frozen=True)
class Slot:
    d: int
    field: str
    cls: int

    def key(self, variant: int) -> str:
        return f"d{self.d}-{self.field}-c{self.cls}-v{variant}"


def pool_input(salt: int, slot: Slot, variant: int):
    """The pool relation of ``slot`` and its unit trial vector."""
    rng = np.random.default_rng([salt, slot.d, FIELDS.index(slot.field),
                                 slot.cls, variant])
    rel = random_m_dissipative(rng, slot.d, slot.field,
                               dom_dim=dom_dim(slot.d, slot.cls))
    x = rng.standard_normal(slot.d)
    if slot.field == "complex":
        x = x + 1j * rng.standard_normal(slot.d)
    return rel, x / np.linalg.norm(x)


@dataclass
class PassResult:
    wall_s: float
    item_s: list       # per-item latencies (relation bundles or CLI runs)
    outs: list         # raw program outputs, or _Raised, one per item
    speed: float = 1.0  # host speed factor of the pass (see hostspeed)


@dataclass
class _Raised:
    error: str


def _timed_items(items, compute, tracer):
    """Run ``compute`` on each item; the clock covers only program calls.

    Time spent in host-speed calibration slices is taken out of every clock.
    """
    item_s, outs = [], []
    start, start_paused = clock(), paused_s()
    for index, (_, _, args) in enumerate(items):
        if tracer is not None:
            tracer.item = index
        p0, t0 = paused_s(), clock()
        try:
            out = compute(*args)
        except Exception as exc:  # noqa: BLE001 - an unexpected raise fails the item
            out = _Raised(f"{type(exc).__name__}: {exc}")
        item_s.append(clock() - t0 - (paused_s() - p0))
        outs.append(out)
    return PassResult(clock() - start - (paused_s() - start_paused), item_s, outs)


def _records(items, outs, extract):
    """``(label, reference key, record)`` per item, read outside the clock."""
    return [(label, key, {"error": out.error} if isinstance(out, _Raised)
             else extract(out, *args))
            for (label, key, args), out in zip(items, outs)]


# -- dense workloads ----------------------------------------------------------


class DenseWorkload:
    """A battery over the pool: ``len(dims) * 2 * CLASSES`` items per pass."""

    def __init__(self, name, dims, salt):
        self.name = name
        self.salt = salt
        self.slots = [Slot(d, f, c) for d in dims for f in FIELDS
                      for c in range(CLASSES)]

    def choose(self, seed):
        """Variant per slot and item order for ``seed``."""
        rng = np.random.default_rng(seed)
        picks = [(s, int(rng.integers(VARIANTS))) for s in self.slots]
        order = rng.permutation(len(picks))
        return [picks[i] for i in order], rng

    def item_inputs(self, picks):
        items = []
        for slot, v in picks:
            rel, x = pool_input(self.salt, slot, v)
            items.append((slot.key(v), slot.key(v), (rel, x, slot)))
        return items

    def pool_inputs(self):
        """Every pool input once (for recording the reference)."""
        return {"items": self.item_inputs(
            [(s, v) for s in self.slots for v in range(VARIANTS)])}


SECTOR = semigroup.SectorSpec(alpha=math.pi / 4, bound=2.0)
SECTOR_EPS = math.pi / 2          # rays |arg lam| <= pi/4: m-dissipativity implies the bound
SCAN_GRID = np.linspace(-2.0, 2.0, 41)
TK_SLOT = Slot(8, "real", 3)
TK_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
TK_LAMBDAS = (0.5, 1.0, 2.0)
TK_TIMES = np.linspace(0.0, 2.0, 9)
TK_TOL = 1e-3


def spectral_compute(rel, x, slot):
    adj = rel.adjoint().parts
    return (adj, rel.surjectivity_modulus(), dissipative.is_m_dissipative(rel),
            semigroup.sector_verify(rel, SECTOR, SECTOR_EPS, radii=13, rays=7),
            spectral.resolvent_set_scan(rel, SCAN_GRID))


def spectral_extract(out, rel, x, slot):
    adj, surj, ev, sec, rows = out
    return {
        "d": slot.d,
        "adjoint_dims": [adj.domain.dim, adj.range.dim, adj.kernel.dim,
                         adj.multivalued.dim],
        "surjectivity_modulus": float(surj),
        "m_dissipative": {
            "ok": bool(ev.ok), "kind": ev.certificate.kind,
            "dissipative": bool(ev.certificate.dissipative),
            "range_full": bool(ev.range_full),
            "witness": float(ev.certificate.witness), "defect": float(ev.defect),
            "lams": [float(l) for l, _ in ev.lambda_checks],
            "norms": [float(n) for _, n in ev.lambda_checks]},
        "sector": {"passed": bool(sec.passed), "failures": len(sec.failures),
                   "worst_norm": float(sec.worst_norm), "bound": float(sec.bound_used)},
        "scan": {"lams": [r.lam.real for r in rows],
                 "in_set": "".join("1" if r.in_set else "0" for r in rows),
                 "norms": [float(r.norm) for r in rows],
                 "residuals": [float(r.residual) for r in rows]},
    }


def tk_family(rel):
    eye = np.eye(rel.state_dim)
    return [rel.add_operator(-delta * eye) for delta in TK_DELTAS]


def tk_compute(family, limit):
    return converge.trotter_kato_report(family, limit, TK_LAMBDAS, TK_TIMES,
                                        tol=TK_TOL)


def tk_extract(rep, family, limit):
    def floats(a):
        return [float(v) for v in a]

    return {
        "verdicts": {k: bool(v) for k, v in sorted(rep.verdicts.items())},
        "consistent": bool(rep.consistent),
        "tol": float(rep.tol),
        "integrated_sup": floats(rep.integrated_sup),
        "resolvent_errors": {repr(k.real): floats(v)
                             for k, v in sorted(rep.resolvent_errors.items(),
                                                key=lambda kv: kv[0].real)},
        "mu_errors": floats(rep.mu_errors),
        "mu_hypothesis": {"range_full": bool(rep.mu_hypothesis["range_full"]),
                          "all_in_resolvent": bool(rep.mu_hypothesis["all_in_resolvent"]),
                          "max_norm": float(rep.mu_hypothesis["max_norm"])},
        "gaps": floats(rep.gaps),
    }


class DenseSpectral(DenseWorkload):
    def __init__(self):
        super().__init__("dense-spectral", (2, 4, 6, 8, 12, 16, 24, 32), salt=101)

    def _tk_input(self, variant):
        limit, _ = pool_input(self.salt, TK_SLOT, variant)
        return (f"tk-{TK_SLOT.key(variant)}", f"tk-v{variant}",
                (tk_family(limit), limit))

    def setup(self, seed, work_dir):
        picks, rng = self.choose(seed)
        return {"items": self.item_inputs(picks),
                "tk": [self._tk_input(int(rng.integers(VARIANTS)))]}

    def pool_inputs(self):
        return {**super().pool_inputs(),
                "tk": [self._tk_input(v) for v in range(VARIANTS)]}

    def run_pass(self, inputs, tracer=None):
        result = _timed_items(inputs["items"], spectral_compute, tracer)
        # the convergence report is one more certified unit; its time counts
        # in wall_s but not among the per-relation item latencies
        tk = _timed_items(inputs["tk"], tk_compute, tracer)
        result.wall_s += tk.wall_s
        result.outs += tk.outs
        return result

    def records(self, inputs, outs):
        n = len(inputs["items"])
        return (_records(inputs["items"], outs[:n], spectral_extract)
                + _records(inputs["tk"], outs[n:], tk_extract))


MILD_GRID = np.arange(0.0, 3.0 + 1e-12, 0.1)
HOLO_Z = (0.5, 2.0)


def semigroup_compute(rel, x, slot):
    sd = semigroup.decompose(rel)
    return (sd,
            semigroup.laplace_residual(sd, 1.0, transform="integrated"),
            semigroup.functional_equation_residual(sd, 0.3, 1.0),
            semigroup.mild_solution(sd, x, MILD_GRID),
            semigroup.semigroup_law_residual(sd, 0.5, 1.0),
            [semigroup.holomorphic_at(sd, z) for z in HOLO_Z])


def semigroup_extract(out, rel, x, slot):
    sd, lap, fe, mild, law, hol = out
    norms = np.linalg.norm(mild.states, axis=1)
    return {
        "d": slot.d,
        "expected_domain_dim": dom_dim(slot.d, slot.cls),
        "domain_dim": int(sd.domain_dim),
        "null_dim": int(sd.null_basis.shape[1]),
        "evidence_ok": bool(sd.evidence.ok),
        "laplace": float(lap.total),
        "functional_equation": [float(fe.residual), float(fe.residual_swapped)],
        "mild_membership": float(np.max(mild.membership_residuals)),
        "mild_lipschitz": float(mild.lipschitz_defect),
        "mild_norms": [float(norms.sum()), float(norms.max()), float(norms[-1])],
        "law": float(law),
        "holomorphic_norms": [float(np.linalg.norm(h, "fro")) for h in hol],
    }


class DenseSemigroup(DenseWorkload):
    def __init__(self):
        super().__init__("dense-semigroup", (1, 2, 3, 4, 6, 8, 12, 16), salt=202)

    def setup(self, seed, work_dir):
        picks, _ = self.choose(seed)
        return {"items": self.item_inputs(picks)}

    def run_pass(self, inputs, tracer=None):
        return _timed_items(inputs["items"], semigroup_compute, tracer)

    def records(self, inputs, outs):
        return _records(inputs["items"], outs, semigroup_extract)


# -- heat workloads -------------------------------------------------------------


def _run_cli(argv):
    """``relsemi`` in-process; returns the exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[2:]]


DISK = {"kind": "disk", "center": [0.0, 0.0], "radius": 0.7}
HEAT_BUILDERS = ("polygons", "slits")


class HeatDomain:
    """``relsemi heat converge`` for two mask families, as in criterion 11."""

    name = "heat-domain"

    def setup(self, seed, work_dir):
        items = []
        for builder in HEAT_BUILDERS:
            cfg = {"grid": {"m": 64},
                   "limit": {"shape": DISK, "label": "disk"},
                   "builder": {"name": builder, "radius": 0.7},
                   "lambda_grid": [0.5, 1.0, 2.0],
                   "t_grid": {"start": 0.0, "stop": 1.0, "num": 6},
                   "tol": 0.05, "items": ["i", "ii", "iii", "iv"],
                   "f": ["ones"], "samples": 4}
            path = os.path.join(work_dir, f"{builder}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            out = os.path.join(work_dir, builder)
            argv = ["heat", "converge", "--family", path, "--out", out,
                    "--seed", str(seed)]
            items.append((builder, builder, (argv, out)))
        return {"items": items}

    def run_pass(self, inputs, tracer=None):
        return _timed_items(inputs["items"], lambda argv, out: _run_cli(argv),
                            tracer)

    @staticmethod
    def _extract(result, argv, out):
        rc, stdout = result
        record = {"rc": rc, "stdout": stdout}
        if rc == 0:
            with open(os.path.join(out, "report.json")) as fh:
                record["report"] = json.load(fh)
            record["errors_csv"] = _read_csv(os.path.join(out, "errors.csv"))
            record["criterion_csv"] = _read_csv(os.path.join(out, "criterion.csv"))
        return record

    def records(self, inputs, outs):
        return _records(inputs["items"], outs, self._extract)


ORBIT_M = 96
ORBIT_GRID = "0.05:0.05:1"
ORBIT_TIMES = 20
ORBIT_LAMS = (0.1, 1.0, 10.0)
ORBIT_SAMPLES = 500


class HeatOrbit:
    """``relsemi heat orbit`` on one stiff mask plus its two certificates."""

    name = "heat-orbit"

    def setup(self, seed, work_dir):
        spec = {"grid": {"m": ORBIT_M}, "shape": DISK, "label": "disk"}
        u0 = heatlab.bump_function(grids.Grid(ORBIT_M))
        mask_path = os.path.join(work_dir, "mask.json")
        u0_path = os.path.join(work_dir, "u0.json")
        with open(mask_path, "w") as fh:
            json.dump(spec, fh)
        with open(u0_path, "w") as fh:
            json.dump(report.vector_to_json(u0), fh)
        out = os.path.join(work_dir, "orbit")
        argv = ["heat", "orbit", "--mask", mask_path, "--grid", ORBIT_GRID,
                "--u0", u0_path, "--out", out]
        return {"items": [("orbit", "orbit", (argv, out, spec, u0, seed))]}

    @staticmethod
    def _compute(argv, out, spec, u0, seed):
        rc, stdout = _run_cli(argv)
        lab = heatlab.DirichletGridRelation(grids.mask_from_spec(spec))
        cert = heatlab.supnorm_contraction(lab, lams=ORBIT_LAMS)
        mp = heatlab.max_principle_check(lab, samples=ORBIT_SAMPLES, seed=seed)
        return rc, stdout, lab, cert, mp

    def run_pass(self, inputs, tracer=None):
        return _timed_items(inputs["items"], self._compute, tracer)

    @staticmethod
    def _extract(result, argv, out, spec, u0, seed):
        rc, stdout, lab, cert, mp = result
        record = {"rc": rc, "stdout": stdout,
                  "contraction": {"ok": bool(cert.ok), "method": cert.method,
                                  "lams": list(cert.lams), "norms": list(cert.norms)},
                  "max_principle": {"used": mp.samples_used, "skipped": mp.skipped,
                                    "slack_min": float(mp.slack_min)},
                  "u0_mask_max": float(np.max(u0[lab.omega]))}
        if rc == 0:
            with open(os.path.join(out, "checks.json")) as fh:
                record["checks"] = json.load(fh)
            table = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",",
                               skiprows=2, ndmin=2)
            times = np.unique(table[:, 0])
            values = table[:, 2].reshape(times.size, -1)
            record["trajectory"] = {
                "rows": int(table.shape[0]), "times": times.tolist(),
                "nodes_per_time": int(values.shape[1]),
                "node_order_ok": bool(np.all(
                    table[:, 1].reshape(times.size, -1) == np.arange(values.shape[1]))),
                "sup": np.max(np.abs(values), axis=1).tolist(),
                "sum": values.sum(axis=1).tolist()}
        return record

    def records(self, inputs, outs):
        return _records(inputs["items"], outs, self._extract)


WORKLOADS = {w.name: w for w in (DenseSpectral(), DenseSemigroup(), HeatDomain(),
                                 HeatOrbit())}
