"""Convergence of relation sequences: limits, equivalences, reports.

The central object is :func:`trotter_kato_report`, which tabulates the
five equivalent convergence criteria for sequences of m-dissipative
relations — integrated-semigroup convergence, resolvent convergence on a
grid, at a single point, at one caller-supplied complex point (plus its
range hypothesis), and graph convergence in the gap metric — and insists
that their verdicts agree.

Sequence members may be plain relations (evaluated densely by
:class:`DenseEvaluator`) or any object implementing the evaluator protocol
``PROTOCOL`` (the heat lab plugs in sparse kernels and sup norms).  The
protocol works on arrays: one call evaluates every time, sector point or
shift of a report's grid on a block of trial vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InconsistentEquivalence,
    InvalidInput,
    NotCauchy,
    NotInResolventSet,
    ResolventNotConvergent,
    SectorHypothesisFailed,
)
from .relation import LinearRelation, gap_relations
from .sampling import random_matrix
from .semigroup import (
    SectorSpec,
    decompose,
    holomorphic_at,
    integrated_at,
    sector_verify,
    semigroup_at,
)
from .spectral import (
    ACCEPT_TOL,
    accepted,
    relation_from_resolvent,
    resolvent,
    resolvent_points,
)


PROTOCOL = ("state_dim", "resolvent", "semigroup", "integrated", "vec_norm")


class DenseEvaluator:
    """The evaluator protocol for an explicit relation, by dense matrices.

    Protocol (``PROTOCOL``; :class:`relsemi.heatlab.DirichletGridRelation`
    is the sparse implementation): ``state_dim``; ``resolvent(lams, F)``,
    ``semigroup(zs, F)`` and ``integrated(ts, F)``, each returning the
    stack ``(len(·),) + F.shape`` of ``R(λ) F``, ``T(z) F`` and ``S(t) F``
    (``zs`` real ``t >= 0``, or complex inside the sector, else
    :class:`OutsideSector`); and ``vec_norm(x)``, the norms of ``x`` over
    its state axis (axis 0 of a vector, ``-2`` of a column block or a
    stack), Euclidean here.  Evaluators built from a relation also carry
    it as ``relation``.
    """

    def __init__(self, rel: LinearRelation):
        self.relation = rel
        self.state_dim = rel.state_dim
        self._sd = None

    def _data(self):
        if self._sd is None:
            self._sd = decompose(self.relation)
        return self._sd

    def resolvent(self, lams, fs: np.ndarray) -> np.ndarray:
        # each block is reduced to R(lam) F; the (k, d, d) stack is never built
        return np.stack(accepted(resolvent_points(self.relation, np.atleast_1d(lams),
                                                  lambda block: block.matrices @ fs)))

    def semigroup(self, zs, fs: np.ndarray) -> np.ndarray:
        zs = np.atleast_1d(zs)
        at = holomorphic_at if np.iscomplexobj(zs) else semigroup_at
        return at(self._data(), zs) @ fs

    def integrated(self, ts, fs: np.ndarray) -> np.ndarray:
        return integrated_at(self._data(), np.atleast_1d(ts)) @ fs

    def vec_norm(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return np.linalg.norm(x, axis=0 if x.ndim == 1 else -2)


def as_evaluator(obj):
    if isinstance(obj, LinearRelation):
        return DenseEvaluator(obj)
    if all(hasattr(obj, a) for a in PROTOCOL):
        return obj
    raise InvalidInput(f"object {type(obj).__name__} implements no evaluator protocol")


# -- limits ------------------------------------------------------------------


CAUCHY_WINDOW = 3  # trailing members a Cauchy certificate compares with the last one


def empirical_limit(rels: Sequence[LinearRelation], cauchy_tol: float = 1e-8):
    """Last element of a gap-metric Cauchy sequence, with its certificate.

    The trailing ``CAUCHY_WINDOW`` members must each be within ``cauchy_tol``
    of the final one; otherwise :class:`NotCauchy` reports the worst pair.
    """
    rels = list(rels)
    if len(rels) < CAUCHY_WINDOW + 1:
        raise InvalidInput(f"need at least {CAUCHY_WINDOW + 1} members, got {len(rels)}")
    last = rels[-1]
    trace = [gap_relations(r, last) for r in rels[:-1]]
    tail = trace[-CAUCHY_WINDOW:]
    worst = max(tail)
    if worst > cauchy_tol:
        k = len(rels) - 1 - CAUCHY_WINDOW + int(np.argmax(tail))
        raise NotCauchy(
            f"gap(A_{k}, A_last) = {worst:.3e} > {cauchy_tol:.1e}")
    return last, {"gap_trace": trace, "worst_tail_gap": worst, "window": CAUCHY_WINDOW}


def limit_from_resolvents(lam0, rels: Sequence[LinearRelation]):
    """Reconstruct the limit relation from resolvent samples at ``lam0``.

    All members must have ``lam0`` in their resolvent set.  The sample
    matrices must be Cauchy (the trailing ``CAUCHY_WINDOW``, spectral norm,
    within ``10 ACCEPT_TOL`` relative to the largest norm); the limit is
    rebuilt from the final sample.
    """
    rels = list(rels)
    if len(rels) < CAUCHY_WINDOW + 1:
        raise InvalidInput(f"need at least {CAUCHY_WINDOW + 1} members, got {len(rels)}")
    mats = [resolvent(r, lam0).matrix for r in rels]
    norms = [float(np.linalg.norm(m, 2)) for m in mats]
    last = mats[-1]
    trace = [float(np.linalg.norm(m - last, 2)) for m in mats[:-1]]
    worst = max(trace[-CAUCHY_WINDOW:])
    if worst > ACCEPT_TOL * max(1.0, max(norms)) * 10:
        raise ResolventNotConvergent(
            f"trailing resolvent gap {worst:.3e} at lam0={lam0!r}")
    limit = relation_from_resolvent(lam0, last)
    return limit, {"norms": norms, "cauchy_trace": trace, "worst_tail": worst}


# -- the equivalence report ---------------------------------------------------


@dataclass
class ConvergenceReport:
    """Long-form error tables plus one verdict per criterion."""

    labels: tuple
    tol: float
    integrated_sup: Optional[np.ndarray]
    resolvent_errors: dict
    mu: Optional[complex]
    mu_errors: Optional[np.ndarray]
    mu_hypothesis: Optional[dict]
    gaps: Optional[np.ndarray]
    verdicts: dict = field(default_factory=dict)
    consistent: bool = True

    def columns(self):
        """Long-format columns ``[n, kind, param, error]`` for CSV export."""
        out = [[], [], [], []]

        def add(n, kind, param, error):
            for col, v in zip(out, (n, kind, param, float(error))):
                col.append(v)

        for i, n in enumerate(self.labels):
            if self.integrated_sup is not None:
                add(n, "integrated_sup", "", self.integrated_sup[i])
            for lam, errs in sorted(self.resolvent_errors.items(),
                                    key=lambda kv: (kv[0].real, kv[0].imag)):
                add(n, "resolvent", repr(lam), errs[i])
            if self.mu_errors is not None:
                add(n, "mu_resolvent", repr(self.mu), self.mu_errors[i])
            if self.gaps is not None:
                add(n, "gap", "", self.gaps[i])
        return out


def default_f_set(d: int, field_tag: str = "real"):
    """Canonical basis plus three random unit vectors (seed 0), as columns."""
    rng = np.random.default_rng(0)
    cols = [np.eye(d, dtype=complex if field_tag == "complex" else float)]
    for _ in range(3):
        v = random_matrix(rng, d, 1, field_tag)
        cols.append(v / np.linalg.norm(v))
    return np.hstack(cols)


def trotter_kato_report(family, limit, lambda_grid, t_grid, f_set=None,
                        tol: float = 1e-6, mu: complex = 1 + 1j,
                        items: Sequence[str] = ("i", "ii", "iii", "iv", "v"),
                        labels=None) -> ConvergenceReport:
    """Tabulate the equivalent convergence criteria for a relation sequence.

    Criteria: (i) sup over ``t_grid`` of integrated-semigroup errors on the
    trial vectors; (ii) resolvent errors at each positive ``lambda_grid``
    point; (iii) the first grid point alone; (iv) resolvent errors at the
    caller-supplied complex ``mu`` with ``Re mu > 0``, whose hypothesis
    (full range of ``mu - A``, read from whether the limit's resolvent at
    ``mu`` is certified, and a uniform resolvent bound) is recorded;
    (v) graph convergence in the gap metric (only for explicit relations).

    A verdict per criterion compares the final error against ``tol``; the
    theory makes the criteria equivalent, so mixed verdicts raise
    :class:`InconsistentEquivalence`.
    """
    evals = [as_evaluator(r) for r in family]
    lim = as_evaluator(limit)
    if not evals:
        raise InvalidInput("empty family")
    if labels is None:
        labels = tuple(range(1, len(evals) + 1))
    labels = tuple(labels)
    d = lim.state_dim
    if f_set is None:
        tag = "complex" if any(
            getattr(e, "relation", None) is not None and e.relation.field == "complex"
            for e in [lim, *evals]) else "real"
        f_set = default_f_set(d, tag)
    f_set = np.atleast_2d(np.asarray(f_set))
    if f_set.shape[0] != d:
        raise InvalidInput("trial vectors must be columns of length state_dim")
    t_grid = np.asarray(t_grid, dtype=float)
    lambda_grid = [complex(l) for l in lambda_grid]
    if complex(mu).real <= 0:
        raise InvalidInput("mu must have positive real part")

    def col_err(a, b, ev):
        return float(np.max(ev.vec_norm(a - b)))

    report = ConvergenceReport(labels, tol, None, {}, None, None, None, None)
    verdict_pool = {}

    if "i" in items:
        lim_s = lim.integrated(t_grid, f_set)
        report.integrated_sup = np.array([col_err(ev.integrated(t_grid, f_set), lim_s, ev)
                                          for ev in evals])
        verdict_pool["i"] = bool(report.integrated_sup[-1] <= tol)

    if "ii" in items or "iii" in items:
        lim_r = lim.resolvent(lambda_grid, f_set)
        # errs[k, j]: member k against the limit at lambda_grid[j], worst trial vector
        errs = np.array([np.max(ev.vec_norm(ev.resolvent(lambda_grid, f_set) - lim_r),
                                axis=-1) for ev in evals])
        report.resolvent_errors = {lam: errs[:, j] for j, lam in enumerate(lambda_grid)}
        if "ii" in items:
            verdict_pool["ii"] = bool(np.all(errs[-1] <= tol))
        if "iii" in items:
            verdict_pool["iii"] = bool(errs[-1, 0] <= tol)

    if "iv" in items:
        mu = complex(mu)
        report.mu = mu
        errs = np.full(len(evals), math.nan)
        norms, lim_r = [], None
        try:
            lim_r = lim.resolvent([mu], f_set)
            for k, ev in enumerate(evals):
                cols = ev.resolvent([mu], f_set)
                errs[k] = col_err(cols, lim_r, ev)
                norms.append(float(np.max(ev.vec_norm(cols)
                                          / np.maximum(ev.vec_norm(f_set), 1e-300))))
        except NotInResolventSet:
            pass
        # ran(mu - A) = X is the rank stage of the limit's certificate at mu
        hyp = {"range_full": lim_r is not None,
               "max_norm": max(norms) if norms else math.nan,
               "all_in_resolvent": len(norms) == len(evals)}
        report.mu_errors = errs
        report.mu_hypothesis = hyp
        if hyp["all_in_resolvent"]:
            verdict_pool["iv"] = bool(errs[-1] <= tol)

    if "v" in items:
        rels = [getattr(ev, "relation", None) for ev in evals]
        lim_rel = getattr(lim, "relation", None)
        if any(r is None for r in rels) or lim_rel is None:
            raise InvalidInput("gap criterion needs explicit relations")
        gaps = np.array([gap_relations(r, lim_rel) for r in rels])
        report.gaps = gaps
        verdict_pool["v"] = bool(gaps[-1] <= tol)

    report.verdicts = verdict_pool
    decisions = set(verdict_pool.values())
    report.consistent = len(decisions) <= 1
    if not report.consistent:
        raise InconsistentEquivalence(
            f"criteria disagree: {verdict_pool} (tol={tol:g}); "
            "equivalent criteria must agree — this indicates a bug")
    return report


# -- a built-in oscillating family -------------------------------------------


def oscillating_scalar_family(n: int) -> LinearRelation:
    """The relation ``{(x, i n x)}`` on ``C``: rotation at speed ``n``.

    The family converges in every resolvent/integrated sense to the purely
    multivalued relation ``{0} x C``, while the semigroups
    ``T_n(t) = e^{i n t}`` do not converge at any ``t`` outside ``2 pi Z``.
    """
    return LinearRelation.from_operator(np.array([[1j * n]], dtype=complex))


def oscillating_scalar_limit() -> LinearRelation:
    return LinearRelation.from_pairs(np.zeros((1, 1), dtype=complex),
                                     np.eye(1, dtype=complex))


def oscillating_integrated_value(n: int, t: float) -> complex:
    """Closed form ``S_n(t) = (e^{i n t} - 1) / (i n)``."""
    return (np.exp(1j * n * t) - 1.0) / (1j * n)


# -- holomorphic families ------------------------------------------------------


@dataclass
class HolomorphicReport:
    z_grid: tuple
    errors: np.ndarray          # per member, in family order: max over z and trial vectors
    limit: object
    sector_evidence: object
    tol: float
    passed: bool


def holomorphic_convergence_report(family, spec: SectorSpec, eps: float,
                                   z_grid, f_set=None,
                                   tol: float = 1e-3, radii: int = 13, rays: int = 7,
                                   limit=None) -> HolomorphicReport:
    """Convergence of holomorphic semigroups on a compact of the sector.

    Every family member must pass :func:`sector_verify` for the common
    ``spec`` (else :class:`SectorHypothesisFailed`).  The limit is rebuilt
    from resolvent samples at ``lam0 = 1`` unless supplied explicitly; it must
    pass the same sector check.  Errors are ``max_z max_f ||T_n(z) f -
    T(z) f||``; the tail must not grow (last <= first) and the final error
    must be below ``tol``.
    """
    members = list(family)
    rel_members = [m for m in members if isinstance(m, LinearRelation)]
    if len(rel_members) == len(members):
        for idx, rel in enumerate(rel_members):
            ev = sector_verify(rel, spec, eps, radii=radii, rays=rays)
            if not ev.passed:
                raise SectorHypothesisFailed(idx, f"worst norm {ev.worst_norm:.4g}")
        if limit is None:
            limit, _ = limit_from_resolvents(1.0, rel_members)
        lim_ev = sector_verify(limit, spec, eps, radii=radii, rays=rays)
        if not lim_ev.passed:
            raise SectorHypothesisFailed(-1, "limit fails the sector bound")
    else:
        if limit is None:
            raise InvalidInput("protocol members need an explicit limit")
        lim_ev = None
    evs = [as_evaluator(m) for m in members]
    lim_e = as_evaluator(limit)
    d = lim_e.state_dim
    if f_set is None:
        f_set = default_f_set(d, "complex")
    f_set = np.atleast_2d(np.asarray(f_set, dtype=complex))
    zs = np.asarray(z_grid, dtype=complex)
    lim_vals = lim_e.semigroup(zs, f_set)
    errors = np.array([float(np.max(ev.vec_norm(ev.semigroup(zs, f_set) - lim_vals)))
                       for ev in evs])
    passed = bool(errors[-1] <= tol and errors[-1] <= errors[0] + 1e-15)
    return HolomorphicReport(tuple(z_grid), errors, limit, lim_ev, tol, passed)
