"""Degenerate semigroups generated by m-dissipative relations.

An m-dissipative relation ``A`` on ``K^d`` splits the space into its
(closed) domain ``X1`` and multivalued part ``X0``; the operator part of
``A`` acts on ``X1`` as a matrix ``M1``.  The associated semigroup is
``T(t) = embed(exp(t M1)) P`` with ``P`` the projection onto ``X1`` along
``X0`` — a *degenerate* semigroup: ``T(0) = P`` rather than the identity.
Its primitive ``S(t) = integral_0^t T`` is the once-integrated semigroup
that carries the mild solutions of ``u' in A u``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as spla

from .dissipative import CERT_TOL, MDissipativityEvidence, is_m_dissipative
from .errors import (
    DecompositionFailure,
    InvalidInput,
    NotMDissipative,
    OutsideSector,
)
from .quadrature import panel_rule
from .relation import LinearRelation
from .spectral import NotInResolventSet, resolvent

log = logging.getLogger("relsemi")

EXPM_BLOCK = 64  # matrices per stacked expm call; bounds a quadrature's working set
NODES_PER_UNIT = 64       # Gauss nodes per unit time of the Laplace and law checks
MILD_NODES_PER_UNIT = 16  # the same for the running integral of a mild solution
WELLPOSED_TOL = 1e-8      # largest mild-solution defect of a well-posed verdict
SECTOR_SLACK = 1e-8       # slack of sector_verify's norm bound
SECTOR_BISECTIONS = 40    # certified_sector_angle steps: (pi/2) / 2**40 = 1.4e-12 rad


@dataclass(frozen=True)
class SemigroupData:
    """Decomposition of an m-dissipative relation for evaluation.

    ``projector`` is ``P`` (projection onto the domain along the
    multivalued part, oblique in general), ``generator_matrix`` is ``M1``
    in the coordinates of ``domain_basis``, and ``coord_map`` is the matrix
    ``E`` with ``P = domain_basis @ E``.
    """

    relation: LinearRelation
    projector: np.ndarray
    domain_basis: np.ndarray
    null_basis: np.ndarray
    generator_matrix: np.ndarray
    coord_map: np.ndarray
    evidence: MDissipativityEvidence

    @property
    def state_dim(self) -> int:
        return self.relation.state_dim

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.shape[1]


def decompose(rel: LinearRelation) -> SemigroupData:
    """Split the state space and extract the generator matrix.

    Raises :class:`NotMDissipative` when the evidence check fails and
    :class:`DecompositionFailure` when the domain and multivalued part do
    not span ``K^d`` (which cannot happen for a genuinely m-dissipative
    input and indicates inconsistent data).
    """
    ev = is_m_dissipative(rel)
    if not ev.ok:
        raise NotMDissipative(ev.failure or "m-dissipativity evidence failed")
    d = rel.state_dim
    b1 = rel.parts.domain.basis
    b0 = rel.parts.multivalued.basis
    d1, d0 = b1.shape[1], b0.shape[1]
    if d1 + d0 != d:
        raise DecompositionFailure(
            f"dim(dom) + dim(mul) = {d1}+{d0} != {d}")
    dt = np.result_type(b1.dtype, b0.dtype)
    basis = np.hstack([b1.astype(dt), b0.astype(dt)])
    sing = np.linalg.svd(basis, compute_uv=False)
    if sing.size and sing[-1] < 1e-8:
        raise DecompositionFailure(
            f"domain and multivalued part are nearly dependent "
            f"(sigma_min {sing[-1]:.2e})")
    coord_map = np.linalg.inv(basis)[:d1].copy()  # a view would pin the whole inverse
    projector = b1 @ coord_map if d1 else np.zeros((d, d), dtype=dt)
    # operator part: solve (b1_j, y) in A with y in X1
    u, v = rel.blocks()
    if d1:
        coef, *_ = np.linalg.lstsq(u, b1, rcond=None)
        if np.linalg.norm(u @ coef - b1) > 1e-8:
            raise DecompositionFailure("domain basis is not reachable in the graph")
        y1 = projector @ (v @ coef)
        m1 = b1.conj().T @ y1
        herm_top = float(np.linalg.eigvalsh((m1 + m1.conj().T) / 2.0)[-1])
        if herm_top > 10 * CERT_TOL:
            raise DecompositionFailure(
                f"operator part is not dissipative (Herm top {herm_top:.2e})")
    else:
        m1 = np.zeros((0, 0), dtype=dt)
    return SemigroupData(rel, projector, b1, b0, m1, coord_map, ev)


def phi1(z: np.ndarray) -> np.ndarray:
    """Entire function ``phi1(Z) = Z^{-1} (e^Z - I)``, singularities removed.

    Evaluated as the top-right block of ``expm([[Z, I], [0, 0]])``, which
    is well defined for singular ``Z`` as well.  ``z`` may be a stack of
    matrices ``(..., n, n)``.
    """
    n = z.shape[-1]
    if n == 0:
        return z.copy()
    aug = np.zeros(z.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(z.dtype, float))
    aug[..., :n, :n] = z
    aug[..., :n, n:] = np.eye(n)
    return spla.expm(aug)[..., :n, n:]


def _stacks(sd: SemigroupData, zs: np.ndarray, integrated: bool = False):
    """``T(z)``, or ``S(z)`` when ``integrated``, for the flat array ``zs``.

    Yields one ``(len(block), d, d)`` stack per block of ``EXPM_BLOCK``
    times, each from one stacked ``expm``, so a long quadrature never holds
    more than one block.  An empty domain needs no case: its blocks are 0 x 0.
    """
    for start in range(0, zs.size, EXPM_BLOCK):
        z = zs[start:start + EXPM_BLOCK, None, None]
        m = z * sd.generator_matrix
        core = z * phi1(m) if integrated else spla.expm(m)
        yield sd.domain_basis @ core @ sd.coord_map


def _evaluate(sd: SemigroupData, zs: np.ndarray, integrated: bool = False) -> np.ndarray:
    """All of :func:`_stacks` at once; a scalar ``zs`` gives one matrix.

    Complex points are checked against the sector by :func:`holomorphic_at`.
    """
    if zs.ndim > 1 or zs.size == 0:
        raise InvalidInput("times must be a scalar or a non-empty flat array")
    if not np.iscomplexobj(zs) and np.any(zs < 0):
        raise InvalidInput("semigroup time must be nonnegative")
    out = np.concatenate(list(_stacks(sd, np.atleast_1d(zs), integrated)))
    return out if zs.ndim else out[0]


def _weighted_sum(sd: SemigroupData, ts: np.ndarray, weights: np.ndarray,
                  integrated: bool) -> np.ndarray:
    """``sum_k weights[k] F(ts[k])`` with ``F = S`` or ``T``, blockwise."""
    acc = np.zeros(sd.projector.shape, dtype=np.result_type(sd.projector, weights))
    for k, stack in enumerate(_stacks(sd, ts, integrated)):
        acc += np.tensordot(weights[k * EXPM_BLOCK:(k + 1) * EXPM_BLOCK], stack, axes=1)
    return acc


def semigroup_at(sd: SemigroupData, t) -> np.ndarray:
    """The degenerate semigroup ``T(t) = embed(exp(t M1)) P`` for ``t >= 0``.

    A flat array of times gives the stack ``(len(t), d, d)``.
    """
    return _evaluate(sd, np.asarray(t, dtype=float))


def integrated_at(sd: SemigroupData, t) -> np.ndarray:
    """Once-integrated semigroup ``S(t) = integral_0^t T(r) dr``.

    A flat array of times gives the stack ``(len(t), d, d)``.
    """
    return _evaluate(sd, np.asarray(t, dtype=float), integrated=True)


def semigroup_law_residual(sd: SemigroupData, t: float, s: float) -> float:
    """``||T(t+s) - T(t) T(s)||_2``."""
    lhs, left, right = semigroup_at(sd, np.array([t + s, t, s]))
    return float(np.linalg.norm(lhs - left @ right, 2))


def _integral_of_integrated(sd, a, b):
    ts, ws = panel_rule(a, b, NODES_PER_UNIT)
    return _weighted_sum(sd, ts, ws, integrated=True)


@dataclass(frozen=True)
class FunctionalEquationCheck:
    """Residuals of the two orderings of the integrated composition law.

    ``residual`` uses windows ``[t, t+s]`` and ``[0, s]``; ``residual_swapped``
    uses ``[s, t+s]`` and ``[0, t]``.  Both vanish in exact arithmetic, so
    both are reported and tested.
    """

    residual: float
    residual_swapped: float


def functional_equation_residual(sd: SemigroupData, t: float,
                                 s: float) -> FunctionalEquationCheck:
    left, right = integrated_at(sd, np.array([t, s]))
    prod = left @ right
    win1 = _integral_of_integrated(sd, t, t + s) - _integral_of_integrated(sd, 0.0, s)
    win2 = _integral_of_integrated(sd, s, t + s) - _integral_of_integrated(sd, 0.0, t)
    return FunctionalEquationCheck(
        float(np.linalg.norm(prod - win1, 2)),
        float(np.linalg.norm(prod - win2, 2)))


@dataclass(frozen=True)
class LaplaceCheck:
    difference: float
    truncation_bound: float

    @property
    def total(self) -> float:
        return self.difference + self.truncation_bound


def laplace_residual(sd: SemigroupData, lam, horizon: float = 40.0,
                     transform: str = "semigroup") -> LaplaceCheck:
    """Compare the truncated Laplace transform with the resolvent.

    ``transform="semigroup"`` integrates ``e^{-lam t} T(t)``;
    ``transform="integrated"`` integrates ``lam e^{-lam t} S(t)``.  Both
    quadratures must reproduce ``R(lam, A)``; the truncation tail is
    bounded using ``||T(t)|| <= 1`` (resp. ``||S(t)|| <= t``).
    """
    re = float(np.real(lam))
    if re <= 0:
        raise InvalidInput("Laplace comparison needs Re(lam) > 0")
    if transform == "semigroup":
        bound = math.exp(-re * horizon) / re
    elif transform == "integrated":
        bound = abs(lam) * math.exp(-re * horizon) * (horizon / re + 1.0 / re ** 2)
    else:
        raise InvalidInput(f"unknown transform {transform!r}")
    ts, ws = panel_rule(0.0, horizon, NODES_PER_UNIT)
    integrated = transform == "integrated"
    acc = _weighted_sum(sd, ts, ws * np.exp(-lam * ts), integrated)
    if integrated:
        acc = lam * acc
    target = resolvent(sd.relation, lam).matrix
    return LaplaceCheck(float(np.linalg.norm(acc - target, 2)), bound)


@dataclass(frozen=True)
class MildSolution:
    """Trajectory ``u(t) = S(t) x`` with its verification data."""

    times: np.ndarray
    states: np.ndarray               # shape (len(times), d)
    membership_residuals: np.ndarray  # distance of (int_0^t u, u - t x) to graph
    lipschitz_defect: float           # max ||u(t)-u(s)|| - |t-s| ||x||


def mild_solution(sd: SemigroupData, x, t_grid) -> MildSolution:
    """Evaluate the mild solution with datum ``x`` along ``t_grid``.

    The membership residual certifies ``(integral_0^t u, u(t) - t x)`` as a
    graph element; the integral is accumulated with panel quadrature
    between consecutive grid points (grid must be increasing, start >= 0).
    """
    ts = np.asarray(t_grid, dtype=float)
    states, residuals, defects = _mild_block(sd, np.asarray(x)[:, None], ts)
    return MildSolution(ts, states[..., 0], residuals[:, 0], float(defects[0]))


def _mild_block(sd: SemigroupData, xs, ts: np.ndarray):
    """Mild solutions for every column of the ``(d, c)`` block ``xs`` at once.

    ``S(t)`` is evaluated once per quadrature node and applied to the whole
    block.  Returns the states ``(len(ts), d, c)``, the membership residuals
    ``(len(ts), c)`` and the Lipschitz defects ``(c,)``.
    """
    xs = np.asarray(xs, dtype=np.result_type(sd.projector.dtype, xs.dtype))
    if ts.ndim != 1 or ts.size == 0 or np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise InvalidInput("t_grid must be increasing and nonnegative")
    rules = [panel_rule(a, b, MILD_NODES_PER_UNIT)
             for a, b in zip(np.concatenate([[0.0], ts[:-1]]), ts)]
    nodes = np.concatenate([q for q, _ in rules] + [ts])
    weights = np.concatenate([w for _, w in rules])
    vals = np.concatenate([stack @ xs for stack in _stacks(sd, nodes, integrated=True)])
    states = vals[weights.size:].copy()  # a view would keep every node value alive
    # running integral of u up to each grid time, summed node by node in order
    partial = np.cumsum(weights[:, None, None] * vals[:weights.size], axis=0)
    ends = np.cumsum([q.size for q, _ in rules])
    running = np.concatenate([np.zeros((1,) + xs.shape, dtype=partial.dtype),
                              partial])[ends]
    # one (2d, len(ts)) block of graph pairs per datum
    pairs = np.ascontiguousarray(np.concatenate(
        [running, states - ts[:, None, None] * xs], axis=1).transpose(2, 1, 0))
    residuals = np.linalg.norm(pairs - sd.relation.graph.project(pairs), axis=1).T
    gaps = np.linalg.norm(states[:, None] - states[None, :], axis=2) \
        - np.abs(ts[:, None] - ts[None, :])[..., None] * np.linalg.norm(xs, axis=0)
    defects = np.max(gaps[np.triu_indices(ts.size, 1)], axis=0, initial=0.0)
    return states, residuals, defects


@dataclass(frozen=True)
class WellPosednessVerdict:
    ok: bool
    m_dissipative: bool
    reason: str
    max_membership_residual: float
    lipschitz_defect: float
    witness: Optional[dict] = None


def wellposedness_check(rel: LinearRelation, trial_xs=None,
                        t_grid=None) -> WellPosednessVerdict:
    """Decide well-posedness of ``u' in A u`` via the generation machinery.

    m-dissipative relations produce unique Lipschitz mild solutions (the
    projected evolution is a linear ODE whose propagator is invertible);
    the verdict then records the worst membership and Lipschitz defects on
    the trial set, which must be at most ``WELLPOSED_TOL``.  For
    non-m-dissipative single-valued inputs with a spectral point in the
    open right half-plane, an explicit mild solution violating the
    Lipschitz bound is returned as a witness.
    """
    if t_grid is None:
        t_grid = np.linspace(0.1, 3.0, 10)
    try:
        sd = decompose(rel)
    except NotMDissipative as exc:
        return WellPosednessVerdict(False, False, str(exc), math.nan, math.nan,
                                    _growth_witness(rel, t_grid))
    if trial_xs is None:
        trial_xs = np.eye(rel.state_dim, dtype=sd.projector.dtype)
    xs = np.reshape(np.asarray(trial_xs), (-1, rel.state_dim)).T
    _, residuals, defects = _mild_block(sd, xs, np.asarray(t_grid, dtype=float))
    worst_res = float(np.max(residuals, initial=0.0))
    worst_lip = float(np.max(defects, initial=0.0))
    ok = worst_res <= WELLPOSED_TOL and worst_lip <= WELLPOSED_TOL
    reason = "" if ok else "mild-solution defect exceeded tolerance"
    return WellPosednessVerdict(ok, True, reason, worst_res, worst_lip)


def _growth_witness(rel: LinearRelation, t_grid):
    """Explicit Lipschitz-violating mild solution, when one is easy to exhibit."""
    parts = rel.parts
    if parts.multivalued.dim or parts.domain.dim != rel.state_dim:
        return None
    u, v = rel.blocks()
    coef, *_ = np.linalg.lstsq(u, np.eye(rel.state_dim, dtype=u.dtype), rcond=None)
    mat = v @ coef
    vals, vecs = np.linalg.eig(mat)
    k = int(np.argmax(np.real(vals)))
    if np.real(vals[k]) <= 0:
        return None
    lam, vec = vals[k], vecs[:, k]
    tmax = float(np.max(t_grid))
    ratio = abs((np.exp(lam * tmax) - 1.0) / lam) / tmax  # ||u(t)|| / (t ||x||)
    return {"eigenvalue": complex(lam), "t": tmax, "lipschitz_ratio": float(ratio)}


# -- sectors and holomorphy --------------------------------------------------


@dataclass(frozen=True)
class SectorSpec:
    """Claimed holomorphy sector: half-angle ``alpha`` and bound ``M``."""

    alpha: float
    bound: float = 1.0

    def __post_init__(self):
        if not 0 < self.alpha <= math.pi / 2:
            raise InvalidInput("sector half-angle must lie in (0, pi/2]")
        if self.bound <= 0:
            raise InvalidInput("sector bound must be positive")


@dataclass(frozen=True)
class SectorEvidence:
    passed: bool
    bound_used: float
    worst_norm: float
    worst_lambda: complex
    failures: tuple


def sector_verify(rel: LinearRelation, spec: SectorSpec, eps: float,
                  radii: int = 25, rays: int = 13) -> SectorEvidence:
    """Sample the enlarged sector and test ``||lam R(lam)||_2 <= M / sin(eps)``.

    ``lam`` ranges over log-spaced radii in ``[1e-3, 1e6]`` on rays
    ``|arg lam| <= alpha + pi/2 - eps`` (endpoints included).  Failures
    (points not in the resolvent set, or norms beyond the bound by more
    than ``SECTOR_SLACK``) are collected rather than raised.
    """
    if not 0 < eps < spec.alpha + math.pi / 2:
        raise InvalidInput("eps must lie in (0, alpha + pi/2)")
    theta_max = spec.alpha + math.pi / 2 - eps
    bound = spec.bound / math.sin(eps)
    rs = np.logspace(-3, 6, radii)
    thetas = np.linspace(-theta_max, theta_max, rays)
    worst_norm, worst_lam = -math.inf, complex("nan")
    failures = []
    for th in thetas:
        for r in rs:
            lam = r * complex(math.cos(th), math.sin(th))
            try:
                sample = resolvent(rel, lam)
            except NotInResolventSet as exc:
                failures.append((lam, f"resolvent: {exc}"))
                continue
            norm = float(np.linalg.norm(lam * sample.matrix, 2))
            if norm > worst_norm:
                worst_norm, worst_lam = norm, lam
            if norm > bound + SECTOR_SLACK:
                failures.append((lam, f"norm {norm:.6g} > {bound:.6g}"))
    return SectorEvidence(not failures, bound, worst_norm, worst_lam,
                          tuple(failures))


def certified_sector_angle(sd: SemigroupData) -> float:
    """Holomorphy half-angle from the numerical range of the generator.

    ``h(psi) = lam_max(Herm(e^{i psi} M1))`` is the support function of the
    numerical range ``W(M1)`` (Johnson 1978).  An angle ``psi`` is accepted
    when ``max(h(psi), h(-psi)) <= 1e-12 ||M1||_2``, that is when ``W(M1)``
    lies in the sector ``|arg(-w)| <= pi/2 - psi``.  ``W(M1)`` is convex and
    ``h(0) <= 0``, so the accepted angles form an interval ``[0, alpha]``:
    the result is ``pi/2`` when accepted, else the last angle accepted in
    ``SECTOR_BISECTIONS`` bisection steps on ``[0, pi/2]`` (0 if none).
    """
    m1 = sd.generator_matrix
    if m1.shape[0] == 0:
        return math.pi / 2
    scale = float(np.linalg.norm(m1, 2))
    if scale == 0.0:
        return math.pi / 2

    def accepted(psi):
        rot = np.exp([1j * psi, -1j * psi])[:, None, None] * m1
        herm = (rot + rot.conj().transpose(0, 2, 1)) / 2.0
        return np.max(np.linalg.eigvalsh(herm)[:, -1]) <= 1e-12 * scale

    if accepted(math.pi / 2):
        return math.pi / 2
    lo, hi = 0.0, math.pi / 2
    for _ in range(SECTOR_BISECTIONS):
        mid = (lo + hi) / 2.0
        if accepted(mid):
            lo = mid
        else:
            hi = mid
    return lo


def holomorphic_at(sd: SemigroupData, z) -> np.ndarray:
    """Evaluate ``T(z)`` inside the certified sector.

    A flat array of points gives the stack ``(len(z), d, d)``.
    ``z = 0`` returns the projector.  Points with ``|arg z|`` at or beyond
    the certified angle raise :class:`OutsideSector`.  When the norm of the
    result exceeds the conservative sector bound ``1 + 2 e pi / sin(eps)``
    (``eps`` the distance of ``arg z`` to the certified angle) a warning is
    logged (never raised): that bound is a coarse a-priori estimate and
    exceeding it signals a data problem upstream.
    """
    zs = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(zs)
    moving = flat != 0
    alpha = certified_sector_angle(sd) if moving.any() else math.pi / 2
    args = np.abs(np.angle(flat))
    if np.any(moving & (args >= alpha)):
        arg = float(np.max(args[moving]))
        raise OutsideSector(f"|arg z| = {arg:.6f} >= certified angle {alpha:.6f}")
    out = _evaluate(sd, zs)
    values = out.reshape(flat.shape + out.shape[-2:])
    for zk, arg, value in zip(flat[moving], args[moving], values[moving]):
        soft = 1.0 + 2.0 * math.e * math.pi / math.sin(min(alpha - arg, math.pi / 2))
        norm = float(np.linalg.norm(value, 2))
        if norm > soft:
            log.warning("holomorphic evaluation at z=%s has norm %.3e beyond "
                        "the sector estimate %.3e", complex(zk), norm, soft)
    return out

