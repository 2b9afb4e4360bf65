"""Degenerate semigroups generated by m-dissipative relations.

An m-dissipative relation ``A`` on ``K^d`` splits the space into its
(closed) domain ``X1`` and the orthogonal multivalued part ``X0``; the
operator part of ``A`` acts on ``X1`` as a matrix ``M1``.  The semigroup is
``T(t) = embed(exp(t M1)) P`` with ``P`` the orthogonal projection onto
``X1`` — a *degenerate* semigroup: ``T(0) = P`` rather than the identity.
Its primitive ``S(t) = integral_0^t T`` is the once-integrated semigroup
that carries the mild solutions of ``u' in A u``; its primitive ``V(t)`` is
``embed(t^2 phi2(t M1)) P``, with ``phi_k(Z) = sum_j Z^j / (j + k)!``.
Every integral the checks need (mild solutions, the truncated Laplace
transforms of ``T`` and ``S``, the window of the integrated composition
law) is a block of the exponential of an augmented matrix (Van Loan 1978),
so no check uses quadrature.  The Laplace transforms, the composition-law
window and the evaluators take one ``expm`` per point; mild solutions
propagate ``E(t + h) = E(t) e^{hB}`` along their grid with one ``expm`` per
distinct time step (:func:`_grid_primitives`).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg as spla

from .dissipative import CERT_TOL, MDissipativityDecision, decide_m_dissipative
from .errors import (
    DecompositionFailure,
    InvalidInput,
    NotMDissipative,
    OutsideSector,
)
from .relation import LinearRelation
from .spectral import ResolventBlock, resolvent, resolvent_points
from .subspace import ORTHO_TOL

log = logging.getLogger("relsemi")

WELLPOSED_TOL = 1e-8      # largest mild-solution defect of a well-posed verdict
WELLPOSED_GRID = np.linspace(0.1, 3.0, 10)  # times of wellposedness_check's mild solutions
SECTOR_SLACK = 1e-8       # slack of sector_verify's and holomorphic_at's norm bounds
SECTOR_BISECTIONS = 40    # certified_sector_angle steps: (pi/2) / 2**40 = 1.4e-12 rad
NON_FINITE_TIME = "semigroup times must be finite"


@dataclass(frozen=True)
class SemigroupData:
    """Decomposition of an m-dissipative relation for evaluation.

    ``projector`` is the orthogonal projection ``P = B1 B1^H`` onto the
    domain (``B1`` is ``domain_basis``, orthogonal to ``null_basis``) and
    ``generator_matrix`` is ``M1`` in the coordinates of ``B1``, so
    ``T(t) = B1 exp(t M1) B1^H``.  ``P`` is formed on first use, so a
    decomposition that never needs it does not hold a ``d x d`` matrix.
    ``evidence`` is the m-dissipativity decision
    (:func:`~relsemi.dissipative.decide_m_dissipative`), not sampled
    evidence: the form certificate and the theorem's bound on ``||lam
    R(lam)||_2`` for ``lam > 0`` (``resolvent_bound``).
    """

    relation: LinearRelation
    domain_basis: np.ndarray
    null_basis: np.ndarray
    generator_matrix: np.ndarray
    evidence: MDissipativityDecision

    @property
    def state_dim(self) -> int:
        return self.relation.state_dim

    @property
    def domain_dim(self) -> int:
        return self.domain_basis.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        return self.domain_basis @ self.domain_basis.conj().T

    @cached_property
    def sector_angle(self) -> float:
        """:func:`certified_sector_angle`, computed once per decomposition."""
        return certified_sector_angle(self)


def decompose(rel: LinearRelation) -> SemigroupData:
    """Split the state space and extract the generator matrix.

    m-dissipativity is decided, not sampled: by
    :func:`~relsemi.dissipative.decide_m_dissipative` (the ``l2`` form
    certificate, the graph dimension and the closed-form resolvent bound,
    with no resolvent solve), whose refusal raises :class:`NotMDissipative`
    with its failure text.  ``Re <y + t v, x> <= 0`` for all ``t`` makes
    ``mul A`` orthogonal to ``dom A`` (Lumer and Phillips 1961), so a lean
    ``||B1^H B0||_2`` past ``100 * ORTHO_TOL`` raises it too, unless the rank
    decision cut a singular value ``s = ||U V^H B0||_2 > dim eps`` of ``U``
    into ``mul A``: ``Herm(V^H U) <= 0`` then allows ``(sqrt(2 s) + s) /
    sigma_k``, with ``sigma_k >= 1 / ||C||_F`` the least kept one, at that
    error in ``T``.  ``C`` comes from :attr:`LinearRelation.parts`.  Raises
    :class:`DecompositionFailure` when ``U C`` misses ``B1`` or ``M1`` is not
    dissipative (safety checks; neither happens on consistent data).
    """
    ev = decide_m_dissipative(rel)
    log.debug("m_dissipative witness=%.3e bound=%.17g", ev.certificate.witness,
              ev.resolvent_bound(1.0))
    if not ev.ok:
        raise NotMDissipative(ev.failure)
    parts = rel.parts
    b1, b0 = parts.domain.basis, parts.multivalued.basis
    # operator part: (b1_j, y) = (U, V) C is in A; M1 is the X1 component of y
    u, v = rel.blocks()
    if b1.shape[1]:
        coef = parts.domain_coefficients
        if np.linalg.norm(u @ coef - b1) > 1e-8:
            raise DecompositionFailure("domain basis is not reachable in the graph")
        defect = float(np.linalg.norm(b1.conj().T @ b0, 2)) if b0.shape[1] else 0.0
        allowed = 100 * ORTHO_TOL
        s = float(np.linalg.norm(u @ (v.conj().T @ b0), 2)) if defect > allowed else 0.0
        if s > rel.dim * np.finfo(np.float64).eps:  # a singular value of U cut into mul A
            allowed = max(allowed, (math.sqrt(2.0 * s) + s) * float(np.linalg.norm(coef)))
        if defect > allowed:
            raise NotMDissipative(f"multivalued part is not orthogonal to the domain "
                                  f"(||B1^H B0||_2 = {defect:.3e} > {allowed:.3e})")
        m1 = b1.conj().T @ (v @ coef)
        herm_top = float(np.linalg.eigvalsh((m1 + m1.conj().T) / 2.0)[-1])
        if herm_top > 10 * CERT_TOL:
            raise DecompositionFailure(
                f"operator part is not dissipative (Herm top {herm_top:.2e})")
    else:
        m1 = np.zeros((0, 0), dtype=b1.dtype)
    return SemigroupData(rel, b1, b0, m1, ev)


def _phis(z: np.ndarray, k: int) -> list:
    """``[e^Z, phi1(Z), ..., phi_k(Z)]`` for a stack ``z`` of shape ``(..., n, n)``.

    The top block row of ``expm`` of the ``(k + 1) n``-square matrix with
    ``Z`` in the corner and identities on the block superdiagonal (Van Loan
    1978), so singular ``Z`` needs no case.
    """
    n = z.shape[-1]
    if n == 0:  # an empty domain: no expm call
        return [z.copy() for _ in range(k + 1)]
    size = (k + 1) * n
    aug = np.zeros(z.shape[:-2] + (size, size), dtype=np.result_type(z.dtype, float))
    aug[..., :n, :n] = z
    for j in range(k):
        aug[..., j * n:(j + 1) * n, (j + 1) * n:(j + 2) * n] = np.eye(n)
    top = spla.expm(aug)[..., :n, :]
    return [top[..., j * n:(j + 1) * n] for j in range(k + 1)]


def phi1(z: np.ndarray) -> np.ndarray:
    """Entire function ``phi1(Z) = Z^{-1} (e^Z - I)``, singularities removed."""
    return _phis(z, 1)[1]


def _require_finite(values: np.ndarray, reason: str):
    """Raise :class:`InvalidInput` unless every entry (both parts of a complex
    one) is finite."""
    if not np.all(np.isfinite(values)):
        raise InvalidInput(reason)


def _grid_primitives(m1: np.ndarray, ts: np.ndarray):
    """``S(t)`` and ``V(t)`` of ``M1`` (unembedded) at every time of the
    increasing grid ``ts``, as stacks ``(len(ts), n, n)``.

    ``E(t) = e^{tB}`` with ``B = [[M1, I, 0], [0, 0, I], [0, 0, 0]]`` has the
    top block row ``[T(t), S(t), V(t)]`` and obeys ``E(t + h) = E(t) e^{hB}``,
    so that row is propagated from ``[I, 0, 0]`` at ``t = 0`` by one product
    per grid time.  The steps ``diff(ts, prepend=0)`` are grouped by exact
    float value and each distinct nonzero step takes one ``3n``-square matrix
    of one stacked ``expm`` call; the count of those matrices is returned
    third.  Each product adds a rounding error of about ``eps ||e^{hB}||``,
    so the error grows linearly in the number of steps; the membership
    residual of the mild solution measures it a posteriori.  A grid on which
    ``S`` or ``V`` overflows raises :class:`InvalidInput`.
    """
    n = m1.shape[0]
    hs, which = np.unique(np.diff(ts, prepend=0.0), return_inverse=True)
    gen = np.zeros((3 * n, 3 * n), dtype=np.result_type(m1.dtype, float))
    gen[:n, :n] = m1
    gen[:n, n:2 * n] = gen[n:2 * n, 2 * n:] = np.eye(n)
    props = np.empty((hs.size,) + gen.shape, dtype=gen.dtype)
    props[hs == 0] = np.eye(3 * n)  # a grid starting at t = 0 steps by nothing
    rows = np.empty((ts.size, n, 3 * n), dtype=gen.dtype)
    row = np.eye(n, 3 * n, dtype=gen.dtype)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        if n and hs[-1] > 0:  # an empty domain: no expm call
            props[hs > 0] = spla.expm(hs[hs > 0, None, None] * gen)
        for k, j in enumerate(which):
            row = rows[k] = row @ props[j]
    _require_finite(rows, "S(t) or V(t) overflows on t_grid")
    return rows[..., n:2 * n], rows[..., 2 * n:], int(np.count_nonzero(hs)) if n else 0


def _evaluate(sd: SemigroupData, zs: np.ndarray, integrated: bool = False) -> np.ndarray:
    """``T(z)``, or ``S(z)`` when ``integrated``, from one stacked ``expm``.

    A scalar ``zs`` gives one matrix.  Complex points are checked against
    the sector by :func:`holomorphic_at`.
    """
    if zs.ndim > 1 or zs.size == 0:
        raise InvalidInput("times must be a scalar or a non-empty flat array")
    _require_finite(zs, NON_FINITE_TIME)
    if not np.iscomplexobj(zs) and np.any(zs < 0):
        raise InvalidInput("semigroup time must be nonnegative")
    z = np.atleast_1d(zs)[:, None, None]
    m1 = sd.generator_matrix
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        # real-times-complex products round once wherever z sits in the stack;
        # a complex multiply's vector body and scalar tail round differently
        scaled = z.real * m1 + z.imag * (1j * m1) if np.iscomplexobj(z) else z * m1
        core = _phis(scaled, int(integrated))[-1]
        if integrated:
            core = z * core
    _require_finite(core, "the evaluation overflows at these times")
    out = sd.domain_basis @ core @ sd.domain_basis.conj().T
    return out if zs.ndim else out[0]


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


@dataclass(frozen=True)
class FunctionalEquationCheck:
    """Residuals of the two orderings of the integrated composition law.

    ``residual`` compares ``S(t) S(s)`` and ``residual_swapped`` compares
    ``S(s) S(t)`` with the window ``integral_t^{t+s} S - integral_0^s S``.
    In closed form the swapped window ``integral_s^{t+s} S - integral_0^t S``
    is the same expression, ``V(t+s) - V(t) - V(s)``, so both products meet
    one window.  Both vanish in exact arithmetic, so both are reported and
    tested.
    """

    residual: float
    residual_swapped: float


def functional_equation_residual(sd: SemigroupData, t: float,
                                 s: float) -> FunctionalEquationCheck:
    """Check ``S(t) S(s) = integral_t^{t+s} S - integral_0^s S``.

    ``S = z phi1(z M1)`` and its primitive ``V = z^2 phi2(z M1)`` (both
    embedded) at ``z = t, s, t + s`` come from one stacked ``expm``, so the
    window ``V(t+s) - V(t) - V(s)`` carries no quadrature error.
    """
    z = np.array([t, s, t + s], dtype=float)[:, None, None]
    _require_finite(z, NON_FINITE_TIME)
    if min(t, s) < 0:
        raise InvalidInput("semigroup time must be nonnegative")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        _, p1, p2 = _phis(z * sd.generator_matrix, 2)
        s_z, v_z = z * p1, z * z * p2
    _require_finite((s_z, v_z), "S or V overflows at these times")
    s_t, s_s, _ = sd.domain_basis @ s_z @ sd.domain_basis.conj().T
    v_t, v_s, v_ts = sd.domain_basis @ v_z @ sd.domain_basis.conj().T
    window = v_ts - v_t - v_s
    log.debug("functional_equation matrices=3 size=%d", 3 * sd.domain_dim)
    return FunctionalEquationCheck(
        float(np.linalg.norm(s_t @ s_s - window, 2)),
        float(np.linalg.norm(s_s @ s_t - window, 2)))


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

    ``transform="semigroup"`` integrates ``e^{-lam t} T(t)`` over
    ``[0, horizon]``: that is ``embed(H phi1(H (M1 - lam I))) P`` with
    ``H = horizon``.  ``transform="integrated"`` integrates
    ``lam e^{-lam t} S(t)``: with ``B = [[M1, I], [0, 0]] - lam I`` the
    matrix ``e^{tB}`` carries ``e^{-lam t} S(t)`` (unembedded) in its
    top-right block, so the integral is that block of ``H phi1(H B)``.
    Either is one ``expm`` of an augmented matrix, with no quadrature error.
    Both must reproduce ``R(lam, A)``, certified by
    :func:`~relsemi.spectral.resolvent`, which raises where it refuses; the
    truncation tail is bounded using ``||T(t)|| <= 1`` (resp.
    ``||S(t)|| <= t``), exact as ``P`` is orthogonal.
    """
    re = float(np.real(lam))
    if re <= 0:
        raise InvalidInput("Laplace comparison needs Re(lam) > 0")
    if not 0 <= horizon < math.inf:
        raise InvalidInput("Laplace horizon must be finite and nonnegative")
    if transform == "semigroup":
        bound = math.exp(-re * horizon) / re
        gen = sd.generator_matrix
    elif transform == "integrated":
        bound = abs(lam) * math.exp(-re * horizon) * (horizon / re + 1.0 / re ** 2)
        n = sd.domain_dim
        gen = np.zeros((2 * n, 2 * n), dtype=sd.generator_matrix.dtype)
        gen[:n, :n] = sd.generator_matrix
        gen[:n, n:] = np.eye(n)
    else:
        raise InvalidInput(f"unknown transform {transform!r}")
    size = gen.shape[0]
    gen = gen - lam * np.eye(size)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        core = horizon * _phis(horizon * gen, 1)[1][:sd.domain_dim, size - sd.domain_dim:]
    _require_finite(core, "the transform overflows at this horizon")
    acc = sd.domain_basis @ core @ sd.domain_basis.conj().T
    if transform == "integrated":
        acc = lam * acc
    log.debug("laplace transform=%s matrices=1 size=%d", transform, 2 * size)
    target = resolvent(sd.relation, lam).matrix
    return LaplaceCheck(float(np.linalg.norm(acc - target, 2)), bound)


@dataclass(frozen=True)
class MildSolution:
    """Trajectory ``u(t) = S(t) x`` with its verification data."""

    times: np.ndarray
    states: np.ndarray               # shape (len(times), d)
    membership_residuals: np.ndarray  # distance of (V(t) x, u - t x) to graph
    lipschitz_defect: float           # max ||u(t)-u(s)|| - |t-s| ||x||


def mild_solution(sd: SemigroupData, x, t_grid) -> MildSolution:
    """Evaluate the mild solution with datum ``x`` along ``t_grid``.

    The membership residual certifies ``(integral_0^t u, u(t) - t x)`` as a
    graph element; the integral is ``V(t) x`` in closed form, so it carries
    no quadrature error (grid must be finite and increasing, start >= 0).
    """
    ts = np.asarray(t_grid, dtype=float)
    states, residuals, defects = _mild_block(sd, np.asarray(x)[:, None], ts)
    return MildSolution(ts, states[..., 0], residuals[:, 0], float(defects[0]))


def _mild_block(sd: SemigroupData, xs, ts: np.ndarray):
    """Mild solutions for every column of the ``(d, c)`` block ``xs`` at once.

    ``S(t)`` and ``V(t)`` come from :func:`_grid_primitives`, one
    ``3 dim(dom)``-square ``expm`` per distinct time step, applied to the
    whole block.  Returns the states ``(len(ts), d, c)``, the membership
    residuals ``(len(ts), c)`` and the Lipschitz defects ``(c,)``.
    """
    xs = np.asarray(xs, dtype=np.result_type(sd.domain_basis.dtype, xs.dtype))
    if ts.ndim != 1 or ts.size == 0:
        raise InvalidInput("t_grid must be a non-empty flat array")
    _require_finite(ts, NON_FINITE_TIME)
    if np.any(np.diff(ts) <= 0) or ts[0] < 0:
        raise InvalidInput("t_grid must be increasing and nonnegative")
    s_t, v_t, matrices = _grid_primitives(sd.generator_matrix, ts)
    states = sd.domain_basis @ s_t @ sd.domain_basis.conj().T @ xs
    running = sd.domain_basis @ v_t @ sd.domain_basis.conj().T @ xs  # V(t) x
    log.debug("mild_block times=%d columns=%d matrices=%d",
              ts.size, xs.shape[1], matrices)
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


def wellposedness_check(rel: LinearRelation) -> WellPosednessVerdict:
    """Decide well-posedness of ``u' in A u`` via the generation machinery.

    m-dissipative relations produce unique Lipschitz mild solutions (the
    projected evolution is a linear ODE whose propagator is invertible);
    the verdict then records the worst membership and Lipschitz defects of
    the mild solutions from the canonical basis on ``WELLPOSED_GRID``,
    which must be at most ``WELLPOSED_TOL``.  For
    non-m-dissipative single-valued inputs with a spectral point in the
    open right half-plane, an explicit mild solution violating the
    Lipschitz bound is returned as a witness.
    """
    try:
        sd = decompose(rel)
    except NotMDissipative as exc:
        return WellPosednessVerdict(False, False, str(exc), math.nan, math.nan,
                                    _growth_witness(rel))
    xs = np.eye(rel.state_dim, dtype=sd.domain_basis.dtype)
    _, residuals, defects = _mild_block(sd, xs, WELLPOSED_GRID)
    worst_res = float(np.max(residuals, initial=0.0))
    worst_lip = float(np.max(defects, initial=0.0))
    ok = worst_res <= WELLPOSED_TOL and worst_lip <= WELLPOSED_TOL
    reason = "" if ok else "mild-solution defect exceeded tolerance"
    return WellPosednessVerdict(ok, True, reason, worst_res, worst_lip)


def _growth_witness(rel: LinearRelation):
    """Explicit Lipschitz-violating mild solution, when one is easy to exhibit."""
    parts = rel.parts
    if parts.multivalued.dim or parts.domain.dim != rel.state_dim:
        return None
    # A = V C B1^H on K^d = dom A, similar to B1^H V C
    vals = np.linalg.eigvals(parts.domain.basis.conj().T
                             @ (rel.blocks()[1] @ parts.domain_coefficients))
    k = int(np.argmax(np.real(vals)))
    if np.real(vals[k]) <= 0:
        return None
    lam = vals[k]
    tmax = float(WELLPOSED_GRID[-1])
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

    ``lam`` ranges over ``radii`` log-spaced radii in ``[1e-3, 1e6]`` on
    ``rays`` rays ``|arg lam| <= alpha + pi/2 - eps`` (endpoints included,
    so both counts are integers >= 2).  Failures (points not in the
    resolvent set, or norms beyond the bound by more than ``SECTOR_SLACK``)
    are collected rather than raised.
    """
    if not 0 < eps < spec.alpha + math.pi / 2:
        raise InvalidInput("eps must lie in (0, alpha + pi/2)")
    for name, count in (("radii", radii), ("rays", rays)):
        if not isinstance(count, numbers.Integral) or count < 2:
            raise InvalidInput(f"{name} must be an integer >= 2, got {count!r}")
    theta_max = spec.alpha + math.pi / 2 - eps
    bound = spec.bound / math.sin(eps)
    rs = np.logspace(-3, 6, radii)
    thetas = np.linspace(-theta_max, theta_max, rays)
    lams = [r * complex(math.cos(th), math.sin(th)) for th in thetas for r in rs]
    worst_norm, worst_lam = -math.inf, complex("nan")
    failures = []
    for lam, refusal, norm in resolvent_points(rel, lams, ResolventBlock.scaled_norms):
        if refusal is not None:
            failures.append((lam, f"resolvent: {refusal}"))
            continue
        norm = float(norm)
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

    A flat array of points gives the stack ``(len(z), d, d)``.  Points on
    the nonnegative real axis are times of the semigroup and need no
    sector (``z = 0`` returns the projector); the certified angle is
    computed only when some point lies off that half-line, and a point with
    ``|arg z|`` at or beyond it (a negative real ``z`` among them) raises
    :class:`OutsideSector`.  Inside the certified sector the numerical
    range of ``e^{i arg z} M1`` lies in the closed left half-plane (up to
    the certificate's ``1e-12 ||M1||_2``) and ``B1`` is orthonormal, so
    ``||T(z)||_2 = ||e^{z M1}||_2 <= 1``; an off-axis norm above
    ``1 + SECTOR_SLACK`` is logged as a warning (never raised): it signals
    a data problem upstream.
    """
    zs = np.asarray(z, dtype=complex)
    _require_finite(zs, NON_FINITE_TIME)
    flat = np.atleast_1d(zs)
    off_axis = (flat.imag != 0) | (flat.real < 0)
    args = np.abs(np.angle(flat))
    alpha = sd.sector_angle if off_axis.any() else math.pi / 2
    if np.any(off_axis & (args >= alpha)):
        arg = float(np.max(args[off_axis]))
        raise OutsideSector(f"|arg z| = {arg:.6f} >= certified angle {alpha:.6f}")
    out = _evaluate(sd, zs)
    values = out.reshape(flat.shape + out.shape[-2:])
    for zk, value in zip(flat[off_axis], values[off_axis]):
        norm = float(np.linalg.norm(value, 2))
        if norm > 1.0 + SECTOR_SLACK:
            log.warning("holomorphic evaluation at z=%s has norm %.3e beyond "
                        "the contraction bound 1", complex(zk), norm)
    return out
