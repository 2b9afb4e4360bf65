"""Resolvents of linear relations, with explicit acceptance certificates.

``lambda`` belongs to the resolvent set of a relation ``A`` exactly when
``lambda - A`` is (the graph of) an invertible everywhere-defined operator;
its inverse matrix is the resolvent ``R(lambda, A)``.  Every sample produced
here carries the residual of a direct verification, so downstream code can
trust a sample without re-deriving it.
"""

from __future__ import annotations

import cmath
import itertools
import logging
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import lstsq as _gelsd

from .errors import (
    DivergentSeries,
    InconsistentTable,
    InvalidInput,
    NotAPseudoResolvent,
    NotInResolventSet,
)
from .relation import LinearRelation
from .subspace import Subspace, null_basis, numerical_rank

#: Default bound on the verification residual of an accepted sample.
ACCEPT_TOL = 1e-9
PSEUDO_TOL = 1e-10  # resolvent-identity residual a pseudo-resolvent table may carry
#: Bound on the entries ``k * d**2`` of one stacked block of ``k`` resolvents.
BLOCK_ENTRIES = 4096
#: :func:`neumann_extend` sums until its tail bound is below ``NEUMANN_TAIL``,
#: and refuses a series that needs more than ``NEUMANN_TERMS`` terms for that.
NEUMANN_TAIL = 1e-15
NEUMANN_TERMS = 500

log = logging.getLogger("relsemi")


@dataclass(frozen=True)
class ResolventSample:
    """A certified resolvent value.

    ``residual`` is the maximum, over canonical basis vectors ``e_i``, of
    the distance from ``(R e_i, lam * R e_i - e_i)`` to the graph plus the
    backward error of the linear solve for that column (the raw solve residual
    grows like ``|lam|`` even for perfect arithmetic, so it is normalized by
    ``‖lam U - V‖ ‖c‖ + 1``, with the norm the solve's own largest singular value).
    The distance is the norm of the pair's coordinates on the cached
    orthonormal complement of the graph
    (:attr:`~relsemi.relation.LinearRelation.graph_complement`), which
    agrees with the projector form ``‖(I - P)(R e_i, lam R e_i - e_i)‖`` to
    round-off, not bit for bit.
    """

    lam: complex
    matrix: np.ndarray
    residual: float


@dataclass(frozen=True)
class ResolventBlock:
    """Consecutive points of a sequence of ``lam``, certified as one stack
    by one least-squares call (:func:`_certify`).

    ``lams`` are the caller's own objects, in order; ``refusals`` holds the
    :class:`NotInResolventSet` each point earned (built, never raised), or
    ``None`` where it was accepted.  ``values``, ``matrices`` and
    ``residuals`` list the accepted points only, in order: ``lam`` as a
    number, the stack ``(a, d, d)`` of ``R(lam)`` and the residuals.
    """

    lams: list
    refusals: list
    values: np.ndarray
    matrices: np.ndarray
    residuals: np.ndarray

    def samples(self) -> list:
        """The accepted points as :class:`ResolventSample`."""
        return [ResolventSample(complex(lam), matrix, float(residual))
                for lam, matrix, residual in zip(self.values, self.matrices, self.residuals)]

    def norms(self) -> np.ndarray:
        """``||R(lam)||_2`` at the accepted points, by one stacked
        ``eigvalsh`` (:func:`_two_norms`)."""
        return _two_norms(self.matrices)

    def scaled_norms(self) -> np.ndarray:
        """``||lam R(lam)||_2`` at the accepted points, by one stacked
        ``eigvalsh`` (:func:`_two_norms`)."""
        return _two_norms(self.values[:, None, None] * self.matrices)


def _two_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, 2, axis=(1, 2))`` as the square root of the largest
    eigenvalue of each Gram matrix ``y^H y``, clamped at 0: one stacked
    ``eigvalsh`` instead of one stacked SVD, equal to round-off of order
    ``d eps`` relative to the norm.  ``y`` is ``x`` scaled exactly by the
    power of two that brings its largest entry into ``[1/2, 1)``, so the
    Gram matrix neither overflows nor underflows."""
    k, d = x.shape[0], x.shape[-1]
    if d == 0:
        return np.zeros(k)
    # a subnormal largest entry keeps the scale 2**1021, which is finite
    exp = np.maximum(np.frexp(np.abs(x).reshape(k, d * d).max(axis=1))[1], -1021)
    y = x * np.ldexp(1.0, -exp)[:, None, None]
    top = np.linalg.eigvalsh(y.conj().transpose(0, 2, 1) @ y)[:, -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), exp)


def _graph_distances(rel: LinearRelation, r: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Distances of the pairs ``(R e_i, lam R e_i - e_i)`` to the graph, for a
    stack ``r`` of ``R`` and its ``lam``: the column norms of the pairs'
    coordinates ``N1^H R + lam N2^H R - N2^H`` on the graph's cached
    orthonormal complement ``N = [N1; N2]``, from one product
    ``[N1^H; N2^H] R``.  Built on ``R`` (not on the solve's coefficients),
    the error is the projector form's, ``eps (1 + ||pair||)``."""
    d = rel.state_dim
    nh = rel.graph_complement.conj().T  # [N1^H, N2^H]
    c = len(nh)
    coords = np.vstack([nh[:, :d], nh[:, d:]]) @ r
    return np.linalg.norm(
        coords[:, :c] + vals[:, None, None] * coords[:, c:] - nh[:, d:], axis=1)


def _gelsd_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(m: np.ndarray, eye: np.ndarray):
    """``np.linalg.lstsq(m[i], eye, rcond=None)`` for every ``i`` in one call.

    The gufunc ``np.linalg.lstsq`` itself calls (LAPACK's gelsd) gets the
    whole ``(k, d, d)`` stack with the same signature, ``rcond`` and error
    mapping, so solutions and singular values are those of one ``lstsq`` per
    matrix, bit for bit.  Returns the solutions and the singular values.
    """
    d = m.shape[-1]
    rhs = eye if d else np.zeros((0, 1))  # LAPACK needs a right-hand side column
    signature = "DDd->Ddid" if np.iscomplexobj(m) else "ddd->ddid"
    with np.errstate(call=_gelsd_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        coef, _, _, s = _gelsd(m, rhs, np.finfo(np.float64).eps * d, signature=signature)
    return coef[..., :d], s


def _residual_refusal(lam, residual: float, accept_tol: float) -> NotInResolventSet:
    return NotInResolventSet(
        lam, reason=f"residual {residual:.3e} exceeds {accept_tol:.1e}", residual=residual)


def _certify(rel: LinearRelation, lams: list, accept_tol: float) -> ResolventBlock:
    """One block: one stacked gelsd call (:func:`_lstsq_stack`) gives every
    point's rank, solve and scale; :func:`_graph_distances` gives the
    membership residuals.  The rank is relative to the point's largest
    singular value floored at 1, the scale of the orthonormal graph blocks
    (as in :attr:`LinearRelation.parts`): a ``d = 1`` point has no smaller
    singular value to compare.  A floor at the upper bound
    ``sqrt(|lam|^2 + 1)`` of ``||lam U - V||_2`` would refuse stiff points,
    where ``||U||`` and so ``||lam U - V||`` are far below that bound."""
    d = rel.state_dim
    u, v = rel.blocks()
    vals = np.asarray(lams)
    if rel.dim != d:
        reason = f"graph dimension {rel.dim} differs from state dimension {d}"
        refusals = [NotInResolventSet(lam, reason=reason, rank=None) for lam in lams]
        return ResolventBlock(lams, refusals, vals[:0], np.empty((0, d, d)), np.empty(0))
    refusals = [None] * len(lams)
    m = vals[:, None, None] * u - v
    eye = np.eye(d, dtype=m.dtype)
    coef, s = _lstsq_stack(m, eye)
    rank = numerical_rank(s, 1.0)
    for i in np.flatnonzero(rank < d):
        refusals[i] = NotInResolventSet(
            lams[i], reason=f"rank(lam*U - V) = {rank[i]} < {d}", rank=int(rank[i]))
    full = np.flatnonzero(rank == d)
    coef = coef[full]
    rmat = u @ coef
    scale = s[full, :1] * np.linalg.norm(coef, axis=1) + 1.0
    solve_res = np.linalg.norm(m[full] @ coef - eye, axis=1) / scale
    member_res = _graph_distances(rel, rmat, vals[full])
    residual = np.max(member_res + solve_res, axis=1, initial=0.0)  # d = 0: no columns
    over = residual > accept_tol
    for j in np.flatnonzero(over):
        refusals[full[j]] = _residual_refusal(lams[full[j]], float(residual[j]), accept_tol)
    return ResolventBlock(lams, refusals, vals[full[~over]], rmat[~over], residual[~over])


def _is_complex(lam) -> bool:
    return isinstance(lam, (complex, np.complexfloating))


def resolvent_points(rel: LinearRelation, lams, reduce, accept_tol: float = ACCEPT_TOL):
    """Certify ``R(lam, A)`` on a flat sequence of ``lam``, block by block.

    Returns ``(lam, refusal, kept)`` for every point in order: ``refusal``
    is the :class:`NotInResolventSet` the point earned (``kept`` is then
    ``None``), else ``None``, and ``kept`` is the point's entry of
    ``reduce(block)``, a sequence with one entry per accepted point of the
    :class:`ResolventBlock`.  Each block stacks at most ``BLOCK_ENTRIES //
    d**2`` points (at least one) and is reduced before the next one is
    evaluated, so only one block's matrices are held at a time; a block
    costs one stacked least-squares call (:func:`_certify`).  Real and
    complex points never share a block, so every point gets the arithmetic
    it gets alone: real points on a real relation stay real.  A NaN or
    infinite ``lam`` raises :class:`InvalidInput` before any point is solved.
    """
    lams = list(lams)
    for lam in lams:
        if not cmath.isfinite(lam):
            raise InvalidInput(f"lambda={lam!r} is not finite")
    step = max(1, BLOCK_ENTRIES // max(rel.state_dim ** 2, 1))
    points, blocks = [], 0
    for _, run in itertools.groupby(lams, key=_is_complex):
        run = list(run)
        for start in range(0, len(run), step):
            block = _certify(rel, run[start:start + step], accept_tol)
            blocks += 1
            kept = iter(reduce(block))
            points += [(lam, refusal, None if refusal is not None else next(kept))
                       for lam, refusal in zip(block.lams, block.refusals)]
    log.debug("resolvent_stack lams=%d blocks=%d refused=%d", len(lams), blocks,
              sum(refusal is not None for _, refusal, _ in points))
    return points


def accepted(points) -> list:
    """The ``kept`` entries of :func:`resolvent_points`; the first refusal raises."""
    for _, refusal, _ in points:
        if refusal is not None:
            raise refusal
    return [kept for _, _, kept in points]


def resolvent(rel: LinearRelation, lam, accept_tol: float = ACCEPT_TOL) -> ResolventSample:
    """Compute ``R(lam, A)`` or raise :class:`NotInResolventSet`.

    The certificate has two stages: ``lam*U - V`` (graph-basis blocks) must
    have full rank ``d`` together with ``dim(graph) == d``, and the
    reconstructed columns must lie on the graph within ``accept_tol``.
    Many points are certified together by :func:`resolvent_points`.
    """
    if np.ndim(lam):
        raise InvalidInput("resolvent takes one lam; resolvent_points takes many")
    [sample] = accepted(resolvent_points(rel, [lam], ResolventBlock.samples, accept_tol))
    return sample


def in_resolvent_set(rel: LinearRelation, lam) -> bool:
    try:
        resolvent(rel, lam)
        return True
    except NotInResolventSet:
        return False


def resolvent_identity_residual(s1: ResolventSample, s2: ResolventSample) -> float:
    """Spectral norm of ``R(lam) - R(mu) - (mu - lam) R(lam) R(mu)``."""
    diff = s1.matrix - s2.matrix - (s2.lam - s1.lam) * (s1.matrix @ s2.matrix)
    return float(np.linalg.norm(diff, 2))


def neumann_extend(base: ResolventSample, lam) -> np.ndarray:
    """Resolvent at ``lam`` by the series around ``base.lam``.

    With ``q = |lam - base.lam| * ||R(base.lam)||_2`` the terms after the
    ``k``-th sum to at most ``||R(base.lam)||_2 q^(k+1) / (1 - q)`` in 2-norm;
    summation stops once that tail bound is below ``NEUMANN_TAIL``.  When
    ``q >= 1``, or when ``NEUMANN_TERMS`` terms cannot meet the bound,
    :class:`DivergentSeries` is raised before any term is summed.
    """
    r0 = base.matrix
    norm0 = float(np.linalg.norm(r0, 2))
    q = abs(lam - base.lam) * norm0
    if q >= 1.0:
        raise DivergentSeries(
            f"|lam - lam0| * ||R(lam0)|| = {q:.3f} >= 1")
    terms, tail = 0, norm0 * q / (1.0 - q)
    while tail >= NEUMANN_TAIL:
        if terms == NEUMANN_TERMS:
            raise DivergentSeries(
                f"|lam - lam0| * ||R(lam0)|| = {q:.6f}: {NEUMANN_TERMS} terms leave "
                f"a tail bound above {NEUMANN_TAIL:.0e}")
        terms, tail = terms + 1, tail * q
    step = (base.lam - lam) * r0  # dtype promotes to complex when needed
    term = np.array(r0, dtype=step.dtype)
    total = term.copy()
    for _ in range(terms):
        term = term @ step
        total = total + term
    return total


def relation_from_resolvent(lam0, q: np.ndarray) -> LinearRelation:
    """The unique relation with ``lam0`` in its resolvent set and resolvent ``q``.

    Its graph is ``{(q u, lam0 * q u - u) : u in K^d}``.
    """
    q = np.atleast_2d(np.asarray(q))
    if q.shape[0] != q.shape[1]:
        raise InvalidInput("resolvent matrix must be square")
    d = q.shape[0]
    eye = np.eye(d, dtype=q.dtype)
    return LinearRelation.from_pairs(q, lam0 * q - eye)


def mul_from_resolvent(sample: ResolventSample) -> Subspace:
    """Multivalued part recovered as the nullspace of a resolvent value."""
    return Subspace(sample.matrix.shape[0], null_basis(sample.matrix))


def relation_from_pseudo_resolvent(table) -> LinearRelation:
    """Reconstruct a relation from a table of pseudo-resolvent samples.

    ``table`` is a sequence of ``(lam, matrix)`` pairs (ResolventSample
    works too).  Every pair of entries must satisfy the resolvent identity
    within ``PSEUDO_TOL``; the relation built from the first entry must then
    reproduce all others within ``10 * PSEUDO_TOL``.
    """
    entries = []
    for item in table:
        if isinstance(item, ResolventSample):
            entries.append((item.lam, np.asarray(item.matrix)))
        else:
            lam, mat = item
            entries.append((lam, np.atleast_2d(np.asarray(mat))))
    if not entries:
        raise InvalidInput("pseudo-resolvent table is empty")
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            li, ri = entries[i]
            lj, rj = entries[j]
            res = float(np.linalg.norm(ri - rj - (lj - li) * (ri @ rj), 2))
            if res > PSEUDO_TOL:
                raise NotAPseudoResolvent((li, lj), res)
    lam0, r0 = entries[0]
    rel = relation_from_resolvent(lam0, r0)
    later = entries[1:]
    points = resolvent_points(rel, [lam for lam, _ in later],
                              lambda block: block.matrices)
    for (lam, mat), (_, refusal, matrix) in zip(later, points):
        if refusal is not None:
            raise refusal
        err = float(np.linalg.norm(matrix - mat, 2))
        if err > 10 * PSEUDO_TOL:
            raise InconsistentTable(lam, err)
    return rel


@dataclass(frozen=True)
class ScanRow:
    lam: complex
    in_set: bool
    norm: float
    residual: float


def resolvent_set_scan(rel: LinearRelation, grid, accept_tol: float = ACCEPT_TOL):
    """Classify each grid point; rows are CSV-ready in grid order."""
    rows = []
    points = resolvent_points(rel, grid, lambda block: zip(block.norms(), block.residuals),
                              accept_tol)
    for lam, refusal, kept in points:
        if refusal is None:
            norm, residual = kept
            rows.append(ScanRow(complex(lam), True, float(norm), float(residual)))
        else:
            res = float(refusal.residual) if refusal.residual is not None else float("nan")
            rows.append(ScanRow(complex(lam), False, float("nan"), res))
    return rows
