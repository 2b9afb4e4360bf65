"""Resolvents of linear relations, with explicit acceptance certificates.

``lambda`` belongs to the resolvent set of a relation ``A`` exactly when
``lambda - A`` is (the graph of) an invertible everywhere-defined operator;
its inverse matrix is the resolvent ``R(lambda, A)``.  Every sample produced
here carries the residual of a direct verification, so downstream code can
trust a sample without re-deriving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentSeries,
    InconsistentTable,
    InvalidInput,
    NotAPseudoResolvent,
    NotInResolventSet,
)
from .relation import LinearRelation
from .subspace import Subspace, null_basis

#: Default bound on the verification residual of an accepted sample.
ACCEPT_TOL = 1e-9
PSEUDO_TOL = 1e-10  # resolvent-identity residual a pseudo-resolvent table may carry


@dataclass(frozen=True)
class ResolventSample:
    """A certified resolvent value.

    ``residual`` is the maximum, over canonical basis vectors ``e_i``, of
    the distance from ``(R e_i, lam * R e_i - e_i)`` to the graph plus the
    backward error of the linear solve for that column (the raw solve
    residual grows like ``|lam|`` even for perfect arithmetic, so it is
    normalized by ``‖lam U - V‖ ‖c‖ + 1``).
    """

    lam: complex
    matrix: np.ndarray
    residual: float


def resolvent(rel: LinearRelation, lam, accept_tol: float = ACCEPT_TOL) -> ResolventSample:
    """Compute ``R(lam, A)`` or raise :class:`NotInResolventSet`.

    The certificate has two stages: ``lam*U - V`` (graph-basis blocks) must
    have full rank ``d`` together with ``dim(graph) == d``, and the
    reconstructed columns must lie on the graph within ``accept_tol``.
    """
    d = rel.state_dim
    u, v = rel.blocks()
    r = rel.dim
    if r != d:
        raise NotInResolventSet(
            lam, reason=f"graph dimension {r} differs from state dimension {d}",
            rank=None)
    m = lam * u - v
    s = np.linalg.svd(m, compute_uv=False)
    rank = 0 if (s.size == 0 or s[0] == 0.0) else int(np.sum(s > rel.rank_tol * s[0]))
    if rank < d:
        raise NotInResolventSet(
            lam, reason=f"rank(lam*U - V) = {rank} < {d}", rank=rank)
    eye = np.eye(d, dtype=m.dtype)
    coef, *_ = np.linalg.lstsq(m, eye, rcond=None)
    rmat = u @ coef
    scale = s[0] * np.linalg.norm(coef, axis=0) + 1.0
    solve_res = np.linalg.norm(m @ coef - eye, axis=0) / scale
    stacked = np.vstack([rmat, lam * rmat - eye])
    proj = rel.graph.basis @ (rel.graph.basis.conj().T @ stacked)
    member_res = np.linalg.norm(stacked - proj, axis=0)
    residual = float(np.max(member_res + solve_res))
    if residual > accept_tol:
        raise NotInResolventSet(
            lam, reason=f"residual {residual:.3e} exceeds {accept_tol:.1e}",
            residual=residual)
    return ResolventSample(complex(lam), rmat, residual)


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

    Requires ``|lam - base.lam| * ||R(base.lam)||_2 < 1``; otherwise the
    series diverges and :class:`DivergentSeries` is raised.  Summation stops
    at the first term of 2-norm below 1e-15, or after 500 terms.
    """
    r0 = base.matrix
    norm0 = float(np.linalg.norm(r0, 2))
    q = abs(lam - base.lam) * norm0
    if q >= 1.0:
        raise DivergentSeries(
            f"|lam - lam0| * ||R(lam0)|| = {q:.3f} >= 1")
    step = (base.lam - lam) * r0  # dtype promotes to complex when needed
    term = np.array(r0, dtype=step.dtype)
    total = term.copy()
    for _ in range(500):
        term = term @ step
        total = total + term
        if np.linalg.norm(term, 2) < 1e-15:
            break
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
    for lam, mat in entries[1:]:
        sample = resolvent(rel, lam)
        err = float(np.linalg.norm(sample.matrix - mat, 2))
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
    for lam in grid:
        try:
            sample = resolvent(rel, lam, accept_tol)
            rows.append(ScanRow(complex(lam), True,
                                float(np.linalg.norm(sample.matrix, 2)),
                                sample.residual))
        except NotInResolventSet as exc:
            res = float(exc.residual) if exc.residual is not None else float("nan")
            rows.append(ScanRow(complex(lam), False, float("nan"), res))
    return rows
