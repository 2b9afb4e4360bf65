"""Linear relations (multivalued linear operators) on ``K^d``.

A relation is any subspace ``A`` of ``K^d x K^d``; a pair ``(x, y)`` in
``A`` means "``y`` is one of the values of ``A`` at ``x``".  Everything an
operator calculus needs — domain/range/kernel/multivalued part, inverse,
adjoint, affine shifts, injectivity and surjectivity moduli — is computed
from an orthonormal basis of the graph, so single-valued operators and
genuinely multivalued relations travel through the same code paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as spla

from .errors import InvalidInput, NotSurjective
from .subspace import RANK_TOL, Subspace, null_basis, orth_basis, gap

__all__ = [
    "LinearRelation",
    "RelationParts",
    "gap_relations",
]


@dataclass(frozen=True)
class RelationParts:
    """The four canonical subspaces attached to a relation."""

    domain: Subspace
    range: Subspace
    kernel: Subspace
    multivalued: Subspace


@dataclass(frozen=True)
class LinearRelation:
    """A linear relation given by an orthonormal basis of its graph.

    Attributes
    ----------
    state_dim : int
        The dimension ``d`` of the underlying space.
    graph : Subspace
        Subspace of ``K^{2d}``; the first ``d`` coordinates are the input
        block, the last ``d`` the output block.
    """

    state_dim: int
    graph: Subspace

    def __post_init__(self):
        if self.graph.ambient_dim != 2 * self.state_dim:
            raise InvalidInput("graph ambient dimension must be 2 * state_dim")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_pairs(xs, ys, rank_tol: float = RANK_TOL) -> "LinearRelation":
        """Span of the pairs ``(xs[:, k], ys[:, k])``."""
        xs = np.atleast_2d(np.asarray(xs))
        ys = np.atleast_2d(np.asarray(ys))
        if xs.shape != ys.shape:
            raise InvalidInput("input and output blocks must have equal shapes")
        d = xs.shape[0]
        return LinearRelation(
            d, Subspace.from_spanning(np.vstack([xs, ys]), 2 * d, rank_tol))

    @staticmethod
    def from_operator(mat) -> "LinearRelation":
        """Graph of a (single-valued, everywhere defined) matrix operator."""
        mat = np.atleast_2d(np.asarray(mat))
        if mat.shape[0] != mat.shape[1]:
            raise InvalidInput("operator matrix must be square")
        d = mat.shape[0]
        return LinearRelation.from_pairs(np.eye(d, dtype=mat.dtype), mat)

    @staticmethod
    def from_graph_subspace(graph: Subspace) -> "LinearRelation":
        if graph.ambient_dim % 2:
            raise InvalidInput("graph ambient dimension must be even")
        return LinearRelation(graph.ambient_dim // 2, graph)

    # -- raw blocks --------------------------------------------------------

    def blocks(self):
        """Input and output blocks ``(U, V)`` of the graph basis."""
        d = self.state_dim
        b = self.graph.basis
        return b[:d], b[d:]

    @property
    def field(self) -> str:
        return self.graph.field

    @property
    def dim(self) -> int:
        """Dimension of the graph subspace."""
        return self.graph.dim

    @property
    def rank_tol(self) -> float:
        return self.graph.rank_tol

    # -- canonical parts ----------------------------------------------------

    @cached_property
    def parts(self) -> RelationParts:
        """Domain, range, kernel and multivalued part.

        The dimensions obey ``dim(domain) + dim(multivalued) = dim(graph)``
        and ``dim(range) + dim(kernel) = dim(graph)``.
        """
        d, tol = self.state_dim, self.rank_tol
        u, v = self.blocks()
        # blocks of an orthonormal graph basis have scale <= 1, so the rank
        # cutoff is pinned to 1: an all-noise block must read as zero
        domain = Subspace(d, orth_basis(u, tol, scale_floor=1.0), tol)
        rng = Subspace(d, orth_basis(v, tol, scale_floor=1.0), tol)
        kernel = Subspace.from_spanning(
            u @ null_basis(v, tol, scale_floor=1.0), d, tol)
        multivalued = Subspace.from_spanning(
            v @ null_basis(u, tol, scale_floor=1.0), d, tol)
        return RelationParts(domain, rng, kernel, multivalued)

    def sample_pairs(self, rng: np.random.Generator, count: int):
        """Draw ``count`` random graph elements; returns ``(X, Y)`` columns."""
        c = rng.standard_normal((self.dim, count))
        if self.field == "complex":
            c = c + 1j * rng.standard_normal((self.dim, count))
        u, v = self.blocks()
        return u @ c, v @ c

    # -- algebra -----------------------------------------------------------

    def inverse(self) -> "LinearRelation":
        """The relation ``{(y, x) : (x, y) in A}`` (always defined)."""
        u, v = self.blocks()
        return LinearRelation(
            self.state_dim,
            Subspace(2 * self.state_dim, np.vstack([v, u]), self.rank_tol))

    def adjoint(self) -> "LinearRelation":
        """Adjoint relation: the orthogonal complement of the flipped graph.

        ``(a, b)`` belongs to the adjoint iff ``<y, a> = <x, b>`` for every
        ``(x, y)`` in the relation; for the graph of a matrix ``M`` this is
        the graph of ``M^H``.
        """
        u, v = self.blocks()
        flipped = np.vstack([v, -u])  # orthonormal columns, no re-orth needed
        basis = null_basis(flipped.conj().T, self.rank_tol)
        return LinearRelation(
            self.state_dim, Subspace(2 * self.state_dim, basis, self.rank_tol))

    def shift(self, lam) -> "LinearRelation":
        """The relation ``lam - A = {(x, lam*x - y)}``."""
        u, v = self.blocks()
        return LinearRelation.from_pairs(u, lam * u - v, self.rank_tol)

    def add_operator(self, mat) -> "LinearRelation":
        """The relation ``A + B = {(x, y + B x)}`` for a matrix ``B``."""
        mat = np.atleast_2d(np.asarray(mat))
        if mat.shape != (self.state_dim, self.state_dim):
            raise InvalidInput("perturbation matrix has wrong shape")
        u, v = self.blocks()
        return LinearRelation.from_pairs(u, v + mat @ u, self.rank_tol)

    def scale_output(self, mult) -> "LinearRelation":
        """The relation ``{(x, m y) : (x, y) in A}`` for a matrix or scalar ``m``."""
        u, v = self.blocks()
        if np.isscalar(mult):
            return LinearRelation.from_pairs(u, mult * v, self.rank_tol)
        mult = np.atleast_2d(np.asarray(mult))
        if mult.shape != (self.state_dim, self.state_dim):
            raise InvalidInput("multiplier matrix has wrong shape")
        return LinearRelation.from_pairs(u, mult @ v, self.rank_tol)

    # -- moduli --------------------------------------------------------------

    def injectivity_modulus(self) -> float:
        """Largest ``alpha`` with ``alpha*||x|| <= ||y||`` for all graph pairs.

        Returns ``math.inf`` when the domain is trivial (no constraints);
        the value is 0 exactly when the kernel is nontrivial.
        """
        u, v = self.blocks()
        r = self.dim
        if r == 0:
            return math.inf
        uu, us, uvh = np.linalg.svd(u, full_matrices=True)
        if us.size == 0 or us[0] <= self.rank_tol:
            return math.inf  # domain is {0}
        ru = int(np.sum(us > self.rank_tol * max(us[0], 1.0)))
        w = uvh[:ru].conj().T          # coefficients reaching the domain
        n = uvh[ru:].conj().T          # coefficients of multivalued directions
        vw = v @ w
        if n.shape[1]:
            qm = orth_basis(v @ n, self.rank_tol, scale_floor=1.0)
            vw = vw - qm @ (qm.conj().T @ vw)
        uw = u @ w
        q, rmat = spla.qr(uw, mode="economic")
        # x = vw @ inv(rmat): solve rmat^T x^T = vw^T (plain transpose)
        xt = spla.solve_triangular(rmat.T, vw.T, lower=True)
        sing = np.linalg.svd(xt.T, compute_uv=False)
        return float(sing[-1])

    def surjectivity_modulus(self) -> float:
        """Injectivity modulus of the adjoint; positive iff surjective."""
        return self.adjoint().injectivity_modulus()

    def surjectivity_radius(self) -> float:
        """Radius of matrix perturbations that provably keep ``A`` surjective.

        Any matrix ``B`` with ``||B||_2`` strictly below the returned value
        keeps ``A + B`` surjective.
        """
        if self.parts.range.dim < self.state_dim:
            raise NotSurjective("relation range is a proper subspace")
        return self.surjectivity_modulus()

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "state_dim": self.state_dim,
            "field": self.field,
            "graph": self.graph.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "LinearRelation":
        try:
            d = int(obj["state_dim"])
            graph = Subspace.from_json(obj["graph"])
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"bad relation JSON: {exc}") from exc
        return LinearRelation(d, graph)

    def __repr__(self):  # pragma: no cover - cosmetic
        p = self.parts
        return (f"LinearRelation(d={self.state_dim}, dim={self.dim}, "
                f"dom={p.domain.dim}, ran={p.range.dim}, "
                f"ker={p.kernel.dim}, mul={p.multivalued.dim})")


def gap_relations(a: LinearRelation, b: LinearRelation) -> float:
    """Gap metric between two relations (gap of their graphs)."""
    if a.state_dim != b.state_dim:
        raise InvalidInput("relations live on different state spaces")
    return gap(a.graph, b.graph)
