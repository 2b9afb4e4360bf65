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

from .errors import InvalidInput, NotSurjective
from .subspace import Subspace, gap, numerical_rank

__all__ = [
    "LinearRelation",
    "RelationParts",
    "gap_relations",
]


@dataclass(frozen=True)
class RelationParts:
    """The four canonical subspaces attached to a relation, and the graph
    coefficients ``C`` of the domain basis ``B1``: ``U C = B1``, so ``(B1, V C)``
    are graph pairs and ``V C`` (modulo ``multivalued``) is the operator part."""

    domain: Subspace
    range: Subspace
    kernel: Subspace
    multivalued: Subspace
    domain_coefficients: np.ndarray


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
    def from_pairs(xs, ys) -> "LinearRelation":
        """Span of the pairs ``(xs[:, k], ys[:, k])``."""
        xs = np.atleast_2d(np.asarray(xs))
        ys = np.atleast_2d(np.asarray(ys))
        if xs.shape != ys.shape:
            raise InvalidInput("input and output blocks must have equal shapes")
        d = xs.shape[0]
        return LinearRelation(
            d, Subspace.from_spanning(np.vstack([xs, ys]), 2 * d))

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

    # -- canonical parts ----------------------------------------------------

    @cached_property
    def parts(self) -> RelationParts:
        """Domain, range, kernel and multivalued part from one full SVD of each
        graph block, ``U = W_U S_U Q_U^H`` and ``V = W_V S_V Q_V^H``.

        Ranks ``r_U`` and ``r_V`` are :func:`numerical_rank` with floor 1 (the
        blocks have scale <= 1, so an all-noise block reads as zero).  dom is
        ``W_U[:, :r_U]``, ran ``W_V[:, :r_V]``, mul ``V Q_U[:, r_U:]`` and ker
        ``U Q_V[:, r_V:]``, orthonormal up to the cut singular values squared as
        ``U^H U + V^H V = I``, so ``dim(domain) + dim(multivalued) = dim(range)
        + dim(kernel) = dim(graph)``; ``C = Q_U[:, :r_U] S_U^{-1}``.
        """
        def split(block):  # column space, its graph coefficients, null space
            w, s, qh = np.linalg.svd(block, full_matrices=True)
            r = numerical_rank(s, 1.0)
            q = qh.conj().T
            return np.ascontiguousarray(w[:, :r]), q[:, :r] / s[:r], q[:, r:]

        d = self.state_dim
        u, v = self.blocks()
        dom, coef, u_null = split(u)
        ran, _, v_null = split(v)
        return RelationParts(Subspace(d, dom), Subspace(d, ran), Subspace(d, u @ v_null),
                             Subspace(d, v @ u_null), coef)

    @cached_property
    def graph_complement(self) -> np.ndarray:
        """Orthonormal basis ``N = [N1; N2]`` of the graph's orthogonal
        complement in ``K^{2d}``: the last ``2d - dim`` columns of a complete
        QR factorization of the graph basis (copied out, so the square
        factor is not kept).

        ``||N^H (x; y)||`` is the distance of a pair to the graph, and
        ``[N2; -N1]`` is a graph basis of the adjoint.
        """
        q = np.linalg.qr(self.graph.basis, mode="complete")[0]
        return np.ascontiguousarray(q[:, self.dim:])

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
            Subspace(2 * self.state_dim, np.vstack([v, u])))

    def adjoint(self) -> "LinearRelation":
        """Adjoint relation: the orthogonal complement of the flipped graph.

        ``(a, b)`` belongs to the adjoint iff ``<y, a> = <x, b>`` for every
        ``(x, y)`` in the relation; for the graph of a matrix ``M`` this is
        the graph of ``M^H``.  Its graph basis ``[N2; -N1]`` comes from the
        cached :attr:`graph_complement`.  The adjoint is built once and
        cached, so every caller shares its :attr:`parts`.
        """
        return self._adjoint

    @cached_property
    def _adjoint(self) -> "LinearRelation":
        d = self.state_dim
        n = self.graph_complement
        return LinearRelation(d, Subspace(2 * d, np.vstack([n[d:], -n[:d]])))

    def shift(self, lam) -> "LinearRelation":
        """The relation ``lam - A = {(x, lam*x - y)}``."""
        u, v = self.blocks()
        return LinearRelation.from_pairs(u, lam * u - v)

    def add_operator(self, mat) -> "LinearRelation":
        """The relation ``A + B = {(x, y + B x)}`` for a matrix ``B``."""
        mat = np.atleast_2d(np.asarray(mat))
        if mat.shape != (self.state_dim, self.state_dim):
            raise InvalidInput("perturbation matrix has wrong shape")
        u, v = self.blocks()
        return LinearRelation.from_pairs(u, v + mat @ u)

    def scale_output(self, mult) -> "LinearRelation":
        """The relation ``{(x, m y) : (x, y) in A}`` for a matrix or scalar ``m``."""
        u, v = self.blocks()
        if np.isscalar(mult):
            return LinearRelation.from_pairs(u, mult * v)
        mult = np.atleast_2d(np.asarray(mult))
        if mult.shape != (self.state_dim, self.state_dim):
            raise InvalidInput("multiplier matrix has wrong shape")
        return LinearRelation.from_pairs(u, mult @ v)

    # -- moduli --------------------------------------------------------------

    def injectivity_modulus(self) -> float:
        """Largest ``alpha`` with ``alpha*||x|| <= ||y||`` for all graph pairs:
        ``sigma_min((I - P_mul) V C)`` with ``C`` from :attr:`parts`, as
        ``||B1 c|| = ||c||``.  Returns ``math.inf`` when the domain is trivial
        (no constraints); the value is 0 exactly when the kernel is nontrivial.
        """
        p = self.parts
        if p.domain.dim == 0:
            return math.inf
        vc = self.blocks()[1] @ p.domain_coefficients
        op = vc - p.multivalued.project(vc)
        return float(np.linalg.svd(op, compute_uv=False)[-1])

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
        except (KeyError, TypeError, ValueError) as exc:
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
