"""Seeded random generators for matrices and relations.

These are part of the public API because acceptance batteries and user
experiments need reproducible instances.  All functions take an explicit
``numpy.random.Generator`` — no global RNG state is touched.
"""

from __future__ import annotations

import numpy as np

from .relation import LinearRelation
from .subspace import Subspace

__all__ = [
    "random_matrix",
    "random_unitary",
    "random_relation",
    "random_m_dissipative",
    "random_dissipative_surjective",
    "random_dissipative_nonmaximal",
]


def random_matrix(rng: np.random.Generator, rows: int, cols: int, field: str = "real"):
    a = rng.standard_normal((rows, cols))
    if field == "complex":
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


def random_unitary(rng: np.random.Generator, n: int, field: str = "real"):
    """Haar-ish unitary via QR with a positive-diagonal normalization."""
    q, r = np.linalg.qr(random_matrix(rng, n, n, field))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def random_relation(rng: np.random.Generator, d: int, field: str = "real",
                    graph_dim=None) -> LinearRelation:
    """A relation with a uniformly random graph subspace of ``K^{2d}``."""
    if graph_dim is None:
        graph_dim = int(rng.integers(1, 2 * d + 1))
    span = random_matrix(rng, 2 * d, graph_dim, field)
    return LinearRelation(d, Subspace.from_spanning(span, 2 * d))


def _strictly_dissipative_matrix(rng, n, field, eps):
    """Invertible ``M`` with the Hermitian part below ``-eps``."""
    g = random_matrix(rng, n, n, field)
    herm = eps * np.eye(n) + (g @ g.conj().T) / n
    s = random_matrix(rng, n, n, field)
    skew = (s - s.conj().T) / 2.0
    return skew - herm


def random_m_dissipative(rng: np.random.Generator, d: int, field: str = "real",
                         dom_dim=None, eps: float = 0.2,
                         conjugate: bool = True) -> LinearRelation:
    """A random m-dissipative relation, possibly multivalued.

    Construction: split ``K^d`` orthogonally into a domain part ``X1`` (of
    dimension ``dom_dim``) and a multivalued part ``X0``; put an invertible
    matrix with Hermitian part ``<= -eps`` on ``X1``; take the graph
    ``{(x1, M x1 + v) : x1 in X1, v in X0}``; optionally conjugate by a
    random unitary so coordinate alignment cannot be assumed.
    """
    if dom_dim is None:
        dom_dim = int(rng.integers(0, d + 1))
    if not 0 <= dom_dim <= d:
        raise ValueError("dom_dim out of range")
    d1, d0 = dom_dim, d - dom_dim
    dtype = np.complex128 if field == "complex" else np.float64
    xs = np.zeros((d, d1 + d0), dtype=dtype)
    ys = np.zeros((d, d1 + d0), dtype=dtype)
    if d1:
        m1 = _strictly_dissipative_matrix(rng, d1, field, eps)
        xs[:d1, :d1] = np.eye(d1)
        ys[:d1, :d1] = m1
    if d0:
        ys[d1:, d1:] = np.eye(d0)
    rel = LinearRelation.from_pairs(xs, ys)
    if conjugate:
        q = random_unitary(rng, d, field)
        u, v = rel.blocks()
        rel = LinearRelation.from_pairs(q @ u, q @ v)
    return rel


def random_dissipative_surjective(rng: np.random.Generator, d: int,
                                  field: str = "real", dom_dim=None,
                                  eps: float = 0.2) -> LinearRelation:
    """Dissipative relation with full range (hence invertible).

    Same block construction as :func:`random_m_dissipative` with an
    invertible block, whose range ``M X1 + X0`` is everything.  A zero
    domain part would not be surjective unless ``d == 0``, so ``dom_dim``
    defaults to a positive draw only in the degenerate-free range.
    """
    if dom_dim is None:
        dom_dim = int(rng.integers(1, d + 1)) if d else 0
    return random_m_dissipative(rng, d, field, dom_dim=dom_dim, eps=eps)


def random_dissipative_nonmaximal(rng: np.random.Generator, d: int,
                                  field: str = "real",
                                  inner_dim=None, eps: float = 0.2) -> LinearRelation:
    """Dissipative but not m-dissipative: everything happens inside a
    proper subspace, so ``ran(1 - A)`` cannot be all of ``K^d``."""
    if d < 2:
        raise ValueError("need d >= 2 for a proper inner subspace")
    if inner_dim is None:
        inner_dim = int(rng.integers(1, d))
    inner = random_m_dissipative(rng, inner_dim, field,
                                 dom_dim=int(rng.integers(1, inner_dim + 1)),
                                 eps=eps, conjugate=True)
    u, v = inner.blocks()
    pad = np.zeros((d - inner_dim, u.shape[1]), dtype=u.dtype)
    rel = LinearRelation.from_pairs(np.vstack([u, pad]), np.vstack([v, pad]))
    q = random_unitary(rng, d, field)
    u2, v2 = rel.blocks()
    return LinearRelation.from_pairs(q @ u2, q @ v2)
