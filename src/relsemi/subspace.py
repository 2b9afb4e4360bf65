"""Finite-dimensional subspaces with certified orthonormal bases.

A subspace of ``K^m`` (``K`` real or complex) is stored as an orthonormal
basis obtained from a rank-revealing SVD.  All set operations (intersection,
orthogonal complement, gap metric, membership distance) work on those bases,
so downstream code never sees raw spanning sets of uncertain rank.

The complex pairing is Hermitian throughout: ``<u, v> = v^H u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

#: Relative singular-value cutoff used by rank decisions.
RANK_TOL = 1e-10

#: Allowed deviation of a stored basis from exact orthonormality.
ORTHO_TOL = 1e-13


def _as_matrix(vectors, ambient_dim=None):
    a = np.asarray(vectors)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise InvalidInput(f"expected a 1- or 2-d array, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("spanning set contains non-finite entries")
    if ambient_dim is not None and a.shape[0] != ambient_dim:
        raise InvalidInput(
            f"ambient dimension mismatch: expected {ambient_dim}, got {a.shape[0]}")
    if np.iscomplexobj(a):
        return a.astype(np.complex128)
    return a.astype(np.float64)


def orth_basis(a: np.ndarray, rank_tol: float = RANK_TOL,
               scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column space, rank decided at ``rank_tol``.

    Singular directions with ``sigma <= rank_tol * max(sigma_max,
    scale_floor)`` are treated as zero.  The floor matters for inputs whose
    natural scale is known externally (blocks of an orthonormal basis have
    scale 1): without it, an all-noise block would count as full rank
    because every singular value is within ``rank_tol`` of the largest.
    An all-zero (or empty) input yields a basis with 0 columns.
    """
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    ref = max(float(s[0]) if s.size else 0.0, scale_floor)
    if ref == 0.0:
        return a[:, :0].copy()
    r = int(np.sum(s > rank_tol * ref))
    return np.ascontiguousarray(u[:, :r])


def null_basis(a: np.ndarray, rank_tol: float = RANK_TOL,
               scale_floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the nullspace of ``a`` at the given rank cutoff."""
    m, n = a.shape
    if n == 0:
        return a[:0, :0].reshape(0, 0) if m == 0 else np.zeros((n, 0), dtype=a.dtype)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    ref = max(float(s[0]) if s.size else 0.0, scale_floor)
    r = 0 if ref == 0.0 else int(np.sum(s > rank_tol * ref))
    return np.ascontiguousarray(vh[r:].conj().T)


@dataclass(frozen=True)
class Subspace:
    """A subspace of ``K^ambient_dim`` with an orthonormal ``basis``.

    Attributes
    ----------
    ambient_dim : int
        Dimension of the surrounding space.
    basis : ndarray, shape (ambient_dim, dim)
        Orthonormal columns spanning the subspace.  ``dim`` may be zero.
    rank_tol : float
        Relative cutoff that was used when the basis was extracted.
    """

    ambient_dim: int
    basis: np.ndarray
    rank_tol: float = RANK_TOL

    def __post_init__(self):
        b = self.basis
        if b.shape[0] != self.ambient_dim:
            raise InvalidInput("basis rows do not match ambient_dim")
        if b.shape[1] > 0:
            g = b.conj().T @ b
            err = np.max(np.abs(g - np.eye(b.shape[1])))
            if err > 100 * ORTHO_TOL:
                raise InvalidInput(f"basis is not orthonormal (defect {err:.2e})")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_spanning(vectors, ambient_dim=None, rank_tol: float = RANK_TOL) -> "Subspace":
        """Build the span of the given vectors (columns of a matrix).

        Near-dependent directions are dropped by the rank-revealing SVD:
        spanning sets that agree up to ``rank_tol`` noise produce the same
        subspace.
        """
        a = _as_matrix(vectors, ambient_dim)
        return Subspace(a.shape[0], orth_basis(a, rank_tol), rank_tol)

    @staticmethod
    def zero(ambient_dim: int, field: str = "real") -> "Subspace":
        dtype = np.complex128 if field == "complex" else np.float64
        return Subspace(ambient_dim, np.zeros((ambient_dim, 0), dtype=dtype))

    @staticmethod
    def full(ambient_dim: int, field: str = "real") -> "Subspace":
        dtype = np.complex128 if field == "complex" else np.float64
        return Subspace(ambient_dim, np.eye(ambient_dim, dtype=dtype))

    # -- simple queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def field(self) -> str:
        return "complex" if np.iscomplexobj(self.basis) else "real"

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        return self.basis @ (self.basis.conj().T @ v)

    def member_distance(self, v) -> float:
        """Euclidean distance from ``v`` to the subspace."""
        v = np.asarray(v, dtype=np.result_type(self.basis.dtype, np.asarray(v).dtype))
        if v.shape[0] != self.ambient_dim:
            raise InvalidInput("vector length does not match ambient dimension")
        return float(np.linalg.norm(v - self.project(v)))

    def contains(self, v) -> bool:
        return self.member_distance(v) <= 1e-9

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        b = self.basis
        return {
            "ambient_dim": self.ambient_dim,
            "field": self.field,
            "basis_real": [list(map(float, np.real(b[:, j]))) for j in range(b.shape[1])],
            "basis_imag": [list(map(float, np.imag(b[:, j]))) for j in range(b.shape[1])],
            "rank_tol": self.rank_tol,
        }

    @staticmethod
    def from_json(obj: dict) -> "Subspace":
        try:
            m = int(obj["ambient_dim"])
            fieldtag = obj["field"]
            re_cols = obj["basis_real"]
            im_cols = obj["basis_imag"]
            rank_tol = float(obj.get("rank_tol", RANK_TOL))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad subspace JSON: {exc}") from exc
        if fieldtag not in ("real", "complex"):
            raise InvalidInput(f"bad field tag {fieldtag!r}")
        cols = np.array(re_cols, dtype=float).reshape(len(re_cols), m).T
        if fieldtag == "complex":
            cols = cols + 1j * np.array(im_cols, dtype=float).reshape(len(im_cols), m).T
        # re-orthonormalize; serialized decimals may carry round-off
        return Subspace.from_spanning(cols, ambient_dim=m, rank_tol=rank_tol)


def promote(s1: Subspace, s2: Subspace):
    """Bring two subspaces to a common field tag (complex wins)."""
    if s1.field == s2.field:
        return s1, s2
    if s1.field == "real":
        s1 = Subspace(s1.ambient_dim, s1.basis.astype(np.complex128), s1.rank_tol)
    else:
        s2 = Subspace(s2.ambient_dim, s2.basis.astype(np.complex128), s2.rank_tol)
    return s1, s2


def _check_same_ambient(s1: Subspace, s2: Subspace):
    if s1.ambient_dim != s2.ambient_dim:
        raise InvalidInput(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}")


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection of two subspaces.

    Computed from the nullspace of ``[B1 | -B2]``: a pair ``(c1, c2)`` in
    that nullspace has ``B1 c1 = B2 c2``, which is exactly a vector of the
    intersection.
    """
    _check_same_ambient(s1, s2)
    s1, s2 = promote(s1, s2)
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(s1.ambient_dim, s1.field)
    tol = min(s1.rank_tol, s2.rank_tol)
    stacked = np.hstack([s1.basis, -s2.basis])
    n = null_basis(stacked, tol)
    vecs = s1.basis @ n[: s1.dim]
    return Subspace.from_spanning(vecs, s1.ambient_dim, tol) if vecs.shape[1] else \
        Subspace.zero(s1.ambient_dim, s1.field)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement (Hermitian pairing for complex fields)."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim, s.field)
    return Subspace(s.ambient_dim, null_basis(s.basis.conj().T, s.rank_tol), s.rank_tol)


def add(s1: Subspace, s2: Subspace) -> Subspace:
    """Sum of two subspaces (span of the union)."""
    _check_same_ambient(s1, s2)
    s1, s2 = promote(s1, s2)
    return Subspace.from_spanning(
        np.hstack([s1.basis, s2.basis]), s1.ambient_dim,
        min(s1.rank_tol, s2.rank_tol))


def gap(s1: Subspace, s2: Subspace) -> float:
    """Gap metric ``||P1 - P2||_2`` between two subspaces.

    Evaluated as the larger of the two one-sided deviations
    ``max_j sigma_max((I - P_k) B_j)``, which is exact for orthogonal
    projectors and avoids the cancellation that the naive projector
    difference suffers for near-identical subspaces.  Values lie in [0, 1];
    subspaces of different dimension are at distance exactly 1.
    """
    _check_same_ambient(s1, s2)
    s1, s2 = promote(s1, s2)
    if s1.dim != s2.dim:
        return 1.0
    if s1.dim == 0:
        return 0.0
    b1, b2 = s1.basis, s2.basis
    d12 = b1 - b2 @ (b2.conj().T @ b1)
    d21 = b2 - b1 @ (b1.conj().T @ b2)
    g = max(float(np.linalg.norm(d12, 2)), float(np.linalg.norm(d21, 2)))
    return min(g, 1.0)
