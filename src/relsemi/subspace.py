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


def numerical_rank(s, scale_floor: float = 0.0):
    """Numerical rank of descending singular values ``s``, or of a stack of them.

    Counts the singular values ``sigma > RANK_TOL * max(sigma_max,
    scale_floor)`` along the last axis; that reference is 0 only for
    all-zero (or empty) ``s``, which has rank 0.  The floor matters for
    inputs whose natural scale is known externally (blocks of an
    orthonormal basis have scale 1): without it, an all-noise block would
    count as full rank because every singular value is within ``RANK_TOL``
    of the largest.  This is the one rank decision of the package.
    """
    s = np.asarray(s)
    return np.sum(s > RANK_TOL * np.maximum(s[..., :1], scale_floor), axis=-1)


def orth_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, rank by :func:`numerical_rank`.

    An all-zero (or empty) input yields a basis with 0 columns.
    """
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return np.ascontiguousarray(u[:, :numerical_rank(s)])


def null_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the nullspace of ``a``, rank by :func:`numerical_rank`."""
    m, n = a.shape
    if n == 0:
        return a[:0, :0].reshape(0, 0) if m == 0 else np.zeros((n, 0), dtype=a.dtype)
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    return np.ascontiguousarray(vh[numerical_rank(s):].conj().T)


@dataclass(frozen=True)
class Subspace:
    """A subspace of ``K^ambient_dim`` with an orthonormal ``basis``.

    Attributes
    ----------
    ambient_dim : int
        Dimension of the surrounding space.
    basis : ndarray, shape (ambient_dim, dim)
        Orthonormal columns spanning the subspace.  ``dim`` may be zero.
    """

    ambient_dim: int
    basis: np.ndarray

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
    def from_spanning(vectors, ambient_dim=None) -> "Subspace":
        """Build the span of the given vectors (columns of a matrix).

        Near-dependent directions are dropped by the rank-revealing SVD:
        spanning sets that agree up to ``RANK_TOL`` noise produce the same
        subspace.
        """
        a = _as_matrix(vectors, ambient_dim)
        return Subspace(a.shape[0], orth_basis(a))

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
        }

    @staticmethod
    def from_json(obj: dict) -> "Subspace":
        """Inverse of :meth:`to_json`.

        Older files carry a ``rank_tol`` key; it must be ``RANK_TOL``, since
        any other cutoff would have given other ranks.  A file tagged
        ``"real"`` must have no nonzero imaginary entry.
        """
        try:
            m = int(obj["ambient_dim"])
            fieldtag = obj["field"]
            rank_tol = float(obj.get("rank_tol", RANK_TOL))
            if m < 0:
                raise ValueError(f"ambient_dim {m} is negative")
            cols = _json_columns(obj["basis_real"], m)
            im = _json_columns(obj["basis_imag"], m)
            if fieldtag == "complex":
                if im.shape != cols.shape:
                    raise ValueError(f"{cols.shape[1]} real and {im.shape[1]} "
                                     f"imaginary basis columns")
                cols = cols + 1j * im
            elif im.any():
                raise ValueError(f"field {fieldtag!r} with nonzero imaginary entries")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"bad subspace JSON: {exc}") from exc
        if rank_tol != RANK_TOL:
            raise InvalidInput(f"rank_tol {rank_tol!r} differs from RANK_TOL = "
                               f"{RANK_TOL!r}")
        if fieldtag not in ("real", "complex"):
            raise InvalidInput(f"bad field tag {fieldtag!r}")
        # re-orthonormalize; serialized decimals may carry round-off
        return Subspace.from_spanning(cols, ambient_dim=m)


def _json_columns(cols, m: int) -> np.ndarray:
    """A JSON list of length-``m`` columns as an ``m x len(cols)`` matrix."""
    a = np.array(cols, dtype=float)
    if len(cols) and a.shape != (len(cols), m):
        raise ValueError(f"basis columns must be lists of length {m}")
    return a.reshape(len(cols), m).T


def promote(s1: Subspace, s2: Subspace):
    """Bring two subspaces to a common field tag (complex wins)."""
    if s1.field == s2.field:
        return s1, s2
    if s1.field == "real":
        s1 = Subspace(s1.ambient_dim, s1.basis.astype(np.complex128))
    else:
        s2 = Subspace(s2.ambient_dim, s2.basis.astype(np.complex128))
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
    stacked = np.hstack([s1.basis, -s2.basis])
    n = null_basis(stacked)
    vecs = s1.basis @ n[: s1.dim]
    return Subspace.from_spanning(vecs, s1.ambient_dim) if vecs.shape[1] else \
        Subspace.zero(s1.ambient_dim, s1.field)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement (Hermitian pairing for complex fields)."""
    if s.dim == 0:
        return Subspace.full(s.ambient_dim, s.field)
    return Subspace(s.ambient_dim, null_basis(s.basis.conj().T))


def add(s1: Subspace, s2: Subspace) -> Subspace:
    """Sum of two subspaces (span of the union)."""
    _check_same_ambient(s1, s2)
    s1, s2 = promote(s1, s2)
    return Subspace.from_spanning(np.hstack([s1.basis, s2.basis]), s1.ambient_dim)


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
