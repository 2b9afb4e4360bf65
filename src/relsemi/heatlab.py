"""Dirichlet-Laplacian relations on masked grids and domain experiments.

The relation attached to a mask pairs ``(u, f)`` where ``u`` vanishes off
the masked nodes and ``f`` equals the 5-point Laplacian of ``u`` on them;
``f`` is unconstrained elsewhere, which is exactly the multivalued part.
Everything here works in node coordinates: resolvents and semigroups act
through sparse factorizations on the masked block and by zero off it, so
no dense graph basis is ever required (a dense relation is available for
small grids as a cross-check).

The relation is an evaluator in the sense of :mod:`relsemi.converge`: its
``resolvent``, ``semigroup`` and ``integrated`` methods take arrays of
shifts or times.  Every semigroup action — ``T(t)``, ``T(z)`` and ``S(t)``
on a whole grid — goes through one kernel, :meth:`DirichletGridRelation._exp_action`:
a shift-and-invert Arnoldi basis of ``(I − γL)⁻¹`` (van den Eshof &
Hochbruck, 2006) built on one cached sparse factorization per sweep, with
all requested times evaluated from that basis.  Its convergence does not
depend on ``‖L‖ ~ h⁻²``, and it stops on the a-posteriori residual bound of
Botchev, Grimm & Hochbruck (2013).

Every solve in the lab — resolvents, ``S(t) = L⁻¹(T(t) − I)``, the
Krylov shift, the contraction and sector certificates, the graph-distance
Gram matrix, the inverse-power eigenvalue and the interval solve — goes
through one sparse factorization of ``σI − op``, :func:`_factor`; only the
relation's shift cache and its Gram factor keep factors alive.

Operator norms are sup-norms throughout (max absolute row sums), matching
the contraction and maximum-principle structure of the M-matrix stencil:
the contraction certificate is one solve ``(λ − L)⁻¹ 1 > 0`` per λ.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from .converge import ConvergenceReport, trotter_kato_report
from .errors import (
    ContractFailed,
    InvalidInput,
    OutsideSector,
    SolverBreakdown,
    VanishingMultiplier,
)
from .grids import DomainMask, Grid, disk, inscribed_polygon, mask_from_shapes, slit
from .quadrature import gauss_legendre
from .relation import LinearRelation
from .subspace import Subspace

log = logging.getLogger("relsemi")

DENSE_ROWSUM_LIMIT = 3000  # largest masked block sector_uniformity inverts densely
DENSE_MAX_NODES = 2500     # largest grid dense_relation assembles
EXP_TOL = 1e-13            # exponential kernel error bound, relative to ‖b‖∞
EXP_MAX_BASIS = 400        # Arnoldi vectors per column before SolverBreakdown
EIG_TOL = 1e-8             # relative accuracy of the inverse-power eigenvalues
MULTIPLIER_MIN = 1e-8      # smallest |m| a multiplier may take on the mask
CRITERION_MARGINS = (1, 2, 3)  # node rings of domain_convergence_check's interiors
FD_DELTA = 1e-3            # step of heat_orbit's finite-difference membership check


def _factor(op, sigma):
    """Solve with ``σI − op`` for real or complex right-hand sides.

    Returns ``solve(b)`` over one sparse LU factorization.  A real ``σ``
    gives a real factor, which takes a complex ``b`` as two real solves.
    """
    sigma = complex(sigma)
    real = sigma.imag == 0.0
    dt = float if real else complex
    mat = (sigma.real if real else sigma) * sp.identity(
        op.shape[0], dtype=dt, format="csc") - op.astype(dt)
    lu = spl.splu(mat.tocsc())

    def solve(b):
        if real and np.iscomplexobj(b):
            return lu.solve(np.ascontiguousarray(b.real)) \
                + 1j * lu.solve(np.ascontiguousarray(b.imag))
        if not real:
            b = np.asarray(b, dtype=complex)
        return lu.solve(np.ascontiguousarray(b))

    return solve


def stencil_on_flags(grid: Grid, flags) -> sp.csr_matrix:
    """5-point Laplacian on the flagged nodes, zero Dirichlet outside.

    Returns an n-by-n matrix over the flagged nodes in flat order; couplings
    to un-flagged neighbours are dropped, which is the matrix form of
    reading ``u = 0`` there.
    """
    m = grid.m
    flags = np.asarray(flags, dtype=bool).ravel()
    idx = np.flatnonzero(flags)
    n = idx.size
    if n == 0:
        return sp.csr_matrix((0, 0))
    pos = np.full(m * m, -1, dtype=np.int64)
    pos[idx] = np.arange(n)
    h2 = grid.h ** 2
    ix, iy = np.divmod(idx, m)
    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, -4.0 / h2)]
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        jx, jy = ix + dx, iy + dy
        inb = (jx >= 0) & (jx < m) & (jy >= 0) & (jy < m)
        tgt = np.where(inb, pos[np.where(inb, jx * m + jy, 0)], -1)
        keep = tgt >= 0
        rows.append(np.flatnonzero(keep))
        cols.append(tgt[keep])
        vals.append(np.full(int(keep.sum()), 1.0 / h2))
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    return mat


class DirichletGridRelation:
    """Evaluator for the Dirichlet relation of one mask.

    Implements the evaluator protocol of :mod:`relsemi.converge`
    (``state_dim``, ``resolvent``, ``semigroup``, ``integrated``,
    ``range_shift_full``, ``vec_norm``) on arrays of shifts and times, with
    sup-norm vector norms.  ``operator`` overrides the plain stencil (used
    by multiplier perturbations); it must act on the masked block in flat
    node order.
    """

    def __init__(self, mask: DomainMask, operator=None, multiplier=None,
                 label: str | None = None):
        self.mask = mask
        self.grid = mask.grid
        self.state_dim = mask.grid.n_nodes
        self.omega = mask.indices()
        self.op = stencil_on_flags(mask.grid, mask.values) if operator is None \
            else operator.tocsr()
        if self.op.shape != (self.omega.size, self.omega.size):
            raise InvalidInput("operator block does not match the mask")
        self.multiplier = multiplier
        self.label = label if label is not None else (mask.label or "mask")
        self._shift_lus = {}
        self._dist_lu = None
        self._integrated_memo = None

    # -- plumbing ---------------------------------------------------------

    @property
    def n_inside(self) -> int:
        return self.omega.size

    def _shift_lu(self, lam):
        """The cached :func:`_factor` solve with ``λ − L``."""
        key = complex(lam)
        if key not in self._shift_lus:
            self._shift_lus[key] = _factor(self.op, key)
        return self._shift_lus[key]

    # -- evaluator protocol -------------------------------------------------

    def vec_norm(self, x):
        x = np.asarray(x)
        return np.max(np.abs(x), axis=0 if x.ndim == 1 else -2, initial=0.0)

    def m_dissipative_ok(self) -> bool:
        try:
            supnorm_contraction(self, lams=(1.0,))
            surjective_solve(self, np.ones(self.state_dim))
            return True
        except (ContractFailed, SolverBreakdown):
            return False

    def range_shift_full(self, mu) -> bool:
        # off-mask coordinates are absorbed by the multivalued part, so only
        # the masked block needs to be solvable
        if self.n_inside == 0:
            return True
        mu = complex(mu)
        x = self.resolvent([mu], np.ones(self.state_dim))[0, self.omega]
        res = np.linalg.norm(mu * x - self.op @ x - 1.0) / math.sqrt(self.n_inside)
        return bool(res <= 1e-8)

    def resolvent(self, lams, fs):
        """``R(λ) F`` for every shift in ``lams``, one cached factor each."""
        lams = np.atleast_1d(lams)
        fs = np.asarray(fs)
        out = np.zeros((lams.size,) + fs.shape, dtype=np.result_type(fs, lams))
        if self.n_inside:
            for k, lam in enumerate(lams):
                out[k, self.omega] = self._shift_lu(lam)(fs[self.omega])
        return out

    def semigroup(self, zs, fs):
        """``T(z) F`` for every real ``t ≥ 0`` or complex ``z`` in ``zs``.

        The sector of the heat semigroup is the open right half-plane, so a
        complex ``z ≠ 0`` with ``Re z ≤ 0`` raises :class:`OutsideSector`.
        All points come from one kernel call; the values off the mask are
        zero (the multivalued directions are killed at once).
        """
        zs = np.atleast_1d(zs)
        if np.iscomplexobj(zs):
            outside = (zs != 0) & (zs.real <= 0)
            if outside.any():
                raise OutsideSector(f"z={complex(zs[outside][0])!r} outside the "
                                    "right half-plane")
        fs = np.asarray(fs)
        w = self._exp_action(zs, fs[self.omega])
        out = np.zeros((w.shape[0],) + fs.shape, dtype=w.dtype)
        out[:, self.omega] = w
        return out

    def integrated(self, ts, fs):
        """``S(t) F = L⁻¹(T(t) − I) F`` on the mask for every time in ``ts``.

        The last grid and data are remembered, so a caller asking again for
        the same times (a report and its off-mask check) gets the stored,
        read-only array instead of a second sweep.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        fs = np.asarray(fs)
        if np.any(ts < 0):
            raise InvalidInput("time grid must be nonnegative")
        memo = self._integrated_memo
        if (memo is not None and np.array_equal(memo[0], ts)
                and memo[1].dtype == fs.dtype and np.array_equal(memo[1], fs)):
            return memo[2]
        b = fs[self.omega]
        w = b - self._exp_action(ts, b)  # S(t) b solves (0 − L) x = b − T(t) b
        out = np.zeros((ts.size,) + fs.shape, dtype=w.dtype)
        if self.n_inside:
            cols = np.moveaxis(w, 0, -1).reshape(self.n_inside, -1)
            sol = self._shift_lu(0.0)(cols)
            out[:, self.omega] = np.moveaxis(sol.reshape(w.shape[1:] + (ts.size,)),
                                             -1, 0)
        out.setflags(write=False)
        self._integrated_memo = (ts.copy(), fs.copy(), out)
        return out

    # -- exponential kernel ---------------------------------------------------

    def _exp_action(self, times, b, max_basis: int = EXP_MAX_BASIS):
        """``exp(t L) b`` on the masked block for every ``t`` in ``times``.

        Times are real ``t ≥ 0`` or complex ``z`` with ``Re z ≥ 0``; ``b`` is
        ``(n,)`` or ``(n, c)`` and the result is ``(len(times),) + b.shape``.
        Each column gets one shift-and-invert Arnoldi basis of
        ``(I − γL)⁻¹`` with ``γ = max|t| / 10``, built on the cached
        factorization of ``γ⁻¹ − L``; every time is then evaluated from it
        as ``β V_k exp(t T_k) e₁``, ``T_k = (I − H_k⁻¹)/γ``.  The basis
        grows until the a-posteriori bound ``e^{t μ∞(L)} ∫₀ᵗ ‖r_k(s)‖∞ ds``
        on the error of the largest time is at most ``EXP_TOL·‖b‖∞``
        (``r_k`` is the residual of the ODE ``u' = L u``; for complex ``z``
        the integral runs along ``[0, z]`` and is an estimate).  Raises
        :class:`SolverBreakdown` when ``max_basis`` vectors do not suffice.
        """
        times = np.atleast_1d(np.asarray(times))
        if times.ndim != 1 or np.any(times.real < 0):
            raise InvalidInput("times must be a flat array with Re t >= 0")
        b = np.asarray(b)
        n = self.n_inside
        out = np.zeros((times.size,) + b.shape,
                       dtype=np.result_type(b, times, float))
        tmax = float(np.max(np.abs(times), initial=0.0))
        if n == 0 or tmax == 0.0:
            out[...] = b
            return out
        cols = b.reshape(n, -1)
        if np.iscomplexobj(cols):
            cols = np.hstack([cols.real, cols.imag])  # the operator is real
        gamma = tmax / 10.0
        hit = complex(1.0 / gamma) in self._shift_lus
        solve = self._shift_lu(1.0 / gamma)
        diag = self.op.diagonal()
        mu = float(np.max(diag + np.asarray(abs(self.op).sum(axis=1)).ravel()
                          - np.abs(diag)))
        vals = np.empty((times.size, n, cols.shape[1]), dtype=out.dtype)
        sizes, bounds = [], []
        for j in range(cols.shape[1]):
            vals[:, :, j], size, bound = _si_arnoldi_exp(
                self.op, solve, gamma, mu, cols[:, j], times, max_basis)
            sizes.append(size)
            bounds.append(bound)
        if np.iscomplexobj(b):
            half = vals.shape[2] // 2
            vals = vals[:, :, :half] + 1j * vals[:, :, half:]
        out[...] = vals.reshape(out.shape)
        log.debug("exp_action n=%d cols=%d gamma=%.4g basis=%d bound=%.3e lu=%s",
                  n, len(sizes), gamma, max(sizes, default=0), max(bounds, default=0.0),
                  "hit" if hit else "miss")
        return out

    # -- graph geometry -----------------------------------------------------

    def _nearest_coeff(self, u, f):
        if self._dist_lu is None:  # the Gram matrix I + LᵀL, kept for reuse
            self._dist_lu = _factor(-(self.op.T @ self.op), 1.0)
        uin = np.asarray(u)[self.omega]
        fin = np.asarray(f)[self.omega]
        return self._dist_lu(uin + self.op.T @ fin)

    def graph_distance(self, u, f) -> float:
        """Euclidean distance from the pair ``(u, f)`` to the graph."""
        u = np.asarray(u)
        f = np.asarray(f)
        off = np.delete(u, self.omega)
        if self.n_inside == 0:
            return float(np.linalg.norm(u))
        a = self._nearest_coeff(u, f)
        du = a - u[self.omega]
        df = self.op @ a - f[self.omega]
        return float(math.sqrt(np.linalg.norm(off) ** 2
                               + np.linalg.norm(du) ** 2
                               + np.linalg.norm(df) ** 2))

    def nearest_pair(self, u, f):
        """Orthogonal projection of ``(u, f)`` onto the graph."""
        dt = np.result_type(u, f, float)
        u = np.asarray(u, dtype=dt)
        f = np.asarray(f, dtype=dt)
        ustar = np.zeros_like(u)
        fstar = f.copy()
        if self.n_inside:
            a = self._nearest_coeff(u, f)
            ustar[self.omega] = a
            fstar[self.omega] = self.op @ a
        return ustar, fstar

    # -- dense cross-check ---------------------------------------------------

    def dense_relation(self) -> LinearRelation:
        """Explicit relation on the full node space of at most ``DENSE_MAX_NODES``.

        The graph basis is assembled blockwise: the ``(e_j, L e_j)`` block
        is orthonormalized through a Cholesky factor of ``I + L^T L``, and
        the free off-mask block is already orthonormal and orthogonal to it.
        """
        big_n = self.state_dim
        if big_n > DENSE_MAX_NODES:
            raise InvalidInput(
                f"dense relation with {big_n} nodes exceeds {DENSE_MAX_NODES}")
        n = self.n_inside
        if n == 0:
            basis = np.vstack([np.zeros((big_n, big_n)), np.eye(big_n)])
            return LinearRelation.from_graph_subspace(Subspace(2 * big_n, basis))
        top = np.zeros((big_n, n))
        top[self.omega, np.arange(n)] = 1.0
        bot = np.zeros((big_n, n))
        bot[self.omega] = self.op.toarray()
        stacked = np.vstack([top, bot])
        gram = np.eye(n) + (self.op.T @ self.op).toarray()
        chol = np.linalg.cholesky(gram)
        ublock = spla.solve_triangular(chol, stacked.T, lower=True).T
        off = np.setdiff1d(np.arange(big_n), self.omega)
        fblock = np.zeros((2 * big_n, big_n - n))
        fblock[big_n + off, np.arange(big_n - n)] = 1.0
        return LinearRelation.from_graph_subspace(
            Subspace(2 * big_n, np.hstack([ublock, fblock])))


def _residual_integral(lam, weights, z) -> float:
    """``∫₀^{|z|} |Σᵢ wᵢ exp(s ẑ λᵢ)| ds`` along the ray through ``z``.

    Gauss–Legendre panels double in length away from 0, the first one
    short enough (``|z| ρ 2⁻ᴶ ≤ 1``) to resolve the stiffest mode.
    """
    length = abs(z)
    stiff = length * float(np.max(np.abs(lam)))
    doublings = max(1, math.ceil(math.log2(max(stiff, 2.0))))
    edges = length * np.concatenate([[0.0], np.exp2(np.arange(-doublings, 1))])
    x, w = gauss_legendre(8)
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + half * (x + 1.0)).ravel()
    psi = np.exp(np.outer(s * (z / length), lam)) @ weights
    return float((half * w).ravel() @ np.abs(psi))


def _si_arnoldi_exp(op, solve, gamma, mu, b, times, max_basis):
    """One real column of :meth:`DirichletGridRelation._exp_action`.

    ``solve`` solves with ``γ⁻¹ I − L``.  Returns the values at ``times``, the
    basis size and the final error bound.  With ``A = (I − γL)⁻¹`` the
    Arnoldi relation ``A V_k = V_k H_k + h v_{k+1} e_kᵀ`` gives the
    residual ``r_k(s) = (h β / γ) (e_kᵀ H_k⁻¹ exp(s T_k) e₁) (I − γL) v_{k+1}``
    of the approximation ``β V_k exp(s T_k) e₁``.  Both that scalar factor
    and the values go through the eigendecomposition ``H_k = X Θ X⁻¹``
    (``T_k`` has eigenvalues ``(1 − 1/θ)/γ``), which must be well
    conditioned; :class:`SolverBreakdown` is raised otherwise.
    """
    n = b.size
    out = np.zeros((times.size, n), dtype=np.result_type(times, float))
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        return out, 0, 0.0
    beta = float(np.linalg.norm(b))
    # the bound grows along each ray, so its farthest point covers the rest
    far = times[times != 0]
    angles = np.angle(far)
    ends = [far[angles == a][np.argmax(np.abs(far[angles == a]))]
            for a in np.unique(angles)]
    cap = min(max_basis, n)
    basis = np.empty((cap + 1, n))
    hess = np.zeros((cap + 1, cap))
    basis[0] = b / beta
    bound = math.inf
    for k in range(cap):
        w = solve(basis[k]) / gamma
        for _ in range(2):  # classical Gram–Schmidt, repeated once
            c = basis[:k + 1] @ w
            w -= c @ basis[:k + 1]
            hess[:k + 1, k] += c
        size = k + 1
        hess[size, k] = np.linalg.norm(w)
        # an invariant subspace makes the projection exact
        exhausted = size == n or hess[size, k] <= 1e-14 * np.linalg.norm(hess[:size, :size])
        if not exhausted:
            basis[size] = w / hess[size, k]
            if size % (1 << max(0, size.bit_length() - 4)) and size < cap:
                continue  # check sizes 1…15, then every 2, 4, 8 … (≤ 1/8 overshoot)
        theta, vecs = np.linalg.eig(hess[:size, :size])
        lam = (1.0 - 1.0 / theta) / gamma
        coef = np.linalg.solve(vecs, np.eye(size)[:, 0])
        if exhausted:
            bound = 0.0
            break
        v = basis[size]
        resid = float(np.max(np.abs(v - gamma * (op @ v)))) * hess[size, k] * beta / gamma
        weights = vecs[size - 1] / theta * coef
        bound = max(math.exp(max(0.0, mu * abs(z))) * resid
                    * _residual_integral(lam, weights, z) for z in ends)
        if bound <= EXP_TOL * scale:
            break
    else:
        raise SolverBreakdown(
            f"exponential kernel: {cap} basis vectors leave the error bound "
            f"{bound:.2e} above {EXP_TOL * scale:.2e}")
    if np.linalg.cond(vecs) > 1e3:
        raise SolverBreakdown("exponential kernel: ill-conditioned Ritz basis")
    small = (np.exp(np.outer(times, lam)) * coef) @ vecs.T
    out[...] = beta * ((small if np.iscomplexobj(out) else small.real) @ basis[:size])
    return out, size, bound


# -- certificates ---------------------------------------------------------


@dataclass
class ContractionCertificate:
    lams: tuple
    norms: tuple        # sup operator norms of lam * R(lam)
    method: str
    resolvent_min: float  # smallest row sum of R(λ) ≥ 0 seen (positivity margin)
    tol: float
    ok: bool


def supnorm_contraction(rel: DirichletGridRelation, lams=(0.1, 1.0, 10.0),
                        tol: float = 1e-12) -> ContractionCertificate:
    """Certify ``‖λR(λ)‖_∞ ≤ 1 + tol`` on a positive λ-grid.

    One solve per λ: ``x = (λ − L)⁻¹ 1``.  When ``λ − L`` is a Z-matrix
    (off-diagonal entries ≤ 0) and ``x > 0``, it is a nonsingular M-matrix
    (Berman & Plemmons, ch. 6), so ``R(λ) ≥ 0`` entrywise and ``x`` holds
    the exact row sums of ``|R(λ)|``.  A failed premise or a violated bound
    raises :class:`ContractFailed` (with the offending row for the latter).
    ``resolvent_min`` records the smallest row sum, the positivity margin.
    """
    norms = []
    min_entry = math.inf
    method = "empty"
    n = rel.n_inside
    # the off-diagonal part of λ − L is that of −L, whatever λ is
    offdiag = sp.diags(rel.op.diagonal()) - rel.op
    z_matrix = not (offdiag.nnz and offdiag.max() > 1e-14)
    for lam in lams:
        lam = float(lam)
        if lam <= 0:
            raise InvalidInput("contraction grid must be positive")
        if n == 0:
            norms.append(0.0)
            continue
        if not z_matrix:
            raise ContractFailed("shifted operator is not a Z-matrix; "
                                 "row-sum bound unavailable", lam=lam)
        # factored here, not in the relation's cache: one solve per λ does
        # not pay for keeping the factor alive with the relation
        rowsums = _factor(rel.op, lam)(np.ones(n))
        low = int(np.argmin(rowsums))
        if not rowsums[low] > 0.0:
            raise ContractFailed("shifted operator is not a nonsingular M-matrix: "
                                 f"(λ − L)⁻¹ 1 = {rowsums[low]:.3e}", lam=lam, row=low)
        method = "mmatrix-solve"
        min_entry = min(min_entry, float(rowsums[low]))
        worst = int(np.argmax(rowsums))
        norm = lam * float(rowsums[worst])
        if norm > 1.0 + tol:
            raise ContractFailed(f"sup-norm contraction violated: {norm:.3e}",
                                 lam=lam, row=worst)
        norms.append(norm)
    return ContractionCertificate(tuple(float(l) for l in lams), tuple(norms),
                                  method, min_entry, tol, True)


def surjective_solve(rel: DirichletGridRelation, f):
    """Solve ``A u ∋ f``: ``u`` vanishes off the mask, stencil matches on it."""
    f = np.asarray(f)
    out = np.zeros_like(f, dtype=np.promote_types(f.dtype, float))
    if rel.n_inside == 0:
        return out
    fin = f[rel.omega]
    sol = rel._shift_lu(0.0)(-fin)
    res = np.linalg.norm(rel.op @ sol - fin)
    if res > 1e-10 * max(np.linalg.norm(fin), 1.0):
        raise SolverBreakdown(f"stencil solve residual {res:.3e}")
    out[rel.omega] = sol
    return out


# -- eigenvalues ----------------------------------------------------------


def _smallest_eigenvalue(lap: sp.csr_matrix) -> float:
    """Smallest eigenvalue of ``-lap`` by inverse-power iteration (``EIG_TOL``)."""
    n = lap.shape[0]
    if n == 0:
        return math.inf
    a = (-lap).tocsc()
    if n == 1:
        return float(a[0, 0])
    solve = _factor(lap, 0.0)
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = float(v @ (a @ v))
    # the Rayleigh value converges one order faster than the iterate, so a
    # change threshold well below EIG_TOL leaves the remaining error negligible
    for _ in range(3000):
        w = solve(v)
        w /= np.linalg.norm(w)
        new = float(w @ (a @ w))
        done = abs(new - lam) <= 1e-3 * EIG_TOL * max(1.0, abs(new))
        v, lam = w, new
        if done:
            return lam
    raise SolverBreakdown("inverse-power iteration did not settle")


def first_eigenvalue(grid: Grid, node_set) -> float:
    """Smallest Dirichlet eigenvalue of the node set; +inf when empty."""
    flags = np.asarray(node_set)
    if flags.dtype != bool:
        full = np.zeros(grid.n_nodes, dtype=bool)
        full[np.asarray(node_set, dtype=np.int64)] = True
        flags = full
    return _smallest_eigenvalue(stencil_on_flags(grid, flags))


# -- 1-D interval helpers --------------------------------------------------


def interval_stencil(m: int, length: float = 1.0) -> sp.csr_matrix:
    if m < 1:
        raise InvalidInput("need at least one interior node")
    h = length / (m + 1)
    main = np.full(m, -2.0 / h ** 2)
    off = np.full(m - 1, 1.0 / h ** 2)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def interval_relation(m: int, length: float = 1.0) -> LinearRelation:
    """Dense operator relation of the interval Laplacian (whole-domain mask)."""
    return LinearRelation.from_operator(interval_stencil(m, length).toarray())


def interval_nodes(m: int, length: float = 1.0) -> np.ndarray:
    h = length / (m + 1)
    return h * (np.arange(m) + 1)


def interval_first_eigenvalue(m: int, length: float = 1.0) -> float:
    return _smallest_eigenvalue(interval_stencil(m, length))


def interval_eigenvalue_closed_form(m: int, length: float = 1.0, k: int = 1) -> float:
    h = length / (m + 1)
    return (4.0 / h ** 2) * math.sin(k * math.pi * h / (2.0 * length)) ** 2


def interval_solve(m: int, f, length: float = 1.0) -> np.ndarray:
    """1-D counterpart of :func:`surjective_solve` on the full interval."""
    f = np.asarray(f, dtype=float)
    return _factor(interval_stencil(m, length), 0.0)(-f)


# -- multiplier perturbations ----------------------------------------------


@dataclass
class MultiplierEvidence:
    min_abs: float
    positive: bool
    sampled_margin: float           # worst sup-norm dissipativity margin seen
    contraction: ContractionCertificate | None


def multiplier_relation(m_values, rel: DirichletGridRelation) -> DirichletGridRelation:
    """Output-scaled relation ``(u, m·f)`` for a nonvanishing multiplier.

    ``m_values`` may live on the whole grid or only on the masked nodes;
    ``|m| < MULTIPLIER_MIN`` on the mask raises :class:`VanishingMultiplier`.
    For strictly positive multipliers the sup-norm contraction certificate
    is re-derived on the scaled stencil; sampled dissipativity (60 seeded
    graph pairs) is recorded either way (one-sided evidence).
    """
    m_values = np.asarray(m_values, dtype=float).ravel()
    if m_values.size == rel.state_dim:
        mvals = m_values[rel.omega]
    elif m_values.size == rel.n_inside:
        mvals = m_values
    else:
        raise InvalidInput("multiplier length matches neither grid nor mask")
    if rel.n_inside:
        worst = int(np.argmin(np.abs(mvals)))
        if abs(mvals[worst]) < MULTIPLIER_MIN:
            raise VanishingMultiplier(node=int(rel.omega[worst]),
                                      value=float(mvals[worst]))
    scaled = DirichletGridRelation(rel.mask, operator=sp.diags(mvals) @ rel.op,
                                   multiplier=mvals,
                                   label=rel.label + "*m")
    # one-sided sampled evidence: ‖λu‖_∞ ≤ ‖λu − f‖_∞ on random graph pairs
    rng = np.random.default_rng(0)
    margin = math.inf
    if rel.n_inside:
        us = rng.standard_normal((rel.n_inside, 60))
        fs = scaled.op @ us
        for lam in (0.1, 1.0, 10.0):
            lhs = np.max(np.abs(lam * us), axis=0)
            rhs = np.max(np.abs(lam * us - fs), axis=0)
            margin = min(margin, float(np.min(rhs - lhs)))
    positive = bool(rel.n_inside == 0 or mvals.min() > 0)
    cert = supnorm_contraction(scaled, lams=(1.0,)) if positive else None
    scaled.evidence = MultiplierEvidence(
        float(np.min(np.abs(mvals))) if rel.n_inside else math.inf,
        positive, margin, cert)
    return scaled


# -- maximum principle -------------------------------------------------------


@dataclass
class MaxPrincipleReport:
    samples_used: int
    skipped: int
    slack_min: float    # min over samples of -f(x0); sign condition is ≥ -tol


def max_principle_check(rel: DirichletGridRelation, samples: int = 500,
                        seed: int = 0) -> MaxPrincipleReport:
    """Sign of ``f`` at positive sup-attaining mask nodes of graph pairs.

    For each sampled pair ``(u, Lu)`` the global max of ``u`` over the box
    (ties broken by lowest flat index) is located; whenever it is a mask
    node with a positive value, the stencil forces ``f ≤ 0`` there.
    """
    rng = np.random.default_rng(seed)
    if rel.n_inside == 0:
        return MaxPrincipleReport(0, samples, math.inf)
    us = rng.standard_normal((rel.n_inside, samples))
    # u vanishes off the mask, so a positive max lies on it; omega is sorted,
    # so the first maximal row is the lowest flat index.  argmax over axis 0
    # copies the block, so it runs before fs exists.
    top = np.argmax(us, axis=0)
    cols = np.arange(samples)
    used = us[top, cols] > 0
    fs = rel.op @ us
    slack = float(np.min(-fs[top, cols][used], initial=math.inf))
    count = int(np.count_nonzero(used))
    return MaxPrincipleReport(count, samples - count, slack)


# -- sector uniformity --------------------------------------------------------


@dataclass
class SectorUniformity:
    eps: float
    labels: tuple
    per_label: tuple
    bound: float
    rays: int
    radii: int


def sector_uniformity(labs, eps: float = 0.1, rays: int = 5,
                      radii: int = 7) -> SectorUniformity:
    """One sup-norm bound for ``λ R(λ)`` over right-half-plane rays.

    Samples ``λ = r e^{iθ}``, ``|θ| ≤ π/2 − eps``, ``r`` log-spaced in
    ``[1e-2, 1e3]``, and records the max of the exact row-sum norm per
    family member; the evidence is the max over the family (a single
    finite bound for the whole family at this grid).
    Each ``λ − L`` is factored here, outside the members' factor caches.
    """
    labs = list(labs)
    if not labs:
        raise InvalidInput("empty family")
    thetas = np.linspace(-(math.pi / 2 - eps), math.pi / 2 - eps, rays)
    rs = np.logspace(-2.0, 3.0, radii)
    per = []
    for lab in labs:
        worst = 0.0
        n = lab.n_inside
        if n > DENSE_ROWSUM_LIMIT:
            raise InvalidInput("family member too large for exact row sums")
        for th in thetas:
            for r in rs:
                lam = complex(r * math.cos(th), r * math.sin(th))
                if n == 0:
                    continue
                res = _factor(lab.op, lam)(np.eye(n, dtype=complex))
                worst = max(worst, abs(lam) * float(np.abs(res).sum(axis=1).max()))
        per.append(worst)
    return SectorUniformity(eps, tuple(lab.label for lab in labs), tuple(per),
                            max(per), rays, radii)


# -- domain convergence --------------------------------------------------------


@dataclass
class DomainConvergence:
    margins: tuple
    n0: dict                      # margin -> first 1-based index covering it, or None
    surplus_counts: np.ndarray    # |Ω_n \ closure(Ω)| per member
    surplus_eigs: np.ndarray
    surplus_measure: np.ndarray   # counts * h^2 (auxiliary trace)
    deficit_counts: np.ndarray    # |Ω \ Ω_n| per member
    deficit_eigs: np.ndarray
    expected_direction: str
    ok: bool


def _direction_ok(trace, direction: str) -> bool:
    vals = np.asarray(trace, dtype=float)
    if vals.size <= 1:
        return True
    prev, nxt = vals[:-1], vals[1:]
    if direction == "to_infinity":
        with np.errstate(invalid="ignore"):
            good = np.isinf(nxt) | (nxt >= prev * (1 - 1e-9) - 1e-9)
        return bool(np.all(good))
    if direction == "to_zero":
        finite = vals[np.isfinite(vals)]
        if finite.size <= 1:
            return True
        return bool(np.all(np.diff(finite) <= finite[:-1] * 1e-9 + 1e-9))
    raise InvalidInput(f"unknown direction {direction!r}")


def domain_convergence_check(masks, limit: DomainMask,
                             expected_direction: str = "to_infinity") -> DomainConvergence:
    """Discrete compact-inclusion and surplus-eigenvalue traces.

    Condition (a): for each margin of ``CRITERION_MARGINS``, the limit's
    deep-interior node set must lie in every member from some index on.
    Condition (b): the raw first eigenvalue of each member's surplus node
    set (off the limit's closure); the pass direction is configuration,
    defaulting to growth (vanishing surplus).  Deficit traces are recorded
    alongside as the inner-family counterpart.
    """
    masks = list(masks)
    if not masks:
        raise InvalidInput("empty mask family")
    grid = limit.grid
    if any(mk.grid != grid for mk in masks):
        raise InvalidInput("family and limit must share one grid")
    n0 = {}
    for margin in CRITERION_MARGINS:
        kset = limit.interior_margin(margin)
        covered = [not np.any(kset & ~mk.values) for mk in masks]
        if not covered[-1]:
            n0[margin] = None
        else:
            first = len(masks) - 1
            while first > 0 and covered[first - 1]:
                first -= 1
            n0[margin] = first + 1
    closure = limit.closure()
    surplus = [mk.values & ~closure for mk in masks]
    deficit = [limit.values & ~mk.values for mk in masks]
    s_eigs = np.array([first_eigenvalue(grid, s) for s in surplus])
    d_eigs = np.array([first_eigenvalue(grid, d) for d in deficit])
    s_counts = np.array([int(s.sum()) for s in surplus])
    d_counts = np.array([int(d.sum()) for d in deficit])
    ok = _direction_ok(s_eigs, expected_direction)
    return DomainConvergence(CRITERION_MARGINS, n0, s_counts, s_eigs,
                             s_counts * grid.h ** 2, d_counts, d_eigs,
                             expected_direction, ok)


# -- the flagship experiment ----------------------------------------------------


@dataclass
class PerturbationReport:
    convergence: ConvergenceReport
    criterion: DomainConvergence
    contraction: dict
    nearest_distances: np.ndarray   # (family, samples) graph distances of limit pairs
    off_limit_sup: np.ndarray       # per member: max |S_n(t)f| off the limit mask
    header: dict


def perturbation_experiment(masks, limit_mask: DomainMask, lambda_grid, t_grid,
                            f_set, tol: float = 0.05, mu: complex = 1 + 1j,
                            items=("i", "ii", "iii", "iv"), samples: int = 4,
                            seed: int = 0,
                            expected_direction: str = "to_infinity") -> PerturbationReport:
    """Domain-perturbation convergence study in the sup norm.

    Precondition: every relation in sight passes the contraction
    certificate on the positive part of ``lambda_grid`` (raises
    :class:`ContractFailed` otherwise).  The gap criterion is deliberately
    not among the default items: at a fixed mesh two different masks stay a
    fixed gap apart, and the domain-convergence criterion plus nearest-pair
    distances carry that role instead.
    """
    labs = [DirichletGridRelation(mk) for mk in masks]
    lim = DirichletGridRelation(limit_mask)
    pos = [float(l.real) for l in np.atleast_1d(lambda_grid)
           if complex(l).imag == 0 and complex(l).real > 0] or [1.0]
    contraction = {}
    for lab in [*labs, lim]:
        contraction[lab.label] = supnorm_contraction(lab, lams=tuple(pos))
    report = trotter_kato_report(labs, lim, lambda_grid, t_grid, f_set=f_set,
                                 tol=tol, mu=mu, items=items, norm="sup",
                                 labels=tuple(lab.label for lab in labs))
    criterion = domain_convergence_check(masks, limit_mask,
                                         expected_direction=expected_direction)
    rng = np.random.default_rng(seed)
    dists = np.zeros((len(labs), samples))
    if samples:
        g = rng.standard_normal((lim.state_dim, samples))
        u = lim.resolvent([1.0], g)[0]
        f = u - g  # (u, f) lies on the limit graph: u - f = g = (1 - A)u
        for k, lab in enumerate(labs):
            dists[k] = [lab.graph_distance(u[:, s], f[:, s])
                        for s in range(samples)]
    off = ~limit_mask.values
    f_set = np.atleast_2d(np.asarray(f_set))
    off_sup = np.zeros(len(labs))
    for k, lab in enumerate(labs):
        traj = lab.integrated(np.asarray(t_grid, dtype=float), f_set)
        off_sup[k] = float(np.max(np.abs(traj[:, off, :]))) if off.any() else 0.0
    header = {
        "norm": "sup",
        "assumption": "shapes are chosen regular and stable in the continuum; "
                      "all statements here are at the fixed mesh",
        "criterion_direction": expected_direction,
    }
    return PerturbationReport(report, criterion, contraction, dists, off_sup,
                              header)


# -- heat orbits -----------------------------------------------------------------


@dataclass
class HeatOrbit:
    times: np.ndarray
    states: np.ndarray               # (len(times), N)
    projection_defect: float         # ‖T(0)u0 − mask·u0‖_∞, structurally zero
    initial_trace: np.ndarray        # ℓ² distance of u(t) to u0 on the mask
    off_domain_max: float
    membership_times: tuple
    membership_residuals: tuple
    sup_ratio: float                 # max_t ‖u(t)‖_∞ / ‖P u0‖_∞
    min_entry: float
    nodewise_decreasing: bool


def heat_orbit(rel: DirichletGridRelation, u0, t_grid) -> HeatOrbit:
    """Trajectory ``u(t) = T(t) u0`` with its defining checks.

    Membership is tested with Richardson-extrapolated central differences
    (step ``FD_DELTA``) at the middle and last grid times, where they exceed
    ``2 FD_DELTA`` (the raw pair ``(u, Lu)`` would be a tautology).
    ``T(0)``, the orbit and every difference time come from one call of the
    exponential kernel, so from one Krylov basis.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise InvalidInput("time grid must be positive and strictly increasing")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (rel.state_dim,):
        raise InvalidInput("initial state has the wrong length")
    picks = sorted({t_grid.size // 2, t_grid.size - 1})
    fd_times = tuple(float(t_grid[j]) for j in picks if t_grid[j] > 2 * FD_DELTA)
    offsets = np.array([0.0, FD_DELTA, -FD_DELTA, FD_DELTA / 2, -FD_DELTA / 2])
    fd_grid = (np.asarray(fd_times, dtype=float)[:, None] + offsets).ravel()
    traj = rel.semigroup(np.concatenate([[0.0], t_grid, fd_grid]), u0)
    states = traj[1:t_grid.size + 1]
    pu0 = np.zeros_like(u0)
    pu0[rel.omega] = u0[rel.omega]
    projection_defect = float(np.max(np.abs(traj[0] - pu0), initial=0.0))
    initial_trace = np.array([
        float(np.linalg.norm(states[j][rel.omega] - u0[rel.omega]))
        for j in range(t_grid.size)])
    off_mask = np.ones(rel.state_dim, dtype=bool)
    off_mask[rel.omega] = False
    off_domain_max = float(np.max(np.abs(states[:, off_mask]), initial=0.0))
    residuals = []
    for u_tau, up, dn, up2, dn2 in traj[t_grid.size + 1:].reshape(-1, 5, rel.state_dim):
        dudt = (4.0 * (up2 - dn2) / FD_DELTA - (up - dn) / (2 * FD_DELTA)) / 3.0
        residuals.append(rel.graph_distance(u_tau, dudt))
    denom = max(float(np.max(np.abs(pu0), initial=0.0)), 1e-300)
    sup_ratio = float(np.max(np.abs(states), initial=0.0)) / denom
    decreasing = bool(np.all(states[1:] <= states[:-1] + 1e-12))
    return HeatOrbit(t_grid, states, projection_defect, initial_trace,
                     off_domain_max, fd_times, tuple(residuals),
                     sup_ratio, float(states.min(initial=0.0)), decreasing)


# -- experiment mask builders -----------------------------------------------------


def disk_mask(grid: Grid, radius: float = 0.7, center=(0.0, 0.0),
              label: str = "disk") -> DomainMask:
    return mask_from_shapes(grid, [disk(center, radius)], label=label)


def polygon_family(grid: Grid, radius: float = 0.7, center=(0.0, 0.0),
                   sides=(3, 4, 5, 6, 8, 12), phase: float = 0.1):
    """Inscribed regular polygons: an inner approximation family of the disk."""
    return [mask_from_shapes(grid, [inscribed_polygon(center, radius, k, phase)],
                             label=f"poly-{k}")
            for k in sides]


def slit_family(grid: Grid, radius: float = 0.7, center=(0.0, 0.0),
                widths=(8, 4, 2, 1), inner_x=(0.50, 0.56, 0.61, 0.655),
                outer_x: float = 0.78, y: float = 0.0):
    """Disk minus a shrinking horizontal slit reaching in from the boundary.

    The slit thins *and* retracts toward the boundary, so the family is
    nested and the capsule tip — which dominates the sup-norm error —
    strictly recedes (a fixed-length slit would keep removing the same tip
    node at every width, freezing the error).  Widths are in node rows; the
    capsule is padded by a quarter spacing so a width-w slit removes
    exactly w rows (no floating-point ties against the lattice), and the
    slit line is snapped to a node row.
    """
    if len(inner_x) != len(widths):
        raise InvalidInput("need one inner endpoint per width")
    coords = grid.axis_coords()
    y0 = float(coords[np.argmin(np.abs(coords - y))])
    masks = []
    for w, x0 in zip(widths, inner_x):
        cap = slit((x0, y0), (outer_x, y0), (w + 0.5) * grid.h)
        masks.append(mask_from_shapes(
            grid, [disk(center, radius), cap], ops=["difference"],
            label=f"slit-{w}h"))
    return masks


def bump_function(grid: Grid, center=(0.15, -0.1), width: float = 0.2) -> np.ndarray:
    """Gaussian bump node function normalized to sup-norm one."""
    pts = grid.node_coords()
    vals = np.exp(-((pts[:, 0] - center[0]) ** 2 + (pts[:, 1] - center[1]) ** 2)
                  / (2.0 * width ** 2))
    return vals / vals.max()
