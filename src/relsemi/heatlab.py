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
shifts or times.  All three go through one Krylov call,
:meth:`DirichletGridRelation._krylov`, which takes times and shifts
together: one shift-and-invert Arnoldi basis of ``(I − γL)⁻¹`` per real
column (van den Eshof & Hochbruck, 2006), built on one sparse factorization
of ``γ⁻¹ − L``, whose residuals are a scalar times one vector
(:func:`_si_column`).  Every time — ``T(t)``, ``T(z)`` and ``S(t)`` on a
whole grid — and every shift with ``Re λ > μ₊ = max(μ∞(L), 0)``
(``Re λ > 0`` for every stencil) is read from that basis, the shifts as
rational Krylov with one repeated pole (Güttel, *GAMM-Mitt.* 36, 2013).
The pole is ``max(10/τ, 8√(‖L‖∞/τ))``, ``τ = max|t|``, when the call has a
time ``t ≠ 0``; shifts more than a hundredfold below ``10/τ``, and every
shift of a call without times, share a second basis on the pole ``max|λ|``
over them.  Any other shift, such as ``λ = 0``, keeps a factor of its own.
``T(0)`` and ``S(0)`` are exact: the data and zero.  Each column grows its
basis until the a-posteriori bound of Botchev, Grimm & Hochbruck (2013) on
``T`` at every time and the bound ``‖R(λ)‖∞ ≤ 1/(Re λ − μ₊)`` times the
residual at every shift are at most ``EXP_TOL·‖b‖∞``; neither depends on
``‖L‖ ~ h⁻²``.  The second is capped so that it also keeps the residual
within the resolvent's backward-error gate at any ``Re λ``.  Each column is
first scaled by a power of two near its sup norm, so data of any finite
size give the same digits; NaN or infinite data, times, shifts or
operator entries raise :class:`InvalidInput`.

Every factorization in the lab — the Krylov pole or a shift with
``Re λ ≤ μ₊``, a symmetric stencil's graph distances (``−iI − L``), the
shift-invert Lanczos eigenvalue and the interval solve — is one sparse
factorization of ``σI − op``, :func:`_factor`, on a minimum-degree ordering
of its symmetric pattern with SuperLU's threshold partial pivoting.  That
rule keeps the diagonal pivot of a column-dominant matrix, such as every
stencil shift with ``Re σ ≥ 0``, at every step, where Gaussian elimination
has growth factor at most 2 (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., §9.5).  The one other factor is the graph distance's
augmented ``[[I, Lᵀ], [L, −I]]`` for a non-symmetric ``L``, on SuperLU's
default ordering.  The operator is real: a complex one raises
:class:`InvalidInput`.  No factor and no basis outlives the call that made
it.  :meth:`DirichletGridRelation.remember` is the only way into a
relation's memo, which holds results, never a
factor or a basis: it takes requests ``(times, lams, F)`` for every point
a study will read, in one Krylov call, and later calls on those points and
columns read them back and make no factor.  A call on anything else makes
its own Krylov call and keeps nothing.  ``perturbation_experiment`` and
``heat_orbit`` remember once per relation, so a study's certificate,
report and checks share one Krylov call.  Every resolvent column is verified
by its backward error on every read.  The sector certificate makes no
solve: it reads the signs of ``op`` alone.

Operator norms are sup-norms throughout (max absolute row sums), matching
the contraction and maximum-principle structure of the M-matrix stencil:
the contraction certificate is one resolvent call ``x = (λ − L)⁻¹ 1`` for
its λ grid, enclosed by ``(1 ± ρ)`` from its residual.
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
    NotInResolventSet,
    OutsideSector,
    SolverBreakdown,
    VanishingMultiplier,
)
from .grids import DomainMask, Grid, disk, inscribed_polygon, mask_from_shapes, slit
from .relation import LinearRelation
from .spectral import ACCEPT_TOL
from .subspace import Subspace

log = logging.getLogger("relsemi")

DENSE_MAX_NODES = 2500     # largest grid dense_relation assembles
EXP_TOL = 1e-13            # exponential kernel error bound, relative to ‖b‖∞
EXP_MAX_BASIS = 400        # Arnoldi vectors per column before SolverBreakdown
EIG_TOL = 1e-8             # relative accuracy of the first Dirichlet eigenvalues
MULTIPLIER_MIN = 1e-8      # smallest |m| a multiplier may take on the mask
CRITERION_MARGINS = (1, 2, 3)  # node rings of domain_convergence_check's interiors
CONTRACTION_TOL = 1e-12    # slack of supnorm_contraction's bound ‖λR(λ)‖∞ ≤ 1
ARGMAX_COLUMNS = 16        # sample columns per argmax copy in max_principle_check
GAUSS8 = np.polynomial.legendre.leggauss(8)  # panel rule of _residual_integral on [-1, 1]


def _factor(op, sigma):
    """``solve(b)`` with ``σI − op`` over one sparse LU factorization.

    A real ``σ`` gives a real factor, which takes real ``b`` only; a complex
    one takes either.  The matrix is factored on a minimum-degree ordering of
    its symmetric pattern with SuperLU's threshold partial pivoting, which
    keeps a diagonal pivot whenever it is the largest entry left in its
    column (Demmel et al., *SIAM J. Matrix Anal. Appl.* 20, 1999).  On a
    matrix diagonally dominant by columns that holds at every step, so
    Gaussian elimination runs with no row exchange and growth factor at most
    2 (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    §9.5): every stencil shift with ``Re σ ≥ 0`` and ``−iI − L``.  Any other
    matrix may pivot off the diagonal, and every resolvent column is still
    verified by its backward error.  Logs one line (:func:`_logged`).
    """
    sigma = complex(sigma)
    sigma, dt = (sigma.real, float) if sigma.imag == 0.0 else (sigma, complex)
    mat = sigma * sp.identity(op.shape[0], dtype=dt, format="csr") - op.astype(dt)
    lu = spl.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  options={"SymmetricMode": True})
    return _logged(lu, sigma).solve


def _logged(lu, sigma):
    """``lu`` after one debug line with its size, shift ``sigma``, fill and
    pivots: ``diagonal`` when SuperLU kept every diagonal entry as its pivot
    (``perm_r`` equals ``perm_c``), else ``partial``."""
    log.debug("factor n=%d sigma=%s nnz=%d pivot=%s", lu.shape[0], sigma, lu.nnz,
              "diagonal" if np.array_equal(lu.perm_r, lu.perm_c) else "partial")
    return lu


def stencil_on_flags(grid: Grid, flags) -> sp.csr_matrix:
    """5-point Laplacian on the flagged nodes, zero Dirichlet outside.

    Returns an n-by-n matrix over the flagged nodes in flat order; couplings
    to un-flagged neighbours are dropped, which is the matrix form of
    reading ``u = 0`` there.
    """
    m = grid.m
    flags = np.asarray(flags, dtype=bool).ravel()
    if flags.size != m * m:
        raise InvalidInput(f"{flags.size} flags for a grid of {m * m} nodes")
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
    ``vec_norm``) on arrays of shifts and times, with
    sup-norm vector norms.  ``operator`` overrides the plain stencil (used
    by multiplier perturbations); it must be a real matrix acting on the
    masked block in flat node order, and a complex operator or a NaN or
    infinite entry raises :class:`InvalidInput`, the latter naming its row.
    """

    def __init__(self, mask: DomainMask, operator=None, label: str | None = None):
        self.mask = mask
        self.grid = mask.grid
        self.state_dim = mask.grid.n_nodes
        self.omega = mask.indices()
        self.op = stencil_on_flags(mask.grid, mask.values) if operator is None \
            else operator.tocsr()
        if self.op.shape != (self.omega.size, self.omega.size):
            raise InvalidInput("operator block does not match the mask")
        if np.iscomplexobj(self.op):
            raise InvalidInput("operator must be real")
        bad = np.flatnonzero(~np.isfinite(self.op.data))
        if bad.size:
            row = int(np.searchsorted(self.op.indptr, bad[0], side="right")) - 1
            raise InvalidInput(f"operator entry {self.op.data[bad[0]]!r} in row {row} "
                               "is not finite")
        self._mu, self._norm = _sup_norms(self.op)
        self.label = label if label is not None else (mask.label or "mask")
        self._memo = {}  # real column bytes -> what remember evaluated on it

    # -- plumbing ---------------------------------------------------------

    @property
    def n_inside(self) -> int:
        return self.omega.size

    def _data(self, fs):
        """``fs`` as an ``(N,)`` or ``(N, c)`` array of finite entries."""
        fs = np.asarray(fs)
        if fs.ndim not in (1, 2) or fs.shape[0] != self.state_dim:
            raise InvalidInput(f"data of shape {fs.shape} do not have "
                               f"{self.state_dim} rows")
        bad = np.flatnonzero(~np.isfinite(fs).reshape(self.state_dim, -1).all(axis=1))
        if bad.size:
            raise InvalidInput(f"data are not finite at node {int(bad[0])}")
        return fs

    # -- evaluator protocol -------------------------------------------------

    def vec_norm(self, x):
        x = np.asarray(x)
        return np.max(np.abs(x), axis=0 if x.ndim == 1 else -2, initial=0.0)

    def resolvent(self, lams, fs):
        """``R(λ) F`` for every shift in ``lams``.

        Off the mask ``f`` is absorbed by the multivalued part, so only the
        masked block ``b`` is solved, by one Krylov call unless the memo
        (:meth:`remember`) already holds these shifts and columns.  Every
        column is verified on every call: its backward error
        ``‖λx − Lx − f‖∞ / (‖f‖∞ + (|λ| + ‖L‖∞)‖x‖∞)`` on the mask must be
        at most ``spectral.ACCEPT_TOL``, else :class:`NotInResolventSet` is
        raised with ``residual`` set for the first shift, in the order of
        ``lams``, that fails; that check, not the Krylov bound, is the
        final gate.  A NaN or infinite shift or datum raises
        :class:`InvalidInput`.
        """
        lams = _shifts(lams)
        fs = self._data(fs)
        out = np.zeros((lams.size,) + fs.shape, dtype=np.result_type(fs, lams))
        if self.n_inside:
            b = fs[self.omega]
            x = self._read("resolvent", lams, b, out.dtype)
            bnorm = self.vec_norm(b)
            for lam, xk in zip(lams, x):
                scale = bnorm + (abs(lam) + self._norm) * self.vec_norm(xk)
                err = self.vec_norm(lam * xk - self.op @ xk - b) \
                    / np.maximum(scale, np.finfo(float).tiny)
                res = float(np.max(err, initial=0.0))
                if not res <= ACCEPT_TOL:  # a NaN is refused too
                    raise NotInResolventSet(
                        complex(lam), residual=res,
                        reason=f"backward error {res:.3e} exceeds {ACCEPT_TOL:.1e}")
            out[:, self.omega] = x
        return out

    def semigroup(self, zs, fs):
        """``T(z) F`` for every real ``t ≥ 0`` or complex ``z`` in ``zs``.

        The sector of the heat semigroup is the open right half-plane, so a
        complex ``z ≠ 0`` with ``Re z ≤ 0`` raises :class:`OutsideSector`.
        All points come from one Krylov call, or from the memo
        (:meth:`remember`); the values off the mask are zero (the
        multivalued directions are killed at once).
        """
        zs = np.atleast_1d(zs)
        if np.iscomplexobj(zs):
            outside = (zs != 0) & (zs.real <= 0)
            if outside.any():
                raise OutsideSector(f"z={complex(zs[outside][0])!r} outside the "
                                    "right half-plane")
        return self._stack("semigroup", _times(zs), fs)

    def integrated(self, ts, fs):
        """``S(t) F = ∫₀ᵗ T(s) F ds`` on the mask for every time in ``ts``.

        One Krylov call, within ``t·EXP_TOL·‖f‖∞`` per column, or the
        memo's results when it holds these times and columns (a report and
        its off-mask check ask twice).
        """
        return self._stack("integrated", _times(np.asarray(ts, dtype=float)), fs)

    def remember(self, *requests):
        """Evaluate, for each request ``(times, lams, F)``, ``T(t) F``,
        ``S(t) F`` and ``R(λ) F`` at every time in ``times`` and shift in
        ``lams``, all in one Krylov call, and remember them.

        A real column that several requests share is evaluated once, at the
        union of their points.  The results replace the last call's and stay
        until the next ``remember``: later :meth:`semigroup`,
        :meth:`integrated` and :meth:`resolvent` calls on points and columns
        of one request read them and make no factor.  This is the only way
        into the memo; a call on anything else makes its own Krylov call and
        keeps nothing.  :meth:`resolvent` still verifies each column it
        returns, so a shift outside the resolvent set raises when it is
        asked for, not here.  The relation keeps results only: the factor
        and the Krylov bases are dropped on return.
        """
        requests = [(_times(ts), _shifts(ls), self._data(fs)) for ts, ls, fs in requests]
        if self.n_inside:
            merged = {}  # real column bytes -> [column, times, shifts]
            for times, lams, fs in requests:
                for b in _real_columns(fs[self.omega]).T:
                    entry = merged.setdefault(b.tobytes(), [b, [], []])
                    entry[1] += times.tolist()
                    entry[2] += lams.tolist()
            self._memo = self._krylov(
                [(b, _distinct(ts), _distinct(ls)) for b, ts, ls in merged.values()])

    def _stack(self, kind, points, fs):
        """The full-state stack of ``semigroup`` or ``integrated`` values."""
        fs = self._data(fs)
        out = np.zeros((points.size,) + fs.shape, dtype=np.result_type(fs, points, float))
        if self.n_inside:
            out[:, self.omega] = self._read(kind, points, fs[self.omega], out.dtype)
        return out

    def _read(self, kind, points, b, dtype):
        """``kind`` values on the masked block ``b`` at ``points``, as ``dtype``.

        They come from the memo when :meth:`remember` evaluated every point
        on every real column of ``b``, and the read logs ``krylov … memo=hit``;
        else from one Krylov call for exactly this request, which is not
        kept.
        """
        cols = _real_columns(b)
        times, lams = (points[:0], points) if kind == "resolvent" else (points, points[:0])
        vals = _recall(self._memo, kind, points, cols)
        if vals is None:
            vals = _recall(self._krylov([(col, times, lams) for col in cols.T]),
                           kind, points, cols)
        else:
            log.debug("krylov n=%d cols=%d times=%d lams=%d pole=none basis=0 "
                      "bound=0.000e+00 checks=0 direct=0 memo=hit", self.n_inside,
                      cols.shape[1], _distinct(times.tolist()).size,
                      _distinct(lams.tolist()).size)
        return _complex_columns(vals, b, dtype)

    # -- the Krylov call ------------------------------------------------------

    def _krylov(self, requests):
        """``T(t)``, ``S(t)`` and ``R(λ)`` for each request ``(b, times,
        lams)``, ``b`` a real column of the masked block, from one
        shift-and-invert basis per column.

        Times are real ``t ≥ 0`` or complex ``z`` with ``Re z ≥ 0`` (``S``
        then integrates along ``[0, z]``); ``T(0)`` is the column itself and
        ``S(0)`` zero.  The basis is one of ``(I − γL)⁻¹``, built on one
        factorization of ``γ⁻¹ − L`` that serves every column and is dropped
        on return, with ``γ = min(τ/10, √(τ/‖L‖∞)/8)``, ``τ = max|t|`` over
        every request (:func:`_si_column`).  A repeated-pole rational
        approximation of ``e^{tL}`` converges at a rate set by ``γ`` against
        ``t`` (van den Eshof & Hochbruck, 2006), while the residual direction
        ``(I − γL)v_{k+1}`` of its bound grows like ``γ‖L‖∞``; the second
        term balances the two, and ``τ/10`` stays where ``τ‖L‖∞`` is small.
        Krylov shifts are those with ``Re λ > μ₊ = max(μ∞(L), 0)`` (every
        ``Re λ > 0`` for a stencil or a positive multiplier); they are read
        from that basis unless they lie more than a hundredfold below
        ``10/τ``, or every time is 0.  Those share a second basis with
        ``γ = 1/max|λ|`` over them.  Any other shift, such as ``λ = 0``, gets
        a factor of ``λ − L`` of its own, which solves every column that asks
        for it; an exactly singular one leaves NaN values.  Resolvent values
        are not verified here.  Returns a memo: each column's bytes mapped
        to a table of ``"semigroup"``, ``"integrated"`` and ``"resolvent"``
        points and values ``(points, n)``.  Logs one line, ``krylov n= cols=
        times= lams= pole= basis= bound= checks= direct= memo=miss``, with
        the distinct times and shifts, the poles ``γ⁻¹`` (``none`` without a
        basis), the largest basis and bound over the columns, the summed
        bound checks and the shifts factored directly; a read that the memo
        serves logs the same line with ``memo=hit`` instead.
        """
        n = self.n_inside
        mu = self._mu
        tmax = max((float(np.max(np.abs(ts), initial=0.0)) for _, ts, _ in requests),
                   default=0.0)
        tenth = tmax / 10.0
        gamma = min(tenth, math.sqrt(tmax / self._norm) / 8.0) if self._norm else tenth
        poles = [gamma] if tmax > 0.0 else []
        plans = []
        for b, times, lams in requests:
            krylov = lams.real > max(mu, 0.0)
            shifts = lams[krylov]
            if np.iscomplexobj(shifts) and not shifts.imag.any():
                shifts = shifts.real
            # a shift more than a hundredfold below 10/max t would grow every
            # column's basis (at m = 64 and 96 a second factor is cheaper
            # beyond about 300), so it joins the shifts' own pole
            joint = np.abs(shifts) * 100.0 >= 1.0 / tenth if tmax > 0.0 else \
                np.zeros(shifts.size, dtype=bool)
            plans.append((krylov, shifts, joint))
        far = [np.abs(shifts[~joint]) for _, shifts, joint in plans if not joint.all()]
        if far:
            poles.append(1.0 / float(np.max(np.concatenate(far))))
        solves = [_factor(self.op, 1.0 / g) for g in poles]
        out, size, bound, checks = [], 0, 0.0, 0
        for (b, times, lams), (krylov, shifts, joint) in zip(requests, plans):
            exp_vals = np.zeros((2, times.size, n), dtype=np.result_type(times, float))
            res_vals = np.zeros((lams.size, n), dtype=np.result_type(lams, float))
            timed = times != 0
            exp_vals[0][~timed] = b  # T(0) = I and S(0) = 0 on the mask, exactly
            where = np.flatnonzero(krylov)
            # the time pole serves the times and the joint shifts, the
            # shifts' own pole the rest
            parts = [(times[timed], joint)] * (tmax > 0.0) + [(times[:0], ~joint)] * bool(far)
            for g, solve, (ts, pick) in zip(poles, solves, parts):
                if not (ts.size or pick.any()):
                    continue
                (tj, rj), sj, bj, cj = _si_column(self.op, solve, g, mu, b, ts,
                                                   shifts[pick])
                if ts.size:
                    exp_vals[:, timed] = tj
                res_vals[where[pick]] = rj
                size, bound, checks = max(size, sj), max(bound, bj), checks + cj
            out.append({"semigroup": (times, exp_vals[0]),
                        "integrated": (times, exp_vals[1]),
                        "resolvent": (lams, res_vals)})
        direct = _distinct([lam for (_, _, lams), (krylov, _, _) in zip(requests, plans)
                            for lam in lams[~krylov].tolist()])
        for lam in direct.tolist():
            asking = [k for k, (_, _, lams) in enumerate(requests) if np.any(lams == lam)]
            try:
                x = _factor(self.op, lam)(np.column_stack([requests[k][0] for k in asking]))
            except RuntimeError:  # λ − L is exactly singular: resolvent refuses NaN
                x = np.full((n, len(asking)), np.nan)
            for j, k in enumerate(asking):
                points, vals = out[k]["resolvent"]
                vals[points == lam] = x[:, j]
        log.debug("krylov n=%d cols=%d times=%d lams=%d pole=%s basis=%d bound=%.3e "
                  "checks=%d direct=%d memo=miss", n, len(requests),
                  _distinct([t for _, ts, _ in requests for t in ts.tolist()]).size,
                  _distinct([l for _, _, ls in requests for l in ls.tolist()]).size,
                  ",".join(str(1.0 / g) for g in poles) or "none",
                  size, bound, checks, direct.size)
        return {b.tobytes(): table for (b, _, _), table in zip(requests, out)}

    # -- graph geometry -----------------------------------------------------

    def graph_distance(self, u, f):
        """Euclidean distance from the pair ``(u, f)`` to the graph.

        ``u`` and ``f`` are ``(N,)`` states, which give a float, or ``(N, s)``
        blocks, which give one distance per column from one factor.  For an
        ``L`` that is exactly symmetric (every stencil; decided with no
        tolerance) let ``g = f − Lu`` on the mask: the squared distance on
        the mask is min over δ of ``‖δ‖² + ‖Lδ − g‖² = gᴴ(I + L²)⁻¹g``, and
        ``I + L² = (I − iL)(I + iL)`` makes that ``‖(I − iL)⁻¹g‖²``, the
        squared norm of one solve with the diagonally dominant ``−iI − L``
        (an n×n factor with diagonal pivots).  This residual form keeps its
        digits on pairs near the graph, where ``La − f`` cancels like
        ``‖L‖``; on pairs far from it, such as random ones, it is a few ulps
        less accurate than the augmented form, whose distance is stationary
        in ``a``.  Any other ``L``, such as ``diag(m)·L``, measures the
        nearest graph point ``(a, La)``: ``a`` solves ``(I + LᵀL) a = u +
        Lᵀf``, here as ``[[I, Lᵀ], [L, −I]] [a; La − f] = [u; f]``, one 2n×2n
        real factor on SuperLU's default COLAMD ordering, whose condition
        grows like ``‖L‖``, not like the Gram matrix's ``‖L‖²``; its ±1
        diagonal is far below the entries of ``L``, so it pivots off the
        diagonal, and a complex column is solved as its real and imaginary
        parts.  Each column is solved and measured as a contiguous 1-D
        state, so it matches the ``(N,)`` call to the last bit.  ``u`` and
        ``f`` must have one shape and finite entries, else
        :class:`InvalidInput`.  Logs one debug line per call.
        """
        u, f = self._data(u), self._data(f)
        if u.shape != f.shape:
            raise InvalidInput(f"states of shapes {u.shape} and {f.shape} "
                               "do not form pairs")
        ub, fb = (u[:, None], f[:, None]) if u.ndim == 1 else (u, f)
        dists = np.empty(ub.shape[1])
        n = self.n_inside
        residual = (self.op != self.op.T).nnz == 0
        log.debug("graph_distance n=%d cols=%d form=%s", n, dists.size,
                  "residual" if residual else "augmented")
        if n and dists.size:
            if residual:
                solve = _factor(self.op, complex(0.0, -1.0))
            else:
                eye = sp.identity(n, format="csr")
                aug = sp.bmat([[eye, self.op.T], [self.op, -eye]], format="csc")
                lu = _logged(spl.splu(aug), 0.0)

                def solve(b):
                    if np.iscomplexobj(b):
                        return lu.solve(b.real) + 1j * lu.solve(b.imag)
                    return lu.solve(b)
        for j in range(dists.size):
            uj, fj = np.ascontiguousarray(ub[:, j]), np.ascontiguousarray(fb[:, j])
            dists[j] = np.linalg.norm(np.delete(uj, self.omega))
            if not n:
                continue
            if residual:
                x = solve(fj[self.omega] - self.op @ uj[self.omega])
                dists[j] = math.sqrt(dists[j] ** 2 + np.linalg.norm(x) ** 2)
            else:
                a = solve(np.concatenate([uj[self.omega], fj[self.omega]]))[:n]
                du = a - uj[self.omega]
                df = self.op @ a - fj[self.omega]
                dists[j] = math.sqrt(dists[j] ** 2 + np.linalg.norm(du) ** 2
                                     + np.linalg.norm(df) ** 2)
        return float(dists[0]) if u.ndim == 1 else dists

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
    x, w = GAUSS8
    half = np.diff(edges)[:, None] / 2.0
    s = (edges[:-1, None] + half * (x + 1.0)).ravel()
    psi = np.exp(np.outer(s * (z / length), lam)) @ weights
    return float((half * w).ravel() @ np.abs(psi))


def _sup_norms(op) -> tuple[float, float]:
    """``(μ∞(L), ‖L‖∞)`` from one pass over ``|L|``: the logarithmic norm
    ``μ∞(L) = maxᵢ (l_ii + Σ_{j≠i} |l_ij|)``, so ``‖e^{tL}‖∞ ≤ e^{t μ∞(L)}``
    for ``t ≥ 0`` and ``‖R(λ)‖∞ ≤ 1/(Re λ − μ∞(L))`` for ``Re λ > μ∞(L)``,
    and the largest absolute row sum; ``(-inf, 0)`` for an empty block."""
    diag = op.diagonal()
    rowsum = np.asarray(abs(op).sum(axis=1)).ravel()
    return (float(np.max(diag + rowsum - np.abs(diag), initial=-math.inf)),
            float(np.max(rowsum, initial=0.0)))


def _shifts(lams) -> np.ndarray:
    """``lams`` as a flat array of finite shifts, else :class:`InvalidInput`."""
    lams = np.atleast_1d(lams)
    bad = ~np.isfinite(lams)
    if bad.any():
        raise InvalidInput(f"shift {lams[bad][0].item()!r} is not finite")
    return lams


def _times(times) -> np.ndarray:
    """``times`` as a flat array of finite ``t`` with ``Re t ≥ 0``."""
    times = np.atleast_1d(np.asarray(times))
    if times.ndim != 1 or not np.all(np.isfinite(times) & (times.real >= 0)):
        raise InvalidInput("times must be a flat array of finite t with Re t >= 0")
    return times


def _real_columns(b) -> np.ndarray:
    """The masked block ``b`` as ``(n, c)`` real columns, a complex one as its
    real columns followed by its imaginary ones (``L`` is real)."""
    cols = b.reshape(b.shape[0], -1)
    if np.iscomplexobj(cols):
        return np.hstack([cols.real, cols.imag])
    return np.asarray(cols, dtype=float)


def _complex_columns(vals, b, dtype):
    """Stacks ``(points, n, c)`` over :func:`_real_columns` of ``b`` back in
    the shape of ``b``, the two halves recombined for a complex ``b``, and
    real when ``dtype`` is."""
    if np.iscomplexobj(b):
        half = vals.shape[-1] // 2
        vals = vals[..., :half] + 1j * vals[..., half:]
    if not np.issubdtype(dtype, np.complexfloating):
        vals = vals.real
    return vals.reshape(vals.shape[:1] + b.shape)


def _distinct(points) -> np.ndarray:
    """The list ``points`` without repeats (by value), in first-seen order."""
    return np.asarray(list(dict.fromkeys(points)))


def _recall(memo, kind, points, cols):
    """The ``kind`` values of ``memo`` at ``points`` on the real columns
    ``cols``, as ``(points, n, c)``, each column looked up by its bytes;
    ``None`` unless ``memo`` holds every point for each column."""
    picks = []
    for col in cols.T:
        table = memo.get(col.tobytes())
        if table is None:
            return None
        where, vals = table[kind]
        index = {p: i for i, p in enumerate(where.tolist())}
        rows = [index.get(p) for p in points.tolist()]
        if None in rows:
            return None
        picks.append(vals[rows])
    if not picks:
        return np.zeros((points.size, cols.shape[0], 0))
    return np.stack(picks, axis=-1)


def _si_arnoldi(op, solve, gamma, b, check):
    """One shift-and-invert Arnoldi basis of ``A = (I − γL)⁻¹`` for the real,
    nonzero column ``b``: the loop of :func:`_si_column`.

    ``solve`` solves with ``γ⁻¹ I − L``.  Multiplying the Arnoldi relation
    ``A V_k = V_k H_k + h v_{k+1} e_kᵀ`` by ``I − γL`` gives
    ``L V_k = V_k T_k + (h/γ) w e_kᵀ H_k⁻¹`` with ``T_k = (I − H_k⁻¹)/γ``
    and ``w = (I − γL) v_{k+1}``, so any approximation ``β V_k g(T_k) e₁``
    leaves a residual that is a scalar times the one vector ``w``: computing
    it cancels nothing.  At each check, ``check(H_k, ρ)`` gets the
    Hessenberg block and ``ρ = (hβ/γ)‖w‖∞`` (``0`` once the space is
    invariant, which makes the projection exact) and returns the kernel's
    error bound and what the kernel evaluates from.  Checks are placed where
    the bound's observed geometric decay predicts ``EXP_TOL·‖b‖∞``; the loop
    stops only at a check that meets it, and raises
    :class:`SolverBreakdown` when ``EXP_MAX_BASIS`` vectors do not.  Returns
    ``(V_k, β, state, bound, checks)``.
    """
    n = b.size
    scale = float(np.max(np.abs(b)))
    beta = float(np.linalg.norm(b))
    cap = min(EXP_MAX_BASIS, n)
    basis = np.empty((cap + 1, n))
    hess = np.zeros((cap + 1, cap))
    basis[0] = b / beta
    bound = math.inf
    checks, last, due = 0, None, 1
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
            if size < min(due, cap):
                continue
        checks += 1
        resid = 0.0
        if not exhausted:
            v = basis[size]
            resid = float(np.max(np.abs(v - gamma * (op @ v)))) * hess[size, k] * beta / gamma
        bound, state = check(hess[:size, :size], resid)  # 0 when exhausted
        if exhausted or bound <= EXP_TOL * scale:
            break
        # the next check is where the bound's decay since the last check
        # reaches the target, at most half the basis ahead; one step when
        # it did not decay
        step = 1
        if last is not None and bound < last[1]:
            rate = math.log(last[1] / bound) / (size - last[0])
            step = max(1, min(math.ceil(math.log(bound / (EXP_TOL * scale)) / rate),
                              size // 2))
        last, due = (size, bound), size + step
    else:
        raise SolverBreakdown(
            f"shift-and-invert kernel: {cap} basis vectors leave the error bound "
            f"{bound:.2e} above {EXP_TOL * scale:.2e}")
    return basis[:size], beta, state, bound, checks


def _span(coef, basis):
    """``coef @ basis`` for a real basis, complex ``coef`` as two real
    products, so no complex copy of the basis is made."""
    if np.iscomplexobj(coef):
        return coef.real @ basis + 1j * (coef.imag @ basis)
    return coef @ basis


def _si_column(op, solve, gamma, mu, b, times, lams):
    """One real column of :meth:`DirichletGridRelation._krylov`: ``T`` and
    ``S`` at ``times`` and ``R`` at the Krylov shifts ``lams``, from one basis.

    Returns ``((T and S as (2, len(times), n), R as (len(lams), n)), basis
    size, bound, checks)`` of :func:`_si_arnoldi`.  ``b`` is first divided by
    the power of two that puts its sup norm in ``[1, 2)``, which is exact,
    so ``β = ‖b‖₂`` neither overflows nor underflows, and the values and the
    bound are scaled back.  The basis grows until both bounds below are at
    most ``EXP_TOL·‖b‖∞``; a check evaluates the resolvent bound only once
    the exponential one is met, so without shifts, or with shifts the basis
    already serves, the times get the basis and the values they would get
    alone.  The basis size depends on the pole ``γ⁻¹``: on t = 0:0.05:1 over
    the disk with ones and the bump, the ``γ = min(τ/10, √(τ/‖L‖∞)/8)`` of
    :meth:`DirichletGridRelation._krylov` takes 28–39 vectors at m = 32 and
    63–73 at m = 128, where ``γ = τ/10`` took 45–50 and 135–137.

    *Exponential.*  The residual of ``β V_k exp(s T_k) e₁`` as a solution of
    ``u' = L u`` is ``r_k(s) = (h β / γ) (e_kᵀ H_k⁻¹ exp(s T_k) e₁) (I − γL)
    v_{k+1}``, and the bound is ``e^{t μ∞(L)} ∫₀ᵗ ‖r_k(s)‖∞ ds`` at the
    farthest time of each ray (for complex ``z`` the integral runs along
    ``[0, z]`` and is an estimate).  That bound grows along each ray, so the
    error of ``S(t)b`` is at most ``t`` times it.  Both that scalar factor
    and the values go through the eigendecomposition ``H_k = X Θ X⁻¹``
    (``T_k`` has eigenvalues ``(1 − 1/θ)/γ``), which must be well
    conditioned, else :class:`SolverBreakdown`; ``T`` is
    ``β V_k exp(t T_k) e₁`` and ``S`` takes ``t φ₁(tλ) = expm1(tλ)/λ``
    (``t`` at ``λ = 0``) on the same Ritz values.  Each check costs an
    ``eig`` of ``H_k``.

    *Resolvent* (rational Krylov with one repeated pole; Güttel, 2013).  Each
    shift, ``Re λ > μ₊ = max(μ, 0)``, is read as ``x_k = β V_k (λ − T_k)⁻¹
    e₁``.  Since ``λ − T_k = H_k⁻¹((λγ − 1) H_k + I)/γ``, that is
    ``x_k = βγ V_k H_k z`` with ``z = ((λγ − 1) H_k + I)⁻¹ e₁``, one small
    solve per shift and no ``H_k⁻¹``; its residual ``(λ − L) x_k − b =
    −hβ z_k (I − γL) v_{k+1}`` is a scalar times one vector.  With
    ``‖R(λ)‖∞ ≤ 1/(Re λ − μ₊)`` (:func:`_sup_norms`) the bound is
    ``(h/γ)|e_kᵀ H_k⁻¹ y|·‖(I − γL) v_{k+1}‖∞ / (Re λ − μ₊)`` with
    ``y = βγ H_k z``, its divisor capped at ``ACCEPT_TOL/(2·EXP_TOL)`` so
    that a met bound also leaves a residual of at most half what the
    backward-error check accepts.  Like the exponential bound it does not
    count rounding in the Arnoldi relation itself, so that check stays the
    final gate.
    """
    exp_vals = np.zeros((2, times.size, b.size), dtype=np.result_type(times, float))
    res_vals = np.zeros((lams.size, b.size), dtype=np.result_type(lams, float))
    sup = float(np.max(np.abs(b)))
    if sup == 0.0:
        return (exp_vals, res_vals), 0, 0.0, 0
    unit = math.ldexp(1.0, math.frexp(sup)[1] - 1)
    b = b / unit
    target = EXP_TOL * float(np.max(np.abs(b)))  # _si_arnoldi's stopping target
    # the bound grows along each ray, so its farthest point covers the rest
    far = times[times != 0]
    angles = np.angle(far)
    ends = [far[angles == a][np.argmax(np.abs(far[angles == a]))]
            for a in np.unique(angles)]
    # capped so that a met bound also leaves the residual within half the
    # backward-error gate ACCEPT_TOL·‖b‖∞ (it binds only for Re λ > 5000)
    margin = np.minimum(lams.real - max(mu, 0.0), 0.5 * ACCEPT_TOL / EXP_TOL)
    coeff = (lams * gamma - 1.0)[:, None, None]

    def check(hess, resid):
        bounds, ritz, z = [], None, None
        if times.size:
            theta, vecs = np.linalg.eig(hess)
            lam = (1.0 - 1.0 / theta) / gamma
            coef = np.linalg.solve(vecs, np.eye(hess.shape[0])[:, 0])
            ritz = (lam, vecs, coef)
            weights = vecs[-1] / theta * coef
            bounds.append(0.0 if resid == 0.0 else max(
                math.exp(max(0.0, mu * abs(end))) * resid
                * _residual_integral(lam, weights, end) for end in ends))
        if lams.size and max(bounds, default=0.0) <= target:
            e1 = np.zeros((lams.size, hess.shape[0], 1))
            e1[:, 0] = 1.0
            z = spla.solve(coeff * hess + np.eye(hess.shape[0]), e1)[..., 0]
            bounds.append(resid * gamma * float(np.max(np.abs(z[:, -1]) / margin)))
        return float(np.max(bounds)), (ritz, hess, z)

    basis, beta, (ritz, hess, z), bound, checks = _si_arnoldi(op, solve, gamma, b, check)
    if times.size:
        lam, vecs, coef = ritz
        if np.linalg.cond(vecs) > 1e3:
            raise SolverBreakdown("exponential kernel: ill-conditioned Ritz basis")
        tl = np.outer(times, lam)
        nonzero = lam != 0
        integ = np.where(nonzero, np.expm1(tl) / np.where(nonzero, lam, 1.0),
                         times[:, None])
        small = (np.stack([np.exp(tl), integ]) * coef) @ vecs.T
        exp_vals[...] = beta * _span(small if np.iscomplexobj(exp_vals) else small.real,
                                     basis) * unit
    if lams.size:
        res_vals[...] = beta * gamma * _span(z @ hess.T, basis) * unit
    return (exp_vals, res_vals), basis.shape[0], bound * unit, checks


# -- certificates ---------------------------------------------------------


@dataclass
class ContractionCertificate:
    lams: tuple
    norms: tuple        # λ·max x per λ, x the computed (λ − L)⁻¹ 1
    rho: tuple          # per λ, ρ ≥ ‖(λ − L)x − 1‖∞: norms/(1 ± ρ) enclose ‖λR(λ)‖∞
    method: str
    resolvent_min: float  # lower bound on the smallest row sum of R(λ) ≥ 0 (positivity margin)
    tol: float
    ok: bool


def _summed_nonnegative_offdiag(lab: DirichletGridRelation) -> sp.csr_matrix:
    """``lab.op`` with duplicates summed, once its off-diagonal entries are ≥ 0.

    The signs are read exactly, with no tolerance; the first entry below 0
    raises :class:`ContractFailed` naming the member and the row.
    """
    op = lab.op.tocsr(copy=True)
    op.sum_duplicates()
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    neg = np.flatnonzero((op.indices != rows) & ~(op.data >= 0.0))
    if neg.size:
        row = int(rows[neg[0]])
        raise ContractFailed(f"{lab.label}: off-diagonal entry "
                             f"{op.data[neg[0]]:.3e} < 0 in row {row}", row=row)
    return op


def supnorm_contraction(rel: DirichletGridRelation,
                        lams=(0.1, 1.0, 10.0)) -> ContractionCertificate:
    """Certify ``‖λR(λ)‖_∞ ≤ 1 + CONTRACTION_TOL`` on a positive λ-grid.

    One resolvent call: ``x = (λ − L)⁻¹ 1`` for every λ, read on the mask
    from the verified :meth:`DirichletGridRelation.resolvent` with an
    ``(N, 1)`` block of ones (read back, with no factor, when the last
    Krylov call held those shifts and a column of ones), and a solve that
    fails its backward-error check raises :class:`NotInResolventSet`.  The
    certificate does not lean on the Krylov error bound.  Its premise: ``M = λ − L`` is a Z-matrix
    (off-diagonal entries of ``L`` ≥ 0, checked exactly), ``x > 0``, and
    ``ρ ≥ ‖Mx − 1‖∞`` with ``ρ < 1``, where ``ρ`` is the computed residual
    plus a bound on its rounding error.  Then ``Mx > 0``, so ``M`` is a
    nonsingular M-matrix (Berman & Plemmons, ch. 6) and ``R(λ) ≥ 0``, and
    ``x = R(λ)(1 + r)`` with ``|r| ≤ ρ`` gives
    ``(1 − ρ)·R(λ)1 ≤ x ≤ (1 + ρ)·R(λ)1`` entrywise.  So ``λ·max x/(1 ± ρ)``
    enclose ``‖λR(λ)‖∞``, and the verdict is ``λ·max x/(1 − ρ) ≤ 1 +
    CONTRACTION_TOL``.  ``norms`` records ``λ·max x``, ``rho`` each ρ, and
    ``resolvent_min`` the smallest ``min x/(1 + ρ)``, a lower bound on the
    row sums of ``R(λ)``: the positivity margin.  A λ ≤ 0 raises
    :class:`InvalidInput`; a failed premise or a violated bound raises
    :class:`ContractFailed` with the offending λ and row.
    """
    lams = tuple(float(lam) for lam in lams)
    if any(lam <= 0 for lam in lams):
        raise InvalidInput("contraction grid must be positive")
    norms, rhos = [], []
    min_entry = math.inf
    method = "empty"
    if rel.n_inside == 0:
        return ContractionCertificate(lams, (0.0,) * len(lams), (0.0,) * len(lams),
                                      method, min_entry, CONTRACTION_TOL, True)
    op = _summed_nonnegative_offdiag(rel)  # the off-diagonal part of λ − L is that of −L
    # each residual entry sums at most `terms` rounded terms (Higham, §3.1)
    terms = int(np.max(np.diff(op.indptr))) + 3
    sums = rel.resolvent(lams, np.ones((rel.state_dim, 1)))[:, rel.omega, 0]
    for lam, x in zip(lams, sums):
        low = int(np.argmin(x))
        if not x[low] > 0.0:
            raise ContractFailed("shifted operator is not a nonsingular M-matrix: "
                                 f"(λ − L)⁻¹ 1 = {x[low]:.3e}", lam=lam, row=low)
        slack = terms * np.finfo(float).eps * (lam * x + abs(op) @ x + 1.0)
        rho = float(np.max(np.abs(lam * x - op @ x - 1.0) + slack))
        if not rho < 1.0:
            raise ContractFailed(f"residual bound {rho:.3e} of (λ − L)x = 1 is not "
                                 "below 1", lam=lam, row=low)
        method = "mmatrix-solve"
        min_entry = min(min_entry, float(x[low]) / (1.0 + rho))
        worst = int(np.argmax(x))
        norm = lam * float(x[worst])
        if norm / (1.0 - rho) > 1.0 + CONTRACTION_TOL:
            raise ContractFailed(f"sup-norm contraction violated: {norm:.3e} "
                                 f"(residual bound {rho:.1e})", lam=lam, row=worst)
        norms.append(norm)
        rhos.append(rho)
    return ContractionCertificate(lams, tuple(norms), tuple(rhos), method, min_entry,
                                  CONTRACTION_TOL, True)


def surjective_solve(rel: DirichletGridRelation, f):
    """Solve ``A u ∋ f``: ``u`` vanishes off the mask, stencil matches on it.

    This is ``u = R(0)(−f)``, the verified resolvent at 0, so a solve whose
    backward error is too large raises :class:`NotInResolventSet`.
    """
    return rel.resolvent([0.0], -np.asarray(f))[0]


# -- eigenvalues ----------------------------------------------------------


def _smallest_eigenvalue(lap: sp.csr_matrix) -> float:
    """Smallest eigenvalue of ``-lap`` by shift-invert Lanczos at 0.

    ARPACK's ``eigsh`` runs on the one factor of ``-lap`` with its tolerance
    ``1e-3·EIG_TOL`` well below the relative accuracy ``EIG_TOL``.  Its start
    vector is fixed and the restart vectors it draws when a Krylov space
    becomes invariant (a mask of symmetric pieces) come from a seeded
    generator, so reruns agree to the bit.  A run that does not converge
    raises :class:`SolverBreakdown`.
    """
    n = lap.shape[0]
    if n == 0:
        return math.inf
    a = (-lap).tocsc()
    if n == 1:
        return float(a[0, 0])
    inv = spl.LinearOperator((n, n), matvec=_factor(lap, 0.0), dtype=float)
    try:
        vals = spl.eigsh(a, k=1, sigma=0.0, which="LM", OPinv=inv,
                         v0=np.full(n, 1.0 / math.sqrt(n)), tol=1e-3 * EIG_TOL,
                         return_eigenvectors=False, rng=0)
    except spl.ArpackNoConvergence as exc:
        raise SolverBreakdown("shift-invert Lanczos did not converge") from exc
    return float(vals[0])


def first_eigenvalue(grid: Grid, flags) -> float:
    """Smallest Dirichlet eigenvalue of the flagged nodes; +inf when none."""
    if np.asarray(flags).dtype != bool:
        raise InvalidInput("node set must be a boolean mask over the grid")
    return _smallest_eigenvalue(stencil_on_flags(grid, flags))


# -- 1-D interval helpers --------------------------------------------------


def interval_stencil(m: int) -> sp.csr_matrix:
    """The 3-point Dirichlet Laplacian on ``m`` interior nodes of ``(0, 1)``."""
    if m < 1:
        raise InvalidInput("need at least one interior node")
    h = 1.0 / (m + 1)
    main = np.full(m, -2.0 / h ** 2)
    off = np.full(m - 1, 1.0 / h ** 2)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def interval_relation(m: int) -> LinearRelation:
    """Dense operator relation of the interval Laplacian (whole-domain mask)."""
    return LinearRelation.from_operator(interval_stencil(m).toarray())


def interval_nodes(m: int) -> np.ndarray:
    h = 1.0 / (m + 1)
    return h * (np.arange(m) + 1)


def interval_first_eigenvalue(m: int) -> float:
    return _smallest_eigenvalue(interval_stencil(m))


def interval_solve(m: int, f) -> np.ndarray:
    """1-D counterpart of :func:`surjective_solve` on the full interval."""
    f = np.asarray(f, dtype=float)
    return _factor(interval_stencil(m), 0.0)(-f)


# -- multiplier perturbations ----------------------------------------------


@dataclass
class MultiplierEvidence:
    min_abs: float
    positive: bool
    contraction: ContractionCertificate | None


def multiplier_relation(m_values, rel: DirichletGridRelation) -> DirichletGridRelation:
    """Output-scaled relation ``(u, m·f)`` for a nonvanishing multiplier.

    ``m_values`` are real and may live on the whole grid or only on the
    masked nodes; complex ones raise :class:`InvalidInput`, and
    ``|m| < MULTIPLIER_MIN`` on the mask raises :class:`VanishingMultiplier`.
    For strictly positive multipliers the sup-norm contraction certificate
    is re-derived on the scaled stencil.
    """
    m_values = np.asarray(m_values)
    if np.iscomplexobj(m_values):
        raise InvalidInput("multiplier must be real")
    m_values = m_values.astype(float).ravel()
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
                                   label=rel.label + "*m")
    positive = bool(rel.n_inside == 0 or mvals.min() > 0)
    cert = supnorm_contraction(scaled, lams=(1.0,)) if positive else None
    scaled.evidence = MultiplierEvidence(
        float(np.min(np.abs(mvals))) if rel.n_inside else math.inf,
        positive, cert)
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
    # copies the columns it reduces, so it takes a few at a time.
    top = np.empty(samples, dtype=np.intp)
    for j in range(0, samples, ARGMAX_COLUMNS):
        top[j:j + ARGMAX_COLUMNS] = np.argmax(us[:, j:j + ARGMAX_COLUMNS], axis=0)
    cols = np.flatnonzero(us[top, np.arange(samples)] > 0)
    # f = Lu at the sup node only: that CSR row of L against the sample,
    # summed in CSR order as the product L @ u sums it
    op = rel.op
    start = op.indptr[top[cols]]
    width = op.indptr[top[cols] + 1] - start
    fs = np.zeros(cols.size)
    for k in range(int(np.max(width, initial=0))):
        has = np.flatnonzero(width > k)
        at = start[has] + k
        fs[has] += op.data[at] * us[op.indices[at], cols[has]]
    slack = float(np.min(-fs, initial=math.inf))
    return MaxPrincipleReport(cols.size, samples - cols.size, slack)


# -- sector uniformity --------------------------------------------------------


@dataclass
class SectorUniformity:
    eps: float
    labels: tuple
    per_label: tuple
    bound: float


def sector_uniformity(labs, eps: float = 0.1) -> SectorUniformity:
    """A sup-norm bound for ``λ R(λ)`` on ``|arg λ| ≤ π/2 − eps``, per member.

    Each member's ``L`` must have off-diagonal entries ≥ 0 and row sums
    ≤ 0, both checked exactly (each row sum is one correctly rounded
    ``math.fsum``).  Then ``e^{tL}`` is positive and sup-norm contractive,
    so ``|R(λ)f| ≤ R(Re λ)|f|`` entrywise and
    ``‖λR(λ)‖∞ ≤ |λ|/Re λ ≤ 1/sin eps`` on the whole sector, at any mesh
    (Arendt, Batty, Hieber & Neubrander, *Vector-valued Laplace Transforms
    and Cauchy Problems*, positive semigroups).  A member that breaks the
    premise raises :class:`ContractFailed` naming it and the row.  Nothing
    is factored or solved.
    """
    labs = list(labs)
    if not labs:
        raise InvalidInput("empty family")
    if not 0.0 < eps <= math.pi / 2:
        raise InvalidInput("sector margin eps must lie in (0, pi/2]")
    for lab in labs:
        op = _summed_nonnegative_offdiag(lab)
        data, ptr = op.data.tolist(), op.indptr.tolist()
        for row in range(op.shape[0]):
            total = math.fsum(data[ptr[row]:ptr[row + 1]])
            if not total <= 0.0:
                raise ContractFailed(f"{lab.label}: row {row} sums to "
                                     f"{total:.3e} > 0", row=row)
    bound = 1.0 / math.sin(eps)
    return SectorUniformity(eps, tuple(lab.label for lab in labs),
                            (bound,) * len(labs), bound)


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
    ok: bool


def _grows(trace) -> bool:
    """Whether ``trace`` never decreases (up to 1e-9), or jumps to ``inf``."""
    prev, nxt = trace[:-1], trace[1:]
    with np.errstate(invalid="ignore"):
        return bool(np.all(np.isinf(nxt) | (nxt >= prev * (1 - 1e-9) - 1e-9)))


def domain_convergence_check(masks, limit: DomainMask) -> DomainConvergence:
    """Discrete compact-inclusion and surplus-eigenvalue traces.

    Condition (a): for each margin of ``CRITERION_MARGINS``, the limit's
    deep-interior node set must lie in every member from some index on.
    Condition (b): the raw first eigenvalue of each member's surplus node
    set (off the limit's closure) must grow toward infinity (vanishing
    surplus).  Deficit traces are recorded alongside as the inner-family
    counterpart.
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
    return DomainConvergence(CRITERION_MARGINS, n0, s_counts, s_eigs,
                             s_counts * grid.h ** 2, d_counts, d_eigs, _grows(s_eigs))


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
                            seed: int = 0) -> PerturbationReport:
    """Domain-perturbation convergence study in the sup norm.

    Precondition: every relation in sight passes the contraction
    certificate on the positive part of ``lambda_grid`` (raises
    :class:`ContractFailed` otherwise).  The gap criterion is deliberately
    not among the default items: at a fixed mesh two different masks stay a
    fixed gap apart, and the domain-convergence criterion plus nearest-pair
    distances carry that role instead.

    Each member and the limit make one Krylov call before the certificate
    (:meth:`DirichletGridRelation.remember`) for every point that the
    certificate, the report and the off-limit check read: ``t_grid``, the
    positive λ grid, ``lambda_grid`` and ``mu`` on the columns of
    ``f_set``, and the positive λ grid on the certificate's column of
    ones.  They then read stored results; a shift that fails its
    backward-error check raises only where it is read.
    """
    labs = [DirichletGridRelation(mk) for mk in masks]
    lim = DirichletGridRelation(limit_mask)
    pos = [float(l.real) for l in np.atleast_1d(lambda_grid)
           if complex(l).imag == 0 and complex(l).real > 0] or [1.0]
    f_set = np.atleast_2d(np.asarray(f_set))
    shifts = [*pos, *(lambda_grid if {"ii", "iii"} & set(items) else ()),
              *([mu] if "iv" in items and complex(mu).real > 0 else ())]
    shifts = list(dict.fromkeys(complex(l) for l in shifts))
    for lab in [*labs, lim]:
        lab.remember((np.asarray(t_grid, dtype=float), shifts, f_set),
                     ((), pos, np.ones((lim.state_dim, 1))))
    contraction = {}
    for lab in [*labs, lim]:
        contraction[lab.label] = supnorm_contraction(lab, lams=tuple(pos))
    report = trotter_kato_report(labs, lim, lambda_grid, t_grid, f_set=f_set,
                                 tol=tol, mu=mu, items=items,
                                 labels=tuple(lab.label for lab in labs))
    criterion = domain_convergence_check(masks, limit_mask)
    rng = np.random.default_rng(seed)
    dists = np.zeros((len(labs), samples))
    if samples:
        g = rng.standard_normal((lim.state_dim, samples))
        u = lim.resolvent([1.0], g)[0]
        f = u - g  # (u, f) lies on the limit graph: u - f = g = (1 - A)u
        for k, lab in enumerate(labs):
            dists[k] = lab.graph_distance(u, f)
    off = ~limit_mask.values
    off_sup = np.zeros(len(labs))
    for k, lab in enumerate(labs):
        traj = lab.integrated(np.asarray(t_grid, dtype=float), f_set)
        off_sup[k] = float(np.max(np.abs(traj[:, off, :]))) if off.any() else 0.0
    header = {
        "norm": "sup",
        "assumption": "shapes are chosen regular and stable in the continuum; "
                      "all statements here are at the fixed mesh",
        "criterion_direction": "to_infinity",
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

    Membership is the graph distance of ``(S(τ) u0, T(τ) u0 − P u0)`` at the
    middle and last grid times, the integrated form of ``u' ∈ Au``, so at
    most ``√n (1 + τ) EXP_TOL ‖u0‖∞`` by the kernel's error bounds.
    ``T(0)``, the orbit and ``S`` are remembered by one Krylov call
    (:meth:`DirichletGridRelation.remember`), which replaces ``rel``'s memo,
    and read back with no factor; ``T(0) u0`` is ``P u0`` exactly, so
    ``projection_defect`` is 0.  ``u0`` must be real: a complex state
    raises :class:`InvalidInput`.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0) or np.any(np.diff(t_grid) <= 0):
        raise InvalidInput("time grid must be positive and strictly increasing")
    u0 = np.asarray(u0)
    if u0.shape != (rel.state_dim,):
        raise InvalidInput("initial state has the wrong length")
    if np.iscomplexobj(u0):
        raise InvalidInput("initial state must be real")
    u0 = u0.astype(float)
    times = np.concatenate([[0.0], t_grid])
    rel.remember((times, (), u0))
    traj, integ = rel.semigroup(times, u0), rel.integrated(times, u0)
    states = traj[1:]
    pu0 = np.zeros_like(u0)
    pu0[rel.omega] = u0[rel.omega]
    projection_defect = float(np.max(np.abs(traj[0] - pu0), initial=0.0))
    initial_trace = np.array([
        float(np.linalg.norm(states[j][rel.omega] - u0[rel.omega]))
        for j in range(t_grid.size)])
    off_mask = np.ones(rel.state_dim, dtype=bool)
    off_mask[rel.omega] = False
    off_domain_max = float(np.max(np.abs(states[:, off_mask]), initial=0.0))
    picks = sorted({t_grid.size // 2, t_grid.size - 1})
    residuals = rel.graph_distance(integ[1:][picks].T, (states[picks] - pu0).T).tolist()
    denom = max(float(np.max(np.abs(pu0), initial=0.0)), 1e-300)
    sup_ratio = float(np.max(np.abs(states), initial=0.0)) / denom
    decreasing = bool(np.all(states[1:] <= states[:-1] + 1e-12))
    return HeatOrbit(t_grid, states, projection_defect, initial_trace,
                     off_domain_max, tuple(float(t_grid[j]) for j in picks),
                     tuple(residuals), sup_ratio, float(states.min(initial=0.0)),
                     decreasing)


# -- experiment mask builders -----------------------------------------------------


def disk_mask(grid: Grid, radius: float = 0.7) -> DomainMask:
    """The disk of ``radius`` about the origin, labelled ``"disk"``."""
    return mask_from_shapes(grid, [disk((0.0, 0.0), radius)], label="disk")


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


def bump_function(grid: Grid) -> np.ndarray:
    """Gaussian bump of width 0.2 about (0.15, −0.1), normalized to sup-norm one."""
    pts = grid.node_coords()
    vals = np.exp(-((pts[:, 0] - 0.15) ** 2 + (pts[:, 1] + 0.1) ** 2) / (2.0 * 0.2 ** 2))
    return vals / vals.max()
