"""The heat lab's Krylov resolvent and contraction enclosure against oracles.

``DirichletGridRelation.resolvent`` reads every shift with ``Re λ > 0``
from one shift-and-invert basis per column on one pole factor; its results
are checked against dense solves at small m and against direct sparse
factors as the grid is refined.  The contraction certificate's enclosure
``λ·max x/(1 ± ρ)`` must contain the dense ``‖λR(λ)‖∞``.
"""

import collections
import logging

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from conftest import time_pole
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi import heatlab
from relsemi.grids import DomainMask, Grid
from relsemi.heatlab import (
    EXP_TOL,
    DirichletGridRelation,
    bump_function,
    disk_mask,
    perturbation_experiment,
    polygon_family,
    slit_family,
    supnorm_contraction,
)
from relsemi.errors import InvalidInput, NotInResolventSet
from relsemi.spectral import ACCEPT_TOL

SHIFTS = (0.1, 0.5, 1.0, 2.0, 10.0, 1 + 1j, 0.5 + 3j)


def _backward_error(rel, lam, x, b):
    op = rel.op
    scale = np.max(np.abs(b)) + (abs(lam) + np.max(abs(op).sum(axis=1))) * np.max(np.abs(x))
    return np.max(np.abs(lam * x - op @ x - b)) / scale


@given(m=st.integers(4, 16), radius=st.floats(0.25, 0.6), scaled=st.booleans(),
       field=st.sampled_from(["real", "complex"]), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_krylov_resolvent_matches_dense_solve(m, radius, scaled, field, seed):
    # stencil or diag(m)·L with m > 0 (not symmetric), every shift of one call
    # from the basis on the pole factor at max |λ|; each column is within the
    # stopping bound EXP_TOL·‖b‖∞ of the dense solve, per real column of b
    rng = np.random.default_rng(seed)
    rel = DirichletGridRelation(disk_mask(Grid(m), radius))
    if scaled:
        rel = DirichletGridRelation(
            rel.mask, operator=sp.diags(rng.uniform(0.5, 2.0, rel.n_inside)) @ rel.op)
    f = rng.standard_normal((rel.state_dim, 2))
    if field == "complex":
        f = f + 1j * rng.standard_normal(f.shape)
    got = rel.resolvent(SHIFTS, f)
    if rel.n_inside == 0:
        assert got.shape == (len(SHIFTS),) + f.shape and not got.any()
        return
    dense = rel.op.toarray()
    b = f[rel.omega]
    stop = EXP_TOL * (np.max(np.abs(b.real), axis=0) + np.max(np.abs(b.imag), axis=0))
    for lam, x in zip(SHIFTS, got):
        assert not np.delete(x, rel.omega, axis=0).any()
        ref = np.linalg.solve(lam * np.eye(rel.n_inside) - dense, b)
        assert np.all(np.max(np.abs(x[rel.omega] - ref), axis=0) <= stop)
        assert _backward_error(rel, lam, x[rel.omega], b) <= ACCEPT_TOL


@pytest.mark.parametrize("m", [32, 64, 128, 256])
def test_krylov_resolvent_keeps_its_digits_under_refinement(m):
    # against a direct factor per shift: the Krylov bound allows EXP_TOL·‖b‖∞,
    # and the direct factor's own error (measured ≤ 1.3e-14·‖b‖∞ up to
    # m = 256) fits in a second EXP_TOL; the bound does not grow with m
    rel = DirichletGridRelation(disk_mask(Grid(m), 0.7))
    f = np.column_stack([np.ones(rel.state_dim), bump_function(rel.grid)])
    lams = (0.5, 1.0, 2.0, 1 + 1j)
    got = rel.resolvent(lams, f)
    b = f[rel.omega]
    n = rel.n_inside
    for lam, x in zip(lams, got):
        dt = complex if isinstance(lam, complex) else float
        mat = (lam * sp.identity(n, dtype=dt, format="csc") - rel.op).tocsc()
        ref = spl.splu(mat).solve(b.astype(dt))
        err = np.max(np.abs(x[rel.omega] - ref), axis=0)
        assert np.all(err <= 2.0 * EXP_TOL * np.max(np.abs(b), axis=0))


def _time_poles(masks, t_max):
    """The time pole of every relation's one Krylov call, counted."""
    return collections.Counter(complex(time_pole(DirichletGridRelation(mk).op, t_max))
                               for mk in masks)


def test_one_experiment_factors_each_pole_once(monkeypatch):
    # each relation's one Krylov call, on the exponential kernel's pole 1/γ,
    # serves S(t), the certificate's λ ∈ {0.5, 1, 2} and mu = 1 + i; the
    # certificate and the report read it back and factor nothing
    grid = Grid(16)
    shifts = collections.Counter()
    factor = heatlab._factor
    monkeypatch.setattr(heatlab, "_factor",
                        lambda op, sigma: shifts.update([complex(sigma)]) or factor(op, sigma))
    masks = [*polygon_family(grid, 0.7, sides=(3, 4, 6)), disk_mask(grid, 0.7)]
    perturbation_experiment(masks[:-1], masks[-1], [0.5, 1.0, 2.0],
                            np.linspace(0.0, 1.0, 4), np.ones((grid.n_nodes, 1)),
                            tol=0.5, samples=2)
    # per relation (3 members and the limit) its pole 1/γ (here 8√‖L‖∞ ≈ 192,
    # the same for all four); the samples' R(1) on the limit; per member a
    # graph distance at −i and a deficit eigenvalue at 0
    poles = _time_poles(masks, 1.0)
    assert list(poles.values()) == [4] and 1.0 not in poles
    assert shifts == poles + collections.Counter({1: 1, -1j: 3, 0: 3})


@pytest.mark.parametrize("f_name, lambda_grid, t_max, want", [
    # no column of ones in f_set: the certificate's column rides on the
    # same factor, with no times
    ("bump", [0.5, 1.0, 2.0], 1.0, {1: 1, -1j: 3, 0: 3}),
    # λ = 0 on the grid keeps a factor of its own, made once per relation
    ("ones", [0.0, 0.5, 1.0, 2.0], 1.0, {1: 1, -1j: 3, 0: 7}),
    # the shifts lie more than a hundredfold below 10/max t = 10⁴, which is
    # also the pole (max t·‖L‖∞ is small): a second pole, max|λ| = 2, in the
    # same call
    ("ones", [0.5, 1.0, 2.0], 1e-3, {2: 4, 1: 1, -1j: 3, 0: 3}),
])
def test_an_experiment_factors_each_pole_once_on_any_input(monkeypatch, f_name,
                                                           lambda_grid, t_max, want):
    grid = Grid(16)
    shifts = collections.Counter()
    factor = heatlab._factor
    monkeypatch.setattr(heatlab, "_factor",
                        lambda op, sigma: shifts.update([complex(sigma)]) or factor(op, sigma))
    f = bump_function(grid) if f_name == "bump" else np.ones(grid.n_nodes)
    masks = [*polygon_family(grid, 0.7, sides=(3, 4, 6)), disk_mask(grid, 0.7)]
    perturbation_experiment(masks[:-1], masks[-1], lambda_grid,
                            np.linspace(0.0, t_max, 4), f[:, None], tol=0.5, samples=2)
    poles = _time_poles(masks, t_max)
    assert list(poles.values()) == [4]
    if t_max < 1.0:
        assert poles == {1e4: 4}
    assert shifts == poles + collections.Counter(want)


def test_a_large_shift_meets_the_backward_error_gate():
    # the resolvent bound divides the residual by Re λ − μ₊; capped, a met
    # bound also keeps the residual within the gate, so R(1e5) and R(1e7)
    # on their own pole are accepted at m = 64
    rel = DirichletGridRelation(disk_mask(Grid(64), 0.7))
    f = np.column_stack([np.ones(rel.state_dim), bump_function(rel.grid)])
    lams = (1e5, 1e7)
    got = rel.resolvent(lams, f)
    b = f[rel.omega]
    for lam, x in zip(lams, got):
        mat = (lam * sp.identity(rel.n_inside, format="csc") - rel.op).tocsc()
        ref = spl.splu(mat).solve(b)
        err = np.max(np.abs(x[rel.omega] - ref), axis=0)
        assert np.all(err <= 2.0 * EXP_TOL * np.max(np.abs(b), axis=0))
        assert _backward_error(rel, lam, x[rel.omega], b) <= 0.5 * ACCEPT_TOL


def test_an_exactly_singular_shift_is_refused_where_it_is_read():
    # one node: L = [−4/h²], so λ = −4/h² makes λ − L exactly zero
    grid = Grid(8)
    flags = np.zeros(grid.n_nodes, dtype=bool)
    flags[27] = True
    rel = DirichletGridRelation(DomainMask(grid, flags))
    eig = float(rel.op.toarray()[0, 0])
    f = np.ones((grid.n_nodes, 1))
    rel.remember(([0.5], [1.0, eig], f))  # does not raise
    assert rel.resolvent([1.0], f)[0, 27, 0] == pytest.approx(1.0 / (1.0 - eig))
    with pytest.raises(NotInResolventSet):
        rel.resolvent([eig], f)
    with pytest.raises(NotInResolventSet):
        DirichletGridRelation(DomainMask(grid, flags)).resolvent([eig], f)


def test_resolvent_logs_one_line_per_call(caplog):
    rel = DirichletGridRelation(disk_mask(Grid(12), 0.7))
    n = rel.n_inside
    ones = np.ones((rel.state_dim, 1))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        first = rel.resolvent([0.5, 1.0, 2.0], ones)
        # the same shifts; only what remember evaluated is kept, so this
        # read makes its own call
        again = rel.resolvent([0.5 + 0j, 1.0, 2.0], ones)
        rel.resolvent([0.0, 1.0], ones)
        rel.remember(((), [0.0, 1.0], ones))
        rel.resolvent([0.0, 1.0], ones)
    messages = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith(("factor ", "krylov "))]
    kinds = [msg.split()[0] for msg in messages]
    assert kinds == (["factor", "krylov"] * 2 + ["factor", "factor", "krylov"] * 2
                     + ["krylov"])
    assert messages[0].startswith(f"factor n={n} sigma=2.0 ")
    assert messages[1].startswith(f"krylov n={n} cols=1 times=0 lams=3 pole=2.0 basis=")
    assert messages[1].endswith(" direct=0 memo=miss")
    assert messages[3] == messages[1]
    # λ = 0 keeps a factor of its own
    assert messages[5].startswith(f"factor n={n} sigma=0.0 ")
    assert messages[6].startswith(f"krylov n={n} cols=1 times=0 lams=2 pole=1.0 ")
    assert messages[6].endswith(" direct=1 memo=miss")
    assert messages[9] == messages[6]
    assert messages[10] == (f"krylov n={n} cols=1 times=0 lams=2 pole=none basis=0 "
                            "bound=0.000e+00 checks=0 direct=0 memo=hit")
    bound = float(messages[1].split(" bound=")[1].split()[0])
    assert bound <= EXP_TOL
    assert again.dtype == complex and np.array_equal(again, first)


@pytest.mark.parametrize("m", [8, 12, 16])
@pytest.mark.parametrize("kind", ["disk", "slit"])
def test_contraction_enclosure_contains_the_dense_norm(m, kind):
    grid = Grid(m)
    rel = DirichletGridRelation(disk_mask(grid, 0.7) if kind == "disk"
                                else slit_family(grid, 0.7)[-1])
    lams = (0.1, 1.0, 10.0)
    cert = supnorm_contraction(rel, lams=lams)
    assert len(cert.rho) == len(lams)
    dense = rel.op.toarray()
    for lam, norm, rho in zip(lams, cert.norms, cert.rho):
        assert 0.0 < rho < 1e-10
        exact = lam * np.max(np.abs(np.linalg.inv(lam * np.eye(rel.n_inside) - dense))
                             .sum(axis=1))
        assert norm / (1.0 + rho) <= exact <= norm / (1.0 - rho)


@pytest.mark.parametrize("c", [1e-300, 1e300])
@pytest.mark.parametrize("lams", [(1.0,), (0.0, 0.5, 2.0, 1 + 1j)])
def test_resolvent_is_scale_invariant(c, lams):
    # 1 is in the resolvent set whatever the size of the data: every shift,
    # Krylov or direct, gives c times the unscaled result and passes its gate
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    f = np.column_stack([bump_function(grid),
                         np.random.default_rng(2).standard_normal(grid.n_nodes)])
    ref = rel.resolvent(lams, f)
    got = rel.resolvent(lams, c * f)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - c * ref)) <= 1e-14 * c * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                 complex(np.inf, 1.0)])
def test_resolvent_refuses_non_finite_shifts(lam):
    rel = DirichletGridRelation(disk_mask(Grid(12), 0.7))
    with pytest.raises(InvalidInput, match="shift"):
        rel.resolvent([1.0, lam], np.ones(rel.state_dim))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_resolvent_refuses_non_finite_data(bad):
    rel = DirichletGridRelation(disk_mask(Grid(12), 0.7))
    f = np.ones(rel.state_dim, dtype=type(bad))
    f[rel.omega[3]] = bad
    with pytest.raises(InvalidInput, match="data"):
        rel.resolvent([0.0, 1.0], f)
