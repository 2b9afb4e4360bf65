"""The heat lab's exponential kernel against dense ``scipy.linalg.expm``."""

import cmath
import logging

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import time_pole
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi import heatlab
from relsemi.errors import InvalidInput, SolverBreakdown
from relsemi.grids import DomainMask, Grid
from relsemi.heatlab import (
    EXP_TOL,
    DirichletGridRelation,
    bump_function,
    disk_mask,
    perturbation_experiment,
    polygon_family,
)

TOL = 1e-10

masks = st.tuples(st.integers(4, 16), st.floats(0.2, 0.55))
data_kinds = st.sampled_from(["ones", "bump", "random"])


def _relation(m, radius, scaled, seed):
    rel = DirichletGridRelation(disk_mask(Grid(m), radius))
    if scaled:  # diag(m)·L: a multiplier operator, not symmetric
        mult = np.random.default_rng(seed).uniform(0.5, 2.0, rel.n_inside)
        rel = DirichletGridRelation(rel.mask, operator=sp.diags(mult) @ rel.op)
    return rel


def _data(kind, grid, seed):
    if kind == "ones":
        return np.ones(grid.n_nodes)
    if kind == "bump":
        return bump_function(grid)
    return np.random.default_rng(seed).standard_normal(grid.n_nodes)


def _dense_exp(rel, z, f):
    """``exp(zL)`` on the mask and zero off it: the oracle."""
    out = np.zeros(f.shape, dtype=np.result_type(f, z, float))
    if rel.n_inside:
        out[rel.omega] = sla.expm(z * rel.op.toarray()) @ f[rel.omega]
    return out


@given(mask=masks, kind=data_kinds, seed=st.integers(0, 10_000), scaled=st.booleans())
@settings(max_examples=40, deadline=None)
def test_trajectories_match_dense_expm(mask, kind, seed, scaled):
    rel = _relation(*mask, scaled, seed)
    f = _data(kind, rel.grid, seed)
    # t = 0 plus a sorted non-uniform grid
    ts = np.concatenate([[0.0], np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, 5))])
    traj = rel.semigroup(ts, f)
    integ = rel.integrated(ts, f[:, None])
    dense_op = rel.op.toarray()
    for t, got, got_s in zip(ts, traj, integ):
        want = _dense_exp(rel, t, f)
        assert np.max(np.abs(got - want)) <= TOL
        want_s = np.zeros(rel.state_dim)
        if rel.n_inside:
            want_s[rel.omega] = np.linalg.solve(dense_op, want[rel.omega] - f[rel.omega])
        assert np.max(np.abs(got_s[:, 0] - want_s)) <= TOL


@given(mask=masks, kind=data_kinds, seed=st.integers(0, 10_000), scaled=st.booleans(),
       modulus=st.floats(0.01, 2.0), angle=st.floats(-1.5, 1.5))
@settings(max_examples=40, deadline=None)
def test_holomorphic_columns_match_dense_expm(mask, kind, seed, scaled, modulus, angle):
    rel = _relation(*mask, scaled, seed)
    f = _data(kind, rel.grid, seed)
    fs = np.column_stack([f, (1.0 + 2.0j) * f[::-1]])  # one real, one complex column
    z = modulus * cmath.exp(1j * angle)
    got = rel.semigroup([z], fs)[0]
    assert np.max(np.abs(got - _dense_exp(rel, z, fs))) <= TOL


def _dense_integral(rel, t, f):
    """``t φ₁(tL) f`` on the mask and zero off it, as the top-right block of
    ``expm([[tL, tI], [0, 0]])``: the oracle of ``S(t)``."""
    out = np.zeros(f.shape, dtype=np.result_type(f, float))
    n = rel.n_inside
    if n:
        aug = np.zeros((2 * n, 2 * n))
        aug[:n, :n] = t * rel.op.toarray()
        aug[:n, n:] = t * np.eye(n)
        out[rel.omega] = sla.expm(aug)[:n, n:] @ f[rel.omega]
    return out


@given(mask=masks, kind=data_kinds, seed=st.integers(0, 10_000), scaled=st.booleans(),
       field=st.sampled_from(["real", "complex"]))
@settings(max_examples=40, deadline=None)
def test_integrated_matches_dense_phi1(mask, kind, seed, scaled, field):
    # S(t)b comes from the Krylov sweep of T(t)b, within t times its bound
    rel = _relation(*mask, scaled, seed)
    f = _data(kind, rel.grid, seed)
    if field == "complex":
        f = f - 0.5j * f[::-1]
    ts = np.concatenate([[0.0], np.sort(np.random.default_rng(seed).uniform(0.0, 2.0, 5))])
    inside = f[rel.omega]
    scale = float(np.max(np.abs(inside.real), initial=0.0)
                  + np.max(np.abs(inside.imag), initial=0.0))
    for t, got in zip(ts, rel.integrated(ts, f)):
        assert np.max(np.abs(got - _dense_integral(rel, t, f))) <= t * EXP_TOL * scale


def test_empty_mask_kernel():
    grid = Grid(6)
    rel = DirichletGridRelation(DomainMask(grid, np.zeros(grid.n_nodes, dtype=bool)))
    f = np.ones(grid.n_nodes)
    assert not rel.semigroup([0.0, 0.5], f).any()
    assert not rel.integrated([0.5], f).any()
    assert not rel.semigroup([1.0 + 1.0j], f[:, None]).any()


def test_basis_cap_raises_solver_breakdown(monkeypatch):
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    monkeypatch.setattr(heatlab, "EXP_MAX_BASIS", 2)
    with pytest.raises(SolverBreakdown):
        rel.semigroup([0.5, 1.0], bump_function(grid))


def test_kernel_logs_one_debug_line_per_call(caplog):
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        rel.semigroup([0.5, 1.0], np.ones(grid.n_nodes))
        # both columns and the time were in the last call, but only what
        # remember evaluated is kept, so this read makes its own call
        rel.semigroup([1.0], np.ones((grid.n_nodes, 2)))
        rel.semigroup([1.0], bump_function(grid))
        rel.remember(([1.0], (), bump_function(grid)))
        rel.semigroup([1.0], bump_function(grid))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("krylov")]
    assert len(lines) == 5
    head = f"krylov n={rel.n_inside} cols="
    pole = time_pole(rel.op, 1.0)
    assert lines[0].startswith(f"{head}1 times=2 lams=0 pole={pole} ")
    assert lines[1].startswith(f"{head}2 times=1 lams=0 pole={pole} ")
    assert lines[2].startswith(f"{head}1 times=1 lams=0 pole={pole} ")
    assert all(line.endswith(" direct=0 memo=miss") for line in lines[:4])
    assert lines[4] == (f"{head}1 times=1 lams=0 pole=none "
                        "basis=0 bound=0.000e+00 checks=0 direct=0 memo=hit")
    assert all("basis=" in line and "bound=" in line for line in lines)
    assert all(" checks=" in line for line in lines)


def test_kernel_checks_its_bound_a_few_times_per_column(monkeypatch, caplog):
    # each check is one eig of the Hessenberg matrix; a fixed schedule of
    # sizes 1…15, then every 2, 4, … vectors made 29 here
    grid = Grid(32)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    b = bump_function(grid)[rel.omega]
    eigs = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: eigs.append(a.shape) or eig(a))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        rel.integrated(np.linspace(0.0, 1.0, 5), bump_function(grid))
    line = next(r.getMessage() for r in caplog.records
                if r.getMessage().startswith("krylov"))
    assert " cols=1 " in line and line.endswith(f" checks={len(eigs)} direct=0 memo=miss")
    assert 0 < len(eigs) <= 16
    assert float(line.split(" bound=")[1].split()[0]) <= EXP_TOL * np.max(np.abs(b))


@pytest.mark.parametrize("m, want", [(32, (28, 39)), (64, (41, 52)), (96, (52, 64)),
                                     (128, (63, 73))])
def test_the_mesh_aware_pole_builds_smaller_bases_under_refinement(caplog, m, want):
    # basis sizes for ones and the bump on t = 0:0.05:1 at the pole
    # max(10, 8√‖L‖∞), measured; the pole 10 alone, which ignores how stiff
    # L is, needs more at every mesh (45/50 at m = 32, 137/135 at m = 128)
    rel = DirichletGridRelation(disk_mask(Grid(m), 0.7))
    ts = np.linspace(0.0, 1.0, 21)
    solve = heatlab._factor(rel.op, 10.0)
    for f, size in zip((np.ones(rel.state_dim), bump_function(rel.grid)), want):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="relsemi"):
            rel.semigroup(ts, f)
        line = next(r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("krylov"))
        assert f" pole={time_pole(rel.op, 1.0)} basis={size} " in line
        _, old, _, _ = heatlab._si_column(rel.op, solve, 0.1, rel._mu, f[rel.omega], ts,
                                          np.zeros(0))
        assert size < old


def test_perturbation_experiment_sweeps_each_mask_once(monkeypatch):
    grid = Grid(16)
    limit = disk_mask(grid, 0.7)
    masks = polygon_family(grid, 0.7, sides=(3, 4, 6))
    calls = []
    kernel = DirichletGridRelation._krylov

    def counting(self, *args, **kwargs):
        calls.append(self.label)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(DirichletGridRelation, "_krylov", counting)
    f = np.ones((grid.n_nodes, 1))
    perturbation_experiment(masks, limit, lambda_grid=[1.0],
                            t_grid=np.linspace(0.0, 1.0, 5), f_set=f, tol=0.5,
                            items=("i",), samples=0)
    assert sorted(calls) == sorted([m.label for m in masks] + [limit.label])


@pytest.mark.parametrize("c", [1e-300, 1e300])
@pytest.mark.parametrize("kind", ["bump", "random"])
def test_kernel_is_scale_invariant(c, kind):
    # each column is scaled by a power of two near its sup norm before the
    # loop, so β = ‖b‖₂ neither overflows nor underflows: at c = 1e±300 every
    # time is within the kernel's bound of dense expm, EXP_TOL·‖b‖∞ on T and
    # t times that on S, so the scaled and unscaled runs agree within twice it
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    f = _data(kind, grid, 3)
    ts = np.array([0.0, 0.25, 1.0])
    scale = np.max(np.abs(f[rel.omega]))
    for name, oracle, widths in (("semigroup", _dense_exp, np.ones_like(ts)),
                                 ("integrated", _dense_integral, ts)):
        ref = getattr(rel, name)(ts, f)
        got = getattr(rel, name)(ts, c * f)
        assert np.all(np.isfinite(got))
        for t, width, got_t, ref_t in zip(ts, widths, got / c, ref):
            assert np.max(np.abs(got_t - oracle(rel, t, f))) <= width * EXP_TOL * scale
            assert np.max(np.abs(got_t - ref_t)) <= 2.0 * width * EXP_TOL * scale


def test_kernel_scaled_by_a_power_of_two_is_bit_identical():
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    f = bump_function(grid) - 0.3
    ts = np.array([0.0, 0.25, 1.0])
    for read in (rel.semigroup, rel.integrated):
        ref = read(ts, f)
        for k in (-900, -3, 5, 900):
            assert np.array_equal(read(ts, np.ldexp(f, k)), np.ldexp(ref, k))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("method", ["semigroup", "integrated"])
def test_kernel_refuses_non_finite_data(bad, method):
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    f = np.ones(grid.n_nodes)
    f[rel.omega[5]] = bad
    with pytest.raises(InvalidInput, match="data"):
        getattr(rel, method)([0.5, 1.0], f)
