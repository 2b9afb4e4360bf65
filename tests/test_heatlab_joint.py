"""One Krylov call per relation for times and shifts together.

``DirichletGridRelation.remember`` evaluates ``T(t)F``, ``S(t)F`` and
``R(λ)F`` from one shift-and-invert basis per real column on one factor;
the protocol calls then read the results back.  Each value must lie within
its own bound of dense ``expm`` or a dense solve, the reads must make no
factor, the relation must keep results only, never a basis, and a shift
that fails its backward-error check must raise only where it is read.
"""

import cmath
import contextlib
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from conftest import time_pole
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relsemi import heatlab
from relsemi.grids import Grid
from relsemi.heatlab import (
    EXP_TOL,
    DirichletGridRelation,
    bump_function,
    disk_mask,
    perturbation_experiment,
    polygon_family,
)


def _dense_phi1(op, t):
    """``t φ₁(tL)``, the top-right block of ``expm([[tL, tI], [0, 0]])``."""
    n = op.shape[0]
    aug = np.zeros((2 * n, 2 * n), dtype=np.result_type(op, t))
    aug[:n, :n] = t * op
    aug[:n, n:] = t * np.eye(n)
    return sla.expm(aug)[:n, n:]


@contextlib.contextmanager
def _krylov_lines():
    """The ``krylov`` debug lines logged inside the block."""
    lines = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("relsemi")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    lines[:] = [line for line in lines if line.startswith("krylov ")]


@given(m=st.integers(4, 16), radius=st.floats(0.25, 0.6), scaled=st.booleans(),
       field=st.sampled_from(["real", "complex"]), seed=st.integers(0, 10_000),
       angle=st.floats(-1.2, 1.2), tmax=st.sampled_from([1e-3, 0.1, 2.0]))
# max t·‖L‖∞ = 0.162 keeps the pole 10/max t; 1156 takes 8√(‖L‖∞/max t)
@example(m=8, radius=0.6, scaled=False, field="real", seed=1, angle=0.5, tmax=1e-3)
@example(m=16, radius=0.6, scaled=False, field="complex", seed=2, angle=-0.5, tmax=2.0)
@settings(max_examples=30, deadline=None)
def test_one_call_serves_times_and_shifts_within_their_bounds(m, radius, scaled, field,
                                                             seed, angle, tmax):
    rng = np.random.default_rng(seed)
    rel = DirichletGridRelation(disk_mask(Grid(m), radius))
    if scaled:  # diag(m)·L with m > 0: not symmetric, still Re λ > 0 for Krylov
        rel = DirichletGridRelation(
            rel.mask, operator=sp.diags(rng.uniform(0.5, 2.0, rel.n_inside)) @ rel.op)
    f = np.column_stack([bump_function(rel.grid), rng.standard_normal(rel.state_dim)])
    if field == "complex":
        f = f + 1j * rng.standard_normal(f.shape)
    # the time pole max(10/max t, 8√(‖L‖∞/max t)) lies between the shifts or
    # far above them; at max t = 2 it may lie below 50, 1e3 and 0.5 + 200i.
    # A shift more than a hundredfold below 10/max t (max t = 0.1 or 1e-3)
    # gets a second pole
    ts = np.concatenate([[0.0], tmax * np.sort(rng.uniform(0.05, 1.0, 3))])
    zs = np.concatenate([ts, [tmax * cmath.exp(1j * angle)]])
    lams = np.array([0.3, 1.0, 4.0, 1.0 + 1.0j, 0.2 - 3.0j, 50.0, 1e3, 0.5 + 200.0j])
    with _krylov_lines() as lines:
        rel.remember((zs, lams, f))
    made = []
    factor = heatlab._factor
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heatlab, "_factor",
                      lambda op, sigma: made.append(sigma) or factor(op, sigma))
        got_t = rel.semigroup(zs, f)
        got_s = rel.integrated(ts, f)
        got_r = rel.resolvent(lams, f)
    assert made == []  # every read came from the one call
    off = np.delete(np.arange(rel.state_dim), rel.omega)
    assert not got_t[:, off].any() and not got_s[:, off].any() and not got_r[:, off].any()
    if rel.n_inside == 0:
        return
    # the first pole is the time pole, from whichever branch of the formula
    far = float(np.max(np.abs(zs)))
    norm = float(abs(rel.op).sum(axis=1).max())
    pole = float(lines[0].split(" pole=")[1].split()[0].split(",")[0])
    assert pole == time_pole(rel.op, far)
    if far * norm <= 100.0 / 64.0:
        assert pole == 1.0 / (far / 10.0)
    else:
        assert pole == 1.0 / (math.sqrt(far / norm) / 8.0) > 10.0 / far
    dense = rel.op.toarray()
    b = f[rel.omega]
    # the kernel's bounds hold per real column of b
    scale = np.max(np.abs(b.real), axis=0) + np.max(np.abs(b.imag), axis=0)
    for z, got in zip(zs, got_t):
        # T: EXP_TOL·‖b‖∞, the integral bound (an estimate on the complex ray)
        err = np.max(np.abs(got[rel.omega] - sla.expm(z * dense) @ b), axis=0)
        assert np.all(err <= EXP_TOL * scale)
    for t, got in zip(ts, got_s):
        err = np.max(np.abs(got[rel.omega] - _dense_phi1(dense, t) @ b), axis=0)
        assert np.all(err <= t * EXP_TOL * scale)
    for lam, got in zip(lams, got_r):
        ref = np.linalg.solve(lam * np.eye(rel.n_inside) - dense, b)
        assert np.all(np.max(np.abs(got[rel.omega] - ref), axis=0) <= EXP_TOL * scale)


def test_one_call_keeps_results_not_its_basis(caplog):
    # the joint call's factor and bases are dropped on return; what the
    # relation keeps (the data's columns and the results) is smaller than
    # one basis, and a read of those results allocates no basis either
    rel = DirichletGridRelation(disk_mask(Grid(48), 0.7))
    f = np.ones((rel.state_dim, 1))
    ts, lams = np.array([0.0, 0.5, 1.0]), np.array([0.5, 2.0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with caplog.at_level(logging.DEBUG, logger="relsemi"):
            rel.remember((ts, lams, f))
        kept, peak = tracemalloc.get_traced_memory()
        kept -= before
        tracemalloc.reset_peak()
        rel.resolvent(lams, f)
        read_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    line = next(r.getMessage() for r in caplog.records
                if r.getMessage().startswith("krylov"))
    size = int(line.split(" basis=")[1].split()[0])
    basis = (size + 1) * rel.n_inside * 8  # the loop's (cap + 1, n) array holds it
    results = (1 + 2 * ts.size + lams.size) * rel.n_inside * 8
    assert size >= 20 and peak - before >= basis  # the measure sees a basis
    assert results <= kept < basis
    assert read_peak - kept < basis


def test_a_failed_shift_raises_only_where_it_is_read(monkeypatch):
    # the limit's joint call stores a 1 % wrong R(mu); the certificate and
    # the λ-grid criteria read their shifts from the same call, and item
    # (iv) finds mu refused on the limit, as a call for mu alone would
    grid = Grid(16)
    limit = disk_mask(grid, 0.7)
    n_limit = int(limit.values.sum())
    column = heatlab._si_column

    def skewed(op, solve, gamma, mu, b, times, lams):
        (exp_vals, res_vals), *rest = column(op, solve, gamma, mu, b, times, lams)
        if op.shape[0] == n_limit:
            res_vals[lams.imag != 0] *= 1.01
        return (exp_vals, res_vals), *rest

    monkeypatch.setattr(heatlab, "_si_column", skewed)
    rep = perturbation_experiment(polygon_family(grid, 0.7, sides=(4, 8)), limit,
                                  [0.5, 1.0], np.linspace(0.0, 1.0, 4),
                                  np.ones((grid.n_nodes, 1)), tol=0.5, samples=0)
    assert all(cert.ok for cert in rep.contraction.values())
    hyp = rep.convergence.mu_hypothesis
    assert hyp["range_full"] is False and hyp["all_in_resolvent"] is False
    assert set(rep.convergence.verdicts) == {"i", "ii", "iii"}


@pytest.mark.parametrize("f_name, lambda_grid, items", [
    ("ones", [0.5, 1.0, 2.0], ("i", "ii", "iii", "iv")),
    ("bump", [0.5, 1.0, 2.0], ("i", "ii", "iii", "iv")),
    ("complex", [0.0, 0.5, 2.0 + 1.0j, -0.5], ("i", "ii", "iv")),
    ("bump", [2.0], ("i",)),
])
def test_every_read_of_an_experiment_is_remembered(caplog, f_name, lambda_grid, items):
    # each relation's remember call comes first; the certificate, the
    # report and the off-limit check must then only read its results
    grid = Grid(16)
    masks = polygon_family(grid, 0.7, sides=(4, 8))
    f = {"ones": np.ones(grid.n_nodes), "bump": bump_function(grid),
         "complex": bump_function(grid) * (1.0 + 2.0j)}[f_name]
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        perturbation_experiment(masks, disk_mask(grid, 0.7), lambda_grid,
                                np.linspace(0.0, 1.0, 4), f[:, None], tol=0.5,
                                items=items, samples=0)
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("krylov")]
    calls = len(masks) + 1
    assert all(line.endswith(" memo=miss") for line in lines[:calls])
    assert len(lines) > calls
    assert all(line.endswith(" memo=hit") for line in lines[calls:])


def test_a_read_elsewhere_keeps_the_remembered_results(caplog):
    rel = DirichletGridRelation(disk_mask(Grid(12), 0.7))
    ones = np.ones((rel.state_dim, 1))
    rel.remember(([0.0, 1.0], [0.5, 2.0], ones))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        rel.resolvent([1.0], ones)  # a shift it does not hold
        rel.integrated([1.0], bump_function(rel.grid))  # a column it does not hold
        rel.resolvent([0.5, 2.0], ones)
        rel.integrated([0.0, 1.0], ones)
    memo = [r.getMessage().split(" memo=")[1] for r in caplog.records
            if r.getMessage().startswith("krylov")]
    assert memo == ["miss", "miss", "hit", "hit"]


def test_a_read_remember_did_not_serve_keeps_nothing():
    # remember is the only way into the memo: a read it did not serve, on a
    # fresh relation or after a remember, leaves the memo as it was, and the
    # relation holds on to none of that read's results
    grid = Grid(48)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    ones, bump = np.ones((rel.state_dim, 1)), bump_function(grid)[:, None]
    ts = np.linspace(0.0, 1.0, 11)
    DirichletGridRelation(rel.mask).integrated(ts, ones)  # warm up imports and caches
    for remembered in (False, True):
        if remembered:
            rel.remember(([0.5], [2.0], bump))
        memo = dict(rel._memo)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rel.integrated(ts, ones)
            rel.resolvent([0.5, 1.0], ones)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rel._memo.keys() == memo.keys()
        assert all(rel._memo[key] is table for key, table in memo.items())
        assert kept < ts.size * rel.n_inside * 8  # less than one kept result
