"""The heat lab's one factor path against direct ``splu`` references.

Every solve in :mod:`relsemi.heatlab` factors ``σI − op`` through one
helper.  The references below factor the matrix each caller used before,
``L``, ``λI − L``, ``[[I, Lᵀ], [L, −I]]`` or ``−L``, directly, and the results must
agree to the last bit; so must the vectorised maximum-principle check and
the per-sample loop it replaced.  No factor may outlive the call that
made it.
"""

import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi import heatlab
from relsemi.grids import DomainMask, Grid
from relsemi.heatlab import (
    DirichletGridRelation,
    bump_function,
    disk_mask,
    first_eigenvalue,
    heat_orbit,
    interval_solve,
    interval_stencil,
    max_principle_check,
    perturbation_experiment,
    polygon_family,
    slit_family,
    supnorm_contraction,
    surjective_solve,
)


def _relation(m, kind):
    grid = Grid(m)
    return DirichletGridRelation(disk_mask(grid, 0.7) if kind == "disk"
                                 else slit_family(grid)[-1])


@pytest.fixture(params=[(m, kind) for m in (32, 64) for kind in ("disk", "slit")],
                ids=lambda p: f"{p[1]}-{p[0]}")
def rel(request):
    return _relation(*request.param)


def _solve(lu, b):
    if np.iscomplexobj(b):
        return lu.solve(np.ascontiguousarray(b.real)) \
            + 1j * lu.solve(np.ascontiguousarray(b.imag))
    return lu.solve(np.ascontiguousarray(b))


def _operator_lu(rel):
    return spl.splu(rel.op.tocsc().astype(float))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_integrated_matches_operator_factor(rel, field):
    ts = np.array([0.0, 0.05, 0.3, 1.0])
    fs = np.column_stack([np.ones(rel.state_dim), bump_function(rel.grid)])
    if field == "complex":
        fs = fs + 1j * fs[:, ::-1]
    n = rel.n_inside
    w = rel.semigroup(ts, fs)[:, rel.omega] - fs[rel.omega]
    sol = _solve(_operator_lu(rel), np.moveaxis(w, 0, -1).reshape(n, -1))
    expected = np.zeros((ts.size,) + fs.shape, dtype=w.dtype)
    expected[:, rel.omega] = np.moveaxis(sol.reshape(w.shape[1:] + (ts.size,)), -1, 0)
    assert np.array_equal(rel.integrated(ts, fs), expected)


def test_surjective_solve_matches_operator_factor(rel):
    f = bump_function(rel.grid) - 0.5
    expected = np.zeros(rel.state_dim)
    expected[rel.omega] = _operator_lu(rel).solve(f[rel.omega])
    assert np.array_equal(surjective_solve(rel, f), expected)


def test_contraction_matches_shifted_factors(rel):
    lams = (0.1, 1.0, 10.0)
    n = rel.n_inside
    rowsums = [spl.splu((lam * sp.identity(n, format="csr") - rel.op).tocsc())
               .solve(np.ones(n)) for lam in lams]
    cert = supnorm_contraction(rel, lams=lams)
    assert cert.norms == tuple(lam * float(r.max()) for lam, r in zip(lams, rowsums))
    assert cert.resolvent_min == min(float(r.min()) for r in rowsums)


def test_graph_distance_matches_gram_factor(rel):
    # the nearest point solves the Gram equations (I + LᵀL) a = u + Lᵀf
    # through the augmented system [[I, Lᵀ], [L, −I]], factored directly here
    rng = np.random.default_rng(5)
    u, f = rng.standard_normal((2, rel.state_dim))
    op, n = rel.op, rel.n_inside
    eye = sp.identity(n, format="csr")
    aug = sp.bmat([[eye, op.T], [op, -eye]]).tocsc()
    a = spl.splu(aug).solve(np.concatenate([u[rel.omega], f[rel.omega]]))[:n]

    def distance(a):
        return math.sqrt(np.linalg.norm(np.delete(u, rel.omega)) ** 2
                         + np.linalg.norm(a - u[rel.omega]) ** 2
                         + np.linalg.norm(op @ a - f[rel.omega]) ** 2)

    assert rel.graph_distance(u, f) == distance(a)
    gram = sp.identity(n, format="csc") + (op.T @ op).tocsc()
    a_gram = spl.splu(gram).solve(u[rel.omega] + op.T @ f[rel.omega])
    assert rel.graph_distance(u, f) == pytest.approx(distance(a_gram), rel=1e-12)


@given(m=st.integers(4, 14), radius=st.sampled_from([0.0, 0.3, 0.55]),
       cols=st.integers(0, 4), field=st.sampled_from(["real", "complex"]),
       seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_graph_distance_block_matches_columns(m, radius, cols, field, seed):
    # one factor for the whole block; each column as a 1-D call, to the bit
    grid = Grid(m)
    mask = disk_mask(grid, radius) if radius else \
        DomainMask(grid, np.zeros(grid.n_nodes, dtype=bool))
    rel = DirichletGridRelation(mask)
    rng = np.random.default_rng(seed)
    u, f = rng.standard_normal((2, grid.n_nodes, cols))
    if field == "complex":
        u = u + 1j * rng.standard_normal(u.shape)
        f = f - 1j * rng.standard_normal(f.shape)
    block = rel.graph_distance(u, f)
    assert block.shape == (cols,)
    assert block.tolist() == [rel.graph_distance(u[:, j], f[:, j]) for j in range(cols)]


def test_no_factor_outlives_its_call(monkeypatch):
    # every solve _factor returns must be gone when the next one is made and
    # when the run returns; without gc.collect(), so a cycle holding one fails
    solves, held = [], []
    factor = heatlab._factor

    def tracked(op, sigma):
        held.append(sum(ref() is not None for ref in solves))
        solve = factor(op, sigma)
        solves.append(weakref.ref(solve))
        return solve

    monkeypatch.setattr(heatlab, "_factor", tracked)
    grid = Grid(16)
    perturbation_experiment(polygon_family(grid, 0.7, sides=(3, 4, 6)),
                            disk_mask(grid, 0.7), [0.5, 1.0], np.linspace(0.0, 1.0, 4),
                            np.ones((grid.n_nodes, 1)), tol=0.5, samples=2)
    assert solves and not any(ref() is not None for ref in solves)
    made = len(solves)
    heat_orbit(DirichletGridRelation(disk_mask(grid, 0.7)), bump_function(grid),
               np.linspace(0.1, 0.5, 5))
    assert len(solves) > made and not any(ref() is not None for ref in solves)
    assert held == [0] * len(solves)


def test_each_factorization_logs_one_line(monkeypatch, caplog):
    calls = []
    factor = heatlab._factor

    def counting(op, sigma):
        calls.append((op.shape[0], sigma))
        return factor(op, sigma)

    monkeypatch.setattr(heatlab, "_factor", counting)
    rel = _relation(16, "disk")
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        rel.resolvent([0.5, 1 + 1j], np.ones(rel.state_dim))
        rel.integrated([0.5, 1.0], np.ones(rel.state_dim))
        rel.graph_distance(np.ones((rel.state_dim, 2)), np.zeros((rel.state_dim, 2)))
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("factor ")]
    assert len(lines) == len(calls) == 5
    for (n, sigma), line in zip(calls, lines):
        assert line.startswith(f"factor n={n} sigma=") and " nnz=" in line
    assert "sigma=(1+1j)" in lines[1] and f"n={2 * rel.n_inside} sigma=0.0" in lines[-1]


def _inverse_power(lap, tol=1e-8, maxiter=3000):
    """Smallest eigenvalue of ``−lap`` on a direct factor of ``−lap``."""
    n = lap.shape[0]
    a = (-lap).tocsc()
    lu = spl.splu(a)
    v = np.full(n, 1.0 / math.sqrt(n))
    lam = float(v @ (a @ v))
    for _ in range(maxiter):
        w = lu.solve(v)
        w /= np.linalg.norm(w)
        new = float(w @ (a @ w))
        done = abs(new - lam) <= 1e-3 * tol * max(1.0, abs(new))
        v, lam = w, new
        if done:
            return lam
    raise AssertionError("reference iteration did not settle")


def test_first_eigenvalue_matches_negated_factor(rel):
    assert first_eigenvalue(rel.grid, rel.mask.values) == _inverse_power(rel.op)


@pytest.mark.parametrize("m", [7, 99, 400])
def test_interval_solve_matches_stencil_factor(m):
    f = np.random.default_rng(m).standard_normal(m)
    expected = spl.splu(interval_stencil(m).tocsc()).solve(f)
    assert np.array_equal(interval_solve(m, f), expected)


def _max_principle_loop(rel, samples, seed):
    """The per-sample loop over full-grid states the array check replaced."""
    rng = np.random.default_rng(seed)
    if rel.n_inside == 0:
        return 0, samples, math.inf
    us = rng.standard_normal((rel.n_inside, samples))
    fs = rel.op @ us
    used = skipped = 0
    slack = math.inf
    inside = np.zeros(rel.state_dim, dtype=bool)
    inside[rel.omega] = True
    for j in range(samples):
        u = np.zeros(rel.state_dim)
        u[rel.omega] = us[:, j]
        x0 = int(np.argmax(u))
        if u[x0] <= 0 or not inside[x0]:
            skipped += 1
            continue
        slack = min(slack, -float(fs[np.searchsorted(rel.omega, x0), j]))
        used += 1
    return used, skipped, slack


@pytest.mark.parametrize("m", [8, 32, 96])
@pytest.mark.parametrize("kind", ["disk", "slit"])
def test_max_principle_matches_the_loop(m, kind):
    rel = _relation(m, kind)
    for seed in range(3):
        for samples in (1, 3, 500):
            rep = max_principle_check(rel, samples=samples, seed=seed)
            assert (rep.samples_used, rep.skipped, rep.slack_min) \
                == _max_principle_loop(rel, samples, seed)


def test_max_principle_holds_one_sample_block():
    # the samples are one (n_inside × samples) block; argmax copies a few
    # columns at a time and f is read at the sup nodes only
    rel = _relation(96, "disk")
    block = rel.n_inside * 500 * 8
    tracemalloc.start()
    try:
        max_principle_check(rel, samples=500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * block
