"""The heat lab's one factor path against direct ``splu`` references.

Every solve in :mod:`relsemi.heatlab` factors ``σI − op`` through one
helper.  The references below factor the matrix each caller used before,
``L``, ``λI − L``, ``−iI − L`` or ``[[I, Lᵀ], [L, −I]]``, directly — the
diagonally dominant ones with the helper's no-pivot options, the augmented
graph-distance system with SuperLU's default partial pivoting — and the results must
agree to the last bit; so must the vectorised maximum-principle check and
the per-sample loop it replaced.  ``S(t)`` needs no factor of its own: it
comes from the Krylov sweep's one factor, and agrees with ``L⁻¹(T(t) − I)``
on a direct factor of ``L`` within the kernel's error bounds.  First
eigenvalues match dense ``eigvalsh``.  No factor may outlive the call that
made it.
"""

import logging
import math
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from conftest import time_pole
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi import heatlab
from relsemi.errors import SolverBreakdown
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
    multiplier_relation,
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


def _diagonal_lu(mat):
    """``splu`` with the options ``heatlab._factor`` uses on dominant matrices."""
    return spl.splu(sp.csc_matrix(mat, dtype=float), permc_spec="MMD_AT_PLUS_A",
                    diag_pivot_thresh=0.0, options={"SymmetricMode": True})


@pytest.mark.parametrize("field", ["real", "complex"])
def test_integrated_matches_operator_factor(rel, field, monkeypatch):
    # S(t) is read from the kernel sweep on its one factor of γ⁻¹ − L; it
    # agrees with L⁻¹(T(t) − I), solved on a direct factor of L, within the
    # kernel's bounds: t·EXP_TOL on S, ‖L⁻¹‖∞·EXP_TOL through the solve
    ts = np.array([0.0, 0.05, 0.3, 1.0])
    fs = np.column_stack([np.ones(rel.state_dim), bump_function(rel.grid)])
    if field == "complex":
        fs = fs + 1j * fs[:, ::-1]
    sigmas = []
    factor = heatlab._factor
    monkeypatch.setattr(heatlab, "_factor",
                        lambda op, sigma: sigmas.append(sigma) or factor(op, sigma))
    got = rel.integrated(ts, fs)
    assert sigmas == [time_pole(rel.op, ts.max())]
    n = rel.n_inside
    lu = _diagonal_lu(rel.op)
    w = rel.semigroup(ts, fs)[:, rel.omega] - fs[rel.omega]
    sol = _solve(lu, np.moveaxis(w, 0, -1).reshape(n, -1))
    expected = np.moveaxis(sol.reshape(w.shape[1:] + (ts.size,)), -1, 0)
    inverse_norm = float(np.max(-lu.solve(np.ones(n))))  # (−L)⁻¹ ≥ 0
    scale = np.max(np.abs(fs.real)) + np.max(np.abs(fs.imag))
    for t, got_t, want_t in zip(ts, got, expected):
        assert not got_t[np.delete(np.arange(rel.state_dim), rel.omega)].any()
        assert np.max(np.abs(got_t[rel.omega] - want_t)) \
            <= (t + inverse_norm) * heatlab.EXP_TOL * scale


def test_surjective_solve_matches_operator_factor(rel):
    f = bump_function(rel.grid) - 0.5
    expected = np.zeros(rel.state_dim)
    expected[rel.omega] = _diagonal_lu(rel.op).solve(f[rel.omega])
    assert np.array_equal(surjective_solve(rel, f), expected)


def test_contraction_matches_shifted_factors(rel):
    # the certificate reads all three λ from one Krylov basis on the pole
    # factor at max λ; each λ factored directly lies inside its enclosure
    # λ·max x/(1 ± ρ), and the reported norm is within 1e-12 of it
    lams = (0.1, 1.0, 10.0)
    n = rel.n_inside
    rowsums = [_diagonal_lu(lam * sp.identity(n, format="csr") - rel.op)
               .solve(np.ones(n)) for lam in lams]
    cert = supnorm_contraction(rel, lams=lams)
    for lam, norm, rho, r in zip(lams, cert.norms, cert.rho, rowsums):
        direct = lam * float(r.max())
        assert 0.0 < rho < 1e-10
        assert norm / (1.0 + rho) <= direct <= norm / (1.0 - rho)
        assert abs(norm - direct) <= 1e-12 * direct
    # resolvent_min is min x/(1 + ρ), a lower bound on the smallest row sum
    smallest = min(float(r.min()) for r in rowsums)
    assert (1.0 - 2.0 * max(cert.rho) - 1e-12) * smallest <= cert.resolvent_min <= smallest


def test_graph_distance_matches_gram_factor(rel):
    # a symmetric stencil measures g = f − Lu through (−iI − L)⁻¹, factored
    # directly here; the nearest points of the Gram equations
    # (I + LᵀL) a = u + Lᵀf and of the augmented system [[I, Lᵀ], [L, −I]]
    # give the same distance to rounding
    rng = np.random.default_rng(5)
    u, f = rng.standard_normal((2, rel.state_dim))
    op, n = rel.op, rel.n_inside
    off = np.linalg.norm(np.delete(u, rel.omega))
    shifted = complex(0.0, -1.0) * sp.identity(n, dtype=complex, format="csr") \
        - op.astype(complex)
    lu = spl.splu(shifted.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    x = lu.solve((f[rel.omega] - op @ u[rel.omega]).astype(complex))
    assert rel.graph_distance(u, f) == math.sqrt(off ** 2 + np.linalg.norm(x) ** 2)

    def distance(a):
        return math.sqrt(off ** 2 + np.linalg.norm(a - u[rel.omega]) ** 2
                         + np.linalg.norm(op @ a - f[rel.omega]) ** 2)

    gram = sp.identity(n, format="csc") + (op.T @ op).tocsc()
    a_gram = spl.splu(gram).solve(u[rel.omega] + op.T @ f[rel.omega])
    assert rel.graph_distance(u, f) == pytest.approx(distance(a_gram), rel=1e-12)
    a_aug = _augmented_nearest(op, u[rel.omega], f[rel.omega])
    assert rel.graph_distance(u, f) == pytest.approx(distance(a_aug), rel=1e-12)


def _augmented_nearest(op, u, f):
    """The nearest point's ``a`` from ``[[I, Lᵀ], [L, −I]]``, partial pivoting."""
    eye = sp.identity(op.shape[0], format="csr")
    aug = sp.bmat([[eye, op.T], [op, -eye]]).tocsc()
    return spl.splu(aug).solve(np.concatenate([u, f]))[:op.shape[0]]


def test_multiplier_graph_distance_matches_augmented_factor(rel):
    # diag(m)·L is not symmetric, so it keeps the augmented system
    rng = np.random.default_rng(6)
    scaled = multiplier_relation(rng.uniform(0.5, 2.0, rel.n_inside), rel)
    u, f = rng.standard_normal((2, rel.state_dim))
    op = scaled.op
    a = _augmented_nearest(op, u[rel.omega], f[rel.omega])
    assert scaled.graph_distance(u, f) == math.sqrt(
        np.linalg.norm(np.delete(u, rel.omega)) ** 2
        + np.linalg.norm(a - u[rel.omega]) ** 2
        + np.linalg.norm(op @ a - f[rel.omega]) ** 2)


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

    rel = _relation(16, "disk")
    scaled = multiplier_relation(np.linspace(0.5, 2.0, rel.n_inside), rel)
    monkeypatch.setattr(heatlab, "_factor", counting)
    block = (np.ones((rel.state_dim, 2)), np.zeros((rel.state_dim, 2)))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        rel.resolvent([0.5, 1 + 1j], np.ones(rel.state_dim))
        rel.integrated([0.5, 1.0], np.ones(rel.state_dim))
        rel.graph_distance(*block)
        scaled.graph_distance(*block)
    messages = [r.getMessage() for r in caplog.records]
    lines = [msg for msg in messages if msg.startswith("factor ")]
    assert len(lines) == len(calls) == 4
    for (n, sigma), line in zip(calls, lines):
        assert line.startswith(f"factor n={n} sigma=") and " nnz=" in line
    # both shifts come from one real factor at the pole max |λ| = √2
    assert lines[0].startswith(f"factor n={rel.n_inside} sigma={abs(1 + 1j)} ")
    # integrated factors only the Krylov shift 1/γ, γ = min(max t/10,
    # √(max t/‖L‖∞)/8)
    assert lines[1].startswith(f"factor n={rel.n_inside} sigma={time_pole(rel.op, 1.0)} ")
    # the shifted stencils and −iI − L are dominant, the augmented system
    # of the multiplier relation is not
    assert lines[2].startswith(f"factor n={rel.n_inside} sigma=-1j ")
    assert lines[-1].startswith(f"factor n={2 * rel.n_inside} sigma=0.0 ")
    assert all(line.endswith(" pivot=diagonal") for line in lines[:3])
    assert lines[-1].endswith(" pivot=partial")
    n = rel.n_inside
    assert [msg for msg in messages if msg.startswith("graph_distance ")] == [
        f"graph_distance n={n} cols=2 form=residual",
        f"graph_distance n={n} cols=2 form=augmented"]


def test_first_eigenvalue_matches_negated_factor(rel):
    # shift-invert Lanczos on the factor of −L, against dense eigvalsh
    dense = np.linalg.eigvalsh(-rel.op.toarray())[0]
    got = first_eigenvalue(rel.grid, rel.mask.values)
    assert abs(got - dense) <= heatlab.EIG_TOL * dense


def test_poly3_deficit_eigenvalue_takes_few_solves(monkeypatch):
    # λ₂/λ₁ = 1.012 inside one component: inverse power needed 708 solves
    grid = Grid(64)
    deficit = disk_mask(grid, 0.7).values & ~polygon_family(grid, 0.7)[0].values
    solves = []
    factor = heatlab._factor

    def counting(op, sigma):
        solve = factor(op, sigma)
        return lambda b: solves.append(1) or solve(b)

    monkeypatch.setattr(heatlab, "_factor", counting)
    got = first_eigenvalue(grid, deficit)
    dense = np.linalg.eigvalsh(-heatlab.stencil_on_flags(grid, deficit).toarray())[0]
    assert int(deficit.sum()) == 961 and 0 < len(solves) <= 60
    assert abs(got - dense) <= heatlab.EIG_TOL * dense


def test_eigenvalue_no_convergence_is_a_solver_breakdown(monkeypatch):
    def stalled(*args, **kwargs):
        raise spl.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(spl, "eigsh", stalled)
    with pytest.raises(SolverBreakdown):
        first_eigenvalue(Grid(8), disk_mask(Grid(8), 0.6).values)


def _lines_dominant(mat):
    """Dominance of each line of a compressed matrix in exact rationals:
    ``|Re a_ii| > 0`` and ``|Re a_ii| ≥ Σ_{j≠i} |Re a_ij| + |Im a_ij|``."""
    for i in range(mat.shape[0]):
        diag, off = Fraction(0), Fraction(0)
        for k in range(mat.indptr[i], mat.indptr[i + 1]):
            v = complex(mat.data[k])
            if mat.indices[k] == i:
                diag = abs(Fraction(v.real))
            else:
                off += abs(Fraction(v.real)) + abs(Fraction(v.imag))
        if not (diag > 0 and diag >= off):
            return False
    return True


@given(n=st.integers(2, 8), field=st.sampled_from(["real", "complex"]),
       nudge=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_dominance_is_decided_exactly(n, field, nudge, seed):
    # each diagonal is the rounded exact sum of its line's off-diagonal
    # sizes, some of them far below it, moved by at most one ulp
    rng = np.random.default_rng(seed)
    mags = np.exp2(rng.uniform(-12.0, 0.0, (n, n))) * (rng.random((n, n)) < 0.7)
    dense = mags * rng.choice([-1.0, 1.0], (n, n))
    if field == "complex":
        dense = dense + 1j * np.exp2(rng.uniform(-12.0, 0.0, (n, n))) \
            * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(dense, 0.0)
    for i in range(n):
        exact = math.fsum(np.abs(dense[i].real).tolist() + np.abs(dense[i].imag).tolist())
        diag = np.nextafter(exact, np.inf * nudge) if nudge else exact
        dense[i, i] = diag * rng.choice([-1.0, 1.0]) + (0.5j * diag if field == "complex"
                                                        else 0.0)
    mat = sp.csr_matrix(dense)
    rows = _lines_dominant(mat)
    assert heatlab._dominant(mat) == rows
    assert heatlab._dominant(sp.csc_matrix(dense.T)) == rows


@given(m=st.integers(4, 24), density=st.floats(0.2, 1.0),
       kind=st.sampled_from(["stencil", "positive", "mixed", "augmented"]),
       shift=st.sampled_from(["zero", "real", "complex"]),
       size=st.floats(1e-3, 1e3), angle=st.floats(-1.5, 1.5),
       seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_pivot_rule_follows_exact_dominance(m, density, kind, shift, size, angle,
                                            seed):
    rng = np.random.default_rng(seed)
    grid = Grid(m)
    lap = heatlab.stencil_on_flags(grid, rng.random(grid.n_nodes) < density)
    n = lap.shape[0]
    if n == 0:
        return
    if kind == "augmented":
        eye = sp.identity(n, format="csr")
        op = sp.bmat([[-eye, -lap.T], [-lap, eye]]).tocsr()
    elif kind == "stencil":
        op = lap
    else:
        mult = rng.uniform(0.5, 2.0, n)
        if kind == "mixed":
            mult *= rng.choice([-1.0, 1.0], n)
        op = (sp.diags(mult) @ lap).tocsr()
    sigma = {"zero": 0.0, "real": size,
             "complex": size * complex(math.cos(angle), math.sin(angle))}[shift]
    calls = []
    splu = spl.splu

    def recording(mat, **kwargs):
        calls.append(kwargs)
        return splu(mat, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spl, "splu", recording)
        solve = heatlab._factor(op, sigma)
    dt = float if shift != "complex" else complex
    mat = (sigma * sp.identity(op.shape[0], dtype=dt, format="csr") - op.astype(dt)).tocsc()
    diagonal = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                "options": {"SymmetricMode": True}}
    exact = _lines_dominant(mat.tocsr()) or _lines_dominant(mat)
    assert calls == [diagonal if exact else {}]
    b = rng.standard_normal(op.shape[0]) + (
        1j * rng.standard_normal(op.shape[0]) if shift == "complex" else 0.0)
    x = solve(b)
    ref = splu(mat).solve(b)
    assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
    dense = mat.toarray()
    backward = np.max(np.abs(dense @ x - b)) / (
        np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert backward <= 1e-14


@pytest.mark.parametrize("m", [7, 99, 400])
def test_interval_solve_matches_stencil_factor(m):
    f = np.random.default_rng(m).standard_normal(m)
    expected = _diagonal_lu(interval_stencil(m)).solve(f)
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
