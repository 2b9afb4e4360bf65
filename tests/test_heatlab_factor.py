"""The heat lab's one factor path against direct ``splu`` references.

Every solve in :mod:`relsemi.heatlab` factors ``σI − op`` through one
helper, except the augmented graph-distance system.  The references below
factor the matrix each caller used before, ``L``, ``λI − L``, ``−iI − L`` or
``[[I, Lᵀ], [L, −I]]``, directly — the stencil family with no pivoting
(``diag_pivot_thresh=0.0``), whose pivots SuperLU's threshold rule keeps,
the augmented system with SuperLU's default partial pivoting — and the
results must agree to the last bit; so must the vectorised maximum-principle
check and the per-sample loop it replaced.  ``S(t)`` needs no factor of its
own: it comes from the Krylov sweep's one factor, and agrees with
``L⁻¹(T(t) − I)`` on a direct factor of ``L`` within the kernel's error
bounds.  First eigenvalues match dense ``eigvalsh``.  No factor may outlive
the call that made it.
"""

import logging
import math
import tracemalloc
import weakref

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
    """``splu`` on the helper's ordering with no pivoting: the oracle that
    the helper's threshold pivoting must match to the bit on the stencil
    family."""
    return spl.splu(sp.csc_matrix(mat), permc_spec="MMD_AT_PLUS_A",
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
    x = _diagonal_lu(shifted).solve((f[rel.omega] - op @ u[rel.omega]).astype(complex))
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
    # three factors through the helper and the augmented one of the
    # multiplier relation's graph distance
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
    assert len(lines) == 4 and len(calls) == 3
    for (n, sigma), line in zip(calls, lines):
        assert line.startswith(f"factor n={n} sigma=") and " nnz=" in line
    # both shifts come from one real factor at the pole max |λ| = √2
    assert lines[0].startswith(f"factor n={rel.n_inside} sigma={abs(1 + 1j)} ")
    # integrated factors only the Krylov shift 1/γ, γ = min(max t/10,
    # √(max t/‖L‖∞)/8)
    assert lines[1].startswith(f"factor n={rel.n_inside} sigma={time_pole(rel.op, 1.0)} ")
    # the shifted stencils and −iI − L keep their diagonal pivots, the
    # augmented system of the multiplier relation pivots off its diagonal
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


def _same_factor(lu, ref):
    """Whether two SuperLU factors agree to the bit."""
    return (np.array_equal(lu.perm_r, ref.perm_r) and np.array_equal(lu.perm_c, ref.perm_c)
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for a, b in ((lu.L, ref.L), (lu.U, ref.U))
                    for k in ("indptr", "indices", "data")))


def _backward_error(dense, x, b):
    return np.max(np.abs(dense @ x - b)) / (
        np.max(np.abs(dense).sum(axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b)))


@given(m=st.integers(3, 24), density=st.floats(0.2, 1.0),
       kind=st.sampled_from(["stencil", "interval", "positive", "mixed", "augmented"]),
       shift=st.sampled_from(["zero", "real", "complex", "-i"]),
       size=st.floats(1e-3, 1e4), angle=st.floats(-math.pi / 2, math.pi / 2),
       seed=st.integers(0, 10_000))
@settings(max_examples=300, deadline=None)
def test_factor_pivots_on_the_diagonal_of_the_stencil_family(m, density, kind, shift,
                                                              size, angle, seed):
    # σ = 0 is the factor −L of the eigenvalue solve and the interval solve;
    # every shift of the stencil family has Re σ ≥ 0, so each column is
    # dominated by its diagonal, and the threshold rule keeps every diagonal
    # pivot: the factor is the no-pivot oracle's, to the bit.  Multipliers
    # and the augmented graph-distance system may pivot; their solves are
    # backward stable
    rng = np.random.default_rng(seed)
    grid = Grid(m)
    flags = rng.random((m, m)) < density
    flags[[0, -1]] = flags[:, [0, -1]] = False  # a mask off the boundary
    flags = flags.ravel()
    lap = interval_stencil(m * m) if kind == "interval" else \
        heatlab.stencil_on_flags(grid, flags)
    n = lap.shape[0]
    if n == 0:
        return
    sigma = {"zero": 0.0, "real": size, "-i": complex(0.0, -1.0),
             "complex": size * complex(math.cos(angle), math.sin(angle))}[shift]
    mult = rng.uniform(0.5, 2.0, n)
    if kind != "positive":
        mult *= rng.choice([-1.0, 1.0], n)
    made = []
    splu = spl.splu

    def recording(mat, **kwargs):
        made.append((mat, kwargs, splu(mat, **kwargs)))
        return made[-1][2]

    # a real σ gives a real factor, which takes real b only
    b = rng.standard_normal(2 * n) + (0.0 if complex(sigma).imag == 0.0
                                      else 1j * rng.standard_normal(2 * n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spl, "splu", recording)
        if kind == "augmented":
            rel = multiplier_relation(mult, DirichletGridRelation(DomainMask(grid, flags)))
            if (rel.op != rel.op.T).nnz == 0:  # isolated nodes: the residual form
                return
            del made[:]
            rel.graph_distance(np.zeros(grid.n_nodes), np.zeros(grid.n_nodes))
            (mat, options, lu), = made
            assert options == {}
            x = lu.solve(b.real) + 1j * lu.solve(b.imag)
            assert _backward_error(mat.toarray(), x, b) <= 1e-14
            return
        op = lap if kind in ("stencil", "interval") else (sp.diags(mult) @ lap).tocsr()
        solve = heatlab._factor(op, sigma)
    (mat, options, lu), = made
    assert options == {"permc_spec": "MMD_AT_PLUS_A", "options": {"SymmetricMode": True}}
    if kind in ("stencil", "interval"):
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert _same_factor(lu, _diagonal_lu(mat))
    else:
        x = solve(b[:n])
        assert _backward_error(mat.toarray(), x, b[:n]) <= 1e-14


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
