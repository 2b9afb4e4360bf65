import logging
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl
from conftest import time_pole
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi.converge import DenseEvaluator
from relsemi.errors import (
    ContractFailed,
    InvalidInput,
    NotInResolventSet,
    VanishingMultiplier,
)
from relsemi import heatlab
from relsemi.grids import DomainMask, Grid, disk, mask_from_shapes
from relsemi.heatlab import (
    DirichletGridRelation,
    bump_function,
    disk_mask,
    domain_convergence_check,
    first_eigenvalue,
    heat_orbit,
    interval_first_eigenvalue,
    interval_nodes,
    interval_relation,
    interval_solve,
    interval_stencil,
    max_principle_check,
    multiplier_relation,
    perturbation_experiment,
    polygon_family,
    sector_uniformity,
    slit_family,
    stencil_on_flags,
    supnorm_contraction,
    surjective_solve,
)
from relsemi.semigroup import decompose, semigroup_at
from relsemi.spectral import ACCEPT_TOL, resolvent


@pytest.fixture(scope="module")
def small_disk():
    return DirichletGridRelation(disk_mask(Grid(9), 0.6))


def test_interval_stencil_oracle():
    # m = 3 on unit length: h = 1/4, so the stencil is 16 tridiag(1, -2, 1)
    want = 16.0 * (np.diag([-2.0] * 3) + np.diag([1.0] * 2, 1) + np.diag([1.0] * 2, -1))
    assert np.array_equal(interval_stencil(3).toarray(), want)


def test_square_stencil_is_kronecker_sum():
    g = Grid(3)
    t = np.diag([-2.0] * 3) + np.diag([1.0] * 2, 1) + np.diag([1.0] * 2, -1)
    want = (np.kron(t, np.eye(3)) + np.kron(np.eye(3), t)) / g.h ** 2
    got = stencil_on_flags(g, np.ones(9, dtype=bool)).toarray()
    assert np.allclose(got, want, atol=1e-13)


def test_interval_eigenvalue_closed_form():
    for m in (9, 33):
        got = interval_first_eigenvalue(m)
        h = 1.0 / (m + 1)
        want = 4.0 / h ** 2 * math.sin(math.pi * h / 2.0) ** 2
        assert abs(got - want) < 1e-8 * want


def test_interval_solve_parabola():
    # L u = 1 with zero boundary: u(x) = x(x-1)/2 exactly (the FD scheme is
    # exact on quadratics)
    m = 19
    u = interval_solve(m, np.ones(m))
    xs = interval_nodes(m)
    assert np.max(np.abs(u - xs * (xs - 1.0) / 2.0)) < 1e-13


def test_interval_relation_parts():
    rel = interval_relation(7)
    p = rel.parts
    assert p.domain.dim == 7 and p.range.dim == 7
    assert p.kernel.dim == 0 and p.multivalued.dim == 0


def test_dirichlet_relation_parts(small_disk):
    rel = small_disk
    dense = rel.dense_relation()
    p = dense.parts
    assert p.domain.dim == rel.n_inside
    # off-domain nodes are multivalued directions, so the range is everything
    assert p.range.dim == rel.state_dim
    assert p.kernel.dim == 0
    assert p.multivalued.dim == rel.state_dim - rel.n_inside
    # m-dissipative: a sup-norm contraction at λ = 1, and A u ∋ f solvable
    assert supnorm_contraction(rel, lams=(1.0,)).ok
    surjective_solve(rel, np.ones(rel.state_dim))


def test_dense_sparse_resolvent_agree(small_disk):
    rel = small_disk
    dense = rel.dense_relation()
    f = np.zeros((rel.state_dim, 1))
    f[rel.omega, 0] = np.linspace(1.0, 2.0, rel.n_inside)
    for lam in (0.5, 2.0, 1.0 + 1.0j):
        sparse_u = rel.resolvent([lam], f)[0]
        dense_u = resolvent(dense, lam).matrix @ f
        assert np.max(np.abs(sparse_u - dense_u)) < 1e-9


def test_dense_sparse_semigroup_agree(small_disk):
    rel = small_disk
    sd = decompose(rel.dense_relation())
    f = np.zeros((rel.state_dim, 1))
    f[rel.omega, 0] = 1.0
    for t in (0.0, 0.05, 0.4):
        sparse_u = rel.semigroup([t], f)[0]
        dense_u = semigroup_at(sd, t) @ f
        assert np.max(np.abs(sparse_u - dense_u)) < 1e-9
    dense = DenseEvaluator(rel.dense_relation())
    ts = np.array([0.0, 0.05, 0.4])
    assert np.max(rel.vec_norm(rel.integrated(ts, f) - dense.integrated(ts, f))) < 1e-9
    zs = np.array([0.0, 0.05 + 0.02j, 0.4 - 0.3j])
    assert np.max(rel.vec_norm(rel.semigroup(zs, f) - dense.semigroup(zs, f))) < 1e-9


def _nearest_pair(rel, u, f):
    """The orthogonal projection of ``(u, f)`` onto the graph, by dense
    least squares: ``a`` minimizes ``‖[I; L]a − [u; f]‖`` on the mask."""
    stacked = np.vstack([np.eye(rel.n_inside), rel.op.toarray()])
    a = np.linalg.lstsq(stacked, np.concatenate([u[rel.omega], f[rel.omega]]),
                        rcond=None)[0]
    ustar = np.zeros_like(u, dtype=a.dtype)
    fstar = np.array(f, dtype=a.dtype)
    ustar[rel.omega] = a
    fstar[rel.omega] = rel.op @ a
    return ustar, fstar


def test_graph_distance_planted_pair(small_disk):
    rel = small_disk
    u = np.zeros(rel.state_dim)
    u[rel.omega] = np.sin(np.arange(rel.n_inside))
    f = np.zeros(rel.state_dim)
    f[rel.omega] = rel.op @ u[rel.omega]
    assert rel.graph_distance(u, f) < 1e-10
    f2 = f.copy()
    f2[rel.omega[0]] += 1.0
    assert rel.graph_distance(u, f2) > 1e-3
    uu, ff = _nearest_pair(rel, u, f2)
    assert rel.graph_distance(uu, ff) < 1e-9


def test_graph_distance_keeps_complex_data():
    # the graph is real, so the squared distance of a complex pair is that of
    # its real part plus that of its imaginary part, and it is how far the
    # dense projection moves the pair, in the residual form (the stencil)
    # and the augmented one (a positive multiplier)
    stencil = DirichletGridRelation(disk_mask(Grid(12), 0.7))
    rng = np.random.default_rng(12)
    scaled = multiplier_relation(rng.uniform(0.5, 2.0, stencil.n_inside), stencil)
    for rel in (stencil, scaled):
        u, f = (rng.standard_normal((2, rel.state_dim))
                + 1j * rng.standard_normal((2, rel.state_dim)))
        dist = rel.graph_distance(u, f)
        uu, ff = _nearest_pair(rel, u, f)
        moved = math.sqrt(np.linalg.norm(u - uu) ** 2 + np.linalg.norm(f - ff) ** 2)
        assert dist == pytest.approx(moved, rel=1e-12)
        parts = math.hypot(rel.graph_distance(u.real, f.real),
                           rel.graph_distance(u.imag, f.imag))
        assert dist == pytest.approx(parts, rel=1e-12)


@given(m=st.integers(4, 14), radius=st.sampled_from([0.3, 0.55]),
       operator=st.sampled_from(["stencil", "multiplier"]),
       field=st.sampled_from(["real", "complex"]), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_graph_geometry_matches_dense_least_squares(m, radius, operator, field, seed):
    # the nearest point's a minimizes ‖[I; L]a − [u; f]‖ on the mask: dense
    # lstsq against the residual form (stencil) and the augmented system
    # (a positive multiplier, whose diag(m)·L is not symmetric)
    grid = Grid(m)
    rel = DirichletGridRelation(disk_mask(grid, radius))
    rng = np.random.default_rng(seed)
    if operator == "multiplier" and rel.n_inside:
        rel = multiplier_relation(rng.uniform(0.5, 2.0, rel.n_inside), rel)
    u, f = rng.standard_normal((2, grid.n_nodes))
    if field == "complex":
        u = u + 1j * rng.standard_normal(grid.n_nodes)
        f = f - 1j * rng.standard_normal(grid.n_nodes)
    n = rel.n_inside
    stacked = np.vstack([np.eye(n), rel.op.toarray()])
    rhs = np.concatenate([u[rel.omega], f[rel.omega]])
    a = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
    expected = math.hypot(np.linalg.norm(np.delete(u, rel.omega)),
                          np.linalg.norm(stacked @ a - rhs))
    assert rel.graph_distance(u, f) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("kind", ["random", "other-graph"])
def test_graph_distance_of_a_far_pair_matches_dense_least_squares(kind):
    # pairs off the graph, as heat converge measures them: a random pair, and
    # points of another disk's graph (u = R(1)g, f = u − g); the residual form
    # must agree with dense lstsq of [I; L]a ≈ [u; f] at m = 64 too
    grid = Grid(64)
    rel = DirichletGridRelation(disk_mask(grid, 0.4))
    rng = np.random.default_rng(3)
    if kind == "random":
        u, f = rng.standard_normal((2, grid.n_nodes, 3))
    else:
        g = rng.standard_normal((grid.n_nodes, 3))
        u = DirichletGridRelation(disk_mask(grid, 0.45)).resolvent([1.0], g)[0]
        f = u - g
    stacked = np.vstack([np.eye(rel.n_inside), rel.op.toarray()])
    dists = rel.graph_distance(u, f)
    for j in range(u.shape[1]):
        rhs = np.concatenate([u[rel.omega, j], f[rel.omega, j]])
        a = np.linalg.lstsq(stacked, rhs, rcond=None)[0]
        expected = math.hypot(np.linalg.norm(np.delete(u[:, j], rel.omega)),
                              np.linalg.norm(stacked @ a - rhs))
        assert dists[j] == pytest.approx(expected, rel=1e-12)


@pytest.fixture(scope="module", params=[32, 64, 128, 256])
def refined_disk(request):
    return DirichletGridRelation(disk_mask(Grid(request.param), 0.7))


def _graph_pair(rel, values):
    """``(u, Lu)`` with ``u`` equal to ``values`` on the mask and 0 off it."""
    u = np.zeros(rel.state_dim)
    u[rel.omega] = values
    f = np.zeros(rel.state_dim)
    f[rel.omega] = rel.op @ values
    return u, f, math.hypot(np.linalg.norm(u), np.linalg.norm(f))


def _backward_error(rel, lam, x, f):
    """``‖λx − Lx − f‖∞ / (‖f‖∞ + (|λ| + ‖L‖∞)‖x‖∞)`` on the mask."""
    x, f = x[rel.omega], f[rel.omega]
    op_norm = np.max(abs(rel.op).sum(axis=1))
    return (np.max(np.abs(lam * x - rel.op @ x - f))
            / (np.max(np.abs(f)) + (abs(lam) + op_norm) * np.max(np.abs(x))))


def test_certificates_under_refinement(refined_disk):
    # ‖L‖ grows like h⁻²; none of these checks may lose digits with it
    rel = refined_disk
    ones = np.ones(rel.state_dim)
    [x] = rel.resolvent([1 + 1j], ones)
    assert _backward_error(rel, 1 + 1j, x, ones) <= 1e-14
    cert = supnorm_contraction(rel)
    assert all(0.0 < n <= 1.0 for n in cert.norms) and cert.resolvent_min > 0.0
    rng = np.random.default_rng(rel.grid.m)
    u, f, scale = _graph_pair(rel, rng.standard_normal(rel.n_inside))
    assert rel.graph_distance(u, f) <= 1e-12 * scale


def test_graph_distance_of_smooth_pair_under_refinement(refined_disk):
    rel = refined_disk
    u, f, scale = _graph_pair(rel, bump_function(rel.grid)[rel.omega])
    assert rel.graph_distance(u, f) <= 1e-12 * scale


@pytest.mark.parametrize("m", [32, 64, 128, 256])
def test_graph_distance_of_a_pair_near_the_graph_under_refinement(m):
    # on the (m − 2)² square the discrete sines are eigenvectors: with v the
    # normalized (3, 5) mode, Lv = μv, the pair (u, Lu + εv) lies exactly
    # ε/√(1 + μ²) from the graph; measuring it must not cancel like ‖L‖
    grid = Grid(m)
    ix, iy = np.divmod(np.arange(grid.n_nodes), m)
    rel = DirichletGridRelation(DomainMask(
        grid, (ix >= 1) & (ix <= m - 2) & (iy >= 1) & (iy <= m - 2)))
    p = np.arange(1, m - 1)
    v = np.outer(np.sin(3 * math.pi * p / (m - 1)),
                 np.sin(5 * math.pi * p / (m - 1))).ravel()
    v /= np.linalg.norm(v)
    mu = -4.0 / grid.h ** 2 * (math.sin(3 * math.pi / (2 * (m - 1))) ** 2
                               + math.sin(5 * math.pi / (2 * (m - 1))) ** 2)
    eps = 1e-3
    u, f, _ = _graph_pair(rel, bump_function(grid)[rel.omega])
    f[rel.omega] += eps * v
    exact = eps / math.sqrt(1.0 + mu * mu)
    assert abs(rel.graph_distance(u, f) - exact) <= 1e-12 * exact


def test_supnorm_contraction_certificate(small_disk):
    cert = supnorm_contraction(small_disk)
    assert cert.ok and cert.method == "mmatrix-solve"
    assert all(n <= 1.0 + 1e-12 for n in cert.norms)
    assert cert.resolvent_min > 0.0  # positivity of the resolvent kernel
    # dense oracle: exact max absolute row sums of λ R(λ)
    n = small_disk.n_inside
    dense = [lam * np.abs(np.linalg.inv(lam * np.eye(n) - small_disk.op.toarray()))
             .sum(axis=1).max() for lam in cert.lams]
    assert np.allclose(cert.norms, dense, atol=1e-12)


def test_supnorm_contraction_rejects_z_matrix_without_positivity():
    # 1 − 1.5·I is a Z-matrix (no off-diagonal entries) but not an
    # M-matrix: (λ − L)⁻¹ 1 = −2, which must not pass as a norm of −2
    mask = disk_mask(Grid(96), 0.7)
    n = mask.node_count
    bad = DirichletGridRelation(mask, operator=1.5 * sp.identity(n, format="csr"))
    with pytest.raises(ContractFailed) as exc:
        supnorm_contraction(bad, lams=(1.0,))
    assert exc.value.lam == 1.0


def test_supnorm_contraction_rejects_expanding(small_disk):
    mask = small_disk.mask
    n = small_disk.n_inside
    bad = DirichletGridRelation(mask, operator=2.0 * sp.identity(n, format="csr"))
    with pytest.raises(ContractFailed) as exc:
        supnorm_contraction(bad, lams=(10.0,))
    assert exc.value.lam == 10.0
    flipped = DirichletGridRelation(mask, operator=-small_disk.op)
    with pytest.raises(ContractFailed):
        supnorm_contraction(flipped, lams=(1.0,))
    with pytest.raises(InvalidInput):
        supnorm_contraction(small_disk, lams=(-1.0,))


def test_surjective_solve(small_disk):
    rel = small_disk
    f = np.zeros(rel.state_dim)
    f[rel.omega] = 1.0
    u = surjective_solve(rel, f)
    assert np.max(np.abs(rel.op @ u[rel.omega] - f[rel.omega])) < 1e-12
    off = np.ones(rel.state_dim, dtype=bool)
    off[rel.omega] = False
    assert np.max(np.abs(u[off]), initial=0.0) == 0.0


def test_surjective_solve_is_the_verified_resolvent_at_zero(corrupt_factor):
    rel = DirichletGridRelation(disk_mask(Grid(9), 0.6))
    corrupt_factor(0.0)
    with pytest.raises(NotInResolventSet) as info:
        surjective_solve(rel, np.ones(rel.state_dim))
    assert info.value.residual > ACCEPT_TOL
    # the contraction's factor at λ = 1 is sound; a second solve at 0 makes
    # its own Krylov call and is refused again
    assert supnorm_contraction(rel, lams=(1.0,)).ok
    with pytest.raises(NotInResolventSet):
        surjective_solve(rel, np.ones(rel.state_dim))


def test_first_eigenvalue_block_closed_form():
    g = Grid(7)
    v = np.zeros((7, 7), dtype=bool)
    v[2:5, 2:5] = True
    lam = first_eigenvalue(g, v.ravel())
    k = 3
    want = 8.0 / g.h ** 2 * math.sin(math.pi / (2 * (k + 1))) ** 2
    assert abs(lam - want) < 1e-8 * want
    assert first_eigenvalue(g, np.zeros(49, dtype=bool)) == math.inf
    # an index array would read as flags over its own length, so it is refused
    with pytest.raises(InvalidInput):
        first_eigenvalue(g, np.flatnonzero(v))
    for size in (9, 50):
        with pytest.raises(InvalidInput):
            first_eigenvalue(g, np.ones(size, dtype=bool))


def test_multiplier_identity(small_disk):
    rel = small_disk
    scaled = multiplier_relation(np.ones(rel.state_dim), rel)
    assert (scaled.op != rel.op).nnz == 0
    assert scaled.evidence.positive
    assert scaled.evidence.min_abs == 1.0


def test_multiplier_positive_certificate(small_disk):
    rel = small_disk
    pts = rel.mask.grid.node_coords()
    m_values = 1.0 + pts[:, 0] ** 2
    scaled = multiplier_relation(m_values, rel)
    assert scaled.evidence.positive
    assert scaled.evidence.contraction is not None and scaled.evidence.contraction.ok
    f = np.zeros(rel.state_dim)
    f[rel.omega] = 1.0
    base = rel.resolvent([1.0], f[:, None])[0]
    assert np.isfinite(base).all()


def test_multiplier_vanishing_rejected(small_disk):
    rel = small_disk
    m_values = np.ones(rel.n_inside)
    m_values[3] = 1e-12
    with pytest.raises(VanishingMultiplier) as exc:
        multiplier_relation(m_values, rel)
    assert exc.value.node == int(rel.omega[3])
    assert abs(exc.value.value) == 1e-12
    with pytest.raises(InvalidInput):
        multiplier_relation(np.ones(5), rel)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_multiplier_refuses_a_non_finite_value(small_disk, bad):
    # bad input, named by its row: not a relation with min_abs=nan, nor a
    # shift refused as outside the resolvent set
    m_values = np.ones(small_disk.n_inside)
    m_values[3] = bad
    with pytest.raises(InvalidInput, match="row 3 "):
        multiplier_relation(m_values, small_disk)


def test_relation_refuses_a_non_finite_operator(small_disk):
    op = small_disk.op.tocsr(copy=True)
    op.data[op.indptr[5] + 1] = np.nan
    with pytest.raises(InvalidInput, match="row 5 "):
        DirichletGridRelation(small_disk.mask, operator=op)


def test_relation_refuses_a_complex_operator(small_disk):
    # the Krylov kernel's basis is real: (1 + 0.5i)·L once gave a semigroup
    # 0.27 off dense expm in the sup norm, with only a ComplexWarning
    with pytest.raises(InvalidInput, match="real"):
        DirichletGridRelation(small_disk.mask, operator=(1 + 0.5j) * small_disk.op)


def test_multiplier_refuses_complex_values(small_disk):
    # once cut to their real part, with only a ComplexWarning
    with pytest.raises(InvalidInput, match="real"):
        multiplier_relation(np.full(small_disk.n_inside, 1 + 0.5j), small_disk)


@pytest.mark.parametrize("case", ["nan", "inf", "short", "unlike blocks", "three axes"])
def test_graph_distance_refuses_bad_data(small_disk, case):
    # once a distance of nan, 0.0 for a short state, two distances for blocks
    # of 2 and 3 columns, and a silent read of (N, 2, 2) arrays
    n = small_disk.state_dim
    u, f = np.ones(n), np.ones(n)
    if case == "nan":
        f[4] = np.nan
    elif case == "inf":
        u[small_disk.omega[0]] = np.inf
    elif case == "short":
        u, f = np.ones(n - 3), np.ones(n - 3)
    elif case == "unlike blocks":
        u, f = np.ones((n, 2)), np.ones((n, 3))
    else:
        u, f = np.ones((n, 2, 2)), np.ones((n, 2, 2))
    with pytest.raises(InvalidInput):
        small_disk.graph_distance(u, f)


def test_max_principle_on_disk(small_disk):
    rep = max_principle_check(small_disk, samples=200)
    assert rep.samples_used + rep.skipped == 200
    assert rep.slack_min >= -1e-12


def test_domain_convergence_growing_polygons():
    g = Grid(24)
    limit = disk_mask(g, 0.7)
    masks = polygon_family(g, 0.7, sides=(4, 8, 16, 32))
    rep = domain_convergence_check(masks, limit)
    assert rep.ok
    # deficits shrink as the polygons fill the disk
    assert np.all(np.diff(rep.deficit_counts) <= 0)
    # inner approximations carry no surplus nodes at all
    assert np.all(rep.surplus_counts == 0)
    assert np.all(np.isinf(rep.surplus_eigs))
    assert np.allclose(rep.surplus_measure, 0.0)
    for margin in rep.margins:
        assert rep.n0[margin] is not None


def test_domain_convergence_constant_family():
    g = Grid(16)
    limit = disk_mask(g, 0.7)
    rep = domain_convergence_check([limit, limit], limit)
    assert rep.ok
    assert rep.n0 == {1: 1, 2: 1, 3: 1}
    assert np.all(rep.deficit_counts == 0)


def test_domain_convergence_validation():
    g = Grid(16)
    limit = disk_mask(g, 0.7)
    with pytest.raises(InvalidInput):
        domain_convergence_check([], limit)
    with pytest.raises(InvalidInput):
        domain_convergence_check([disk_mask(Grid(12), 0.7)], limit)


def test_heat_orbit_eigenvector_decay(small_disk):
    rel = small_disk
    lam, vec = spl.eigsh((-rel.op).tocsc(), k=1, which="SM")
    v = np.abs(vec[:, 0])  # ground state is signless
    u0 = np.zeros(rel.state_dim)
    u0[rel.omega] = v
    ts = np.linspace(0.05, 1.0, 12)
    orbit = heat_orbit(rel, u0, ts)
    for j, t in enumerate(ts):
        want = math.exp(-lam[0] * t) * u0
        assert np.max(np.abs(orbit.states[j] - want)) < 1e-9
    assert orbit.nodewise_decreasing
    assert orbit.sup_ratio <= 1.0 + 1e-12
    assert orbit.off_domain_max == 0.0
    assert orbit.min_entry >= -1e-15
    assert max(orbit.membership_residuals) < 1e-6


def test_heat_orbit_multivalued_datum(small_disk):
    rel = small_disk
    u0 = np.ones(rel.state_dim)
    u0[rel.omega] = 0.0  # supported off the domain: the zero solution
    orbit = heat_orbit(rel, u0, np.linspace(0.1, 1.0, 5))
    assert np.max(np.abs(orbit.states)) <= 1e-12
    assert orbit.projection_defect <= 1e-12


def test_heat_orbit_projection_defect_is_exactly_zero():
    # T(0)u0 is the projection Pu0 itself, not a Krylov evaluation at t = 0
    # (which left 5.55e-16 here); S(0)u0 is exactly zero
    grid = Grid(96)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    u0 = bump_function(grid)
    assert heat_orbit(rel, u0, np.arange(1, 21) * 0.05).projection_defect == 0.0
    ts = np.array([0.0, 0.5, 1.0])
    traj, integ = rel.semigroup(ts, u0), rel.integrated(ts, u0)
    assert np.array_equal(traj[0][rel.omega], u0[rel.omega]) and not integ[0].any()


def test_heat_orbit_validation(small_disk):
    u0 = np.ones(small_disk.state_dim)
    with pytest.raises(InvalidInput):
        heat_orbit(small_disk, u0, [0.0, 1.0])  # t = 0 not allowed
    with pytest.raises(InvalidInput):
        heat_orbit(small_disk, u0, [1.0, 0.5])  # not increasing
    with pytest.raises(InvalidInput):
        heat_orbit(small_disk, np.ones(3), [1.0])


def test_heat_orbit_refuses_a_complex_state():
    # refused, not read as its real part: sup_ratio, min_entry and the
    # nodewise decrease are statements about a real orbit
    grid = Grid(12)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    with pytest.raises(InvalidInput, match="real"):
        heat_orbit(rel, bump_function(grid) * (1.0 + 1.0j), [0.5, 1.0])


def test_heat_orbit_remembers_once_and_reads_with_no_factor(monkeypatch, caplog):
    # one Krylov call for T and S at every time; the two reads are served by
    # it, so the only other factor is graph_distance's at −i
    grid = Grid(16)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    made, calls = [], []
    factor, kernel = heatlab._factor, DirichletGridRelation._krylov
    monkeypatch.setattr(heatlab, "_factor",
                        lambda op, sigma: made.append(sigma) or factor(op, sigma))
    monkeypatch.setattr(DirichletGridRelation, "_krylov",
                        lambda self, asked: calls.append(asked) or kernel(self, asked))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        heat_orbit(rel, bump_function(grid), np.linspace(0.1, 1.0, 10))
    assert len(calls) == 1
    assert made == [time_pole(rel.op, 1.0), -1j]
    memo = [r.getMessage().split(" memo=")[1] for r in caplog.records
            if r.getMessage().startswith("krylov")]
    assert memo == ["miss", "hit", "hit"]


@pytest.mark.parametrize("m", [32, 64, 128])
def test_heat_orbit_membership_under_refinement(m):
    # ‖L‖ grows like h⁻²; the membership check must not lose digits with it
    grid = Grid(m)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    orbit = heat_orbit(rel, bump_function(grid), np.arange(1, 21) * 0.05)
    assert len(orbit.membership_residuals) == 2
    assert max(orbit.membership_residuals) <= 1e-6
    assert orbit.off_domain_max == 0.0 and orbit.projection_defect <= 1e-12


@pytest.mark.parametrize("m", [32, 64, 128])
def test_heat_orbit_membership_within_the_kernel_bound(m):
    # (S(τ)u0, T(τ)u0 − Pu0) lies on the graph; the kernel's certified sup-norm
    # errors, EXP_TOL·‖u0‖∞ on T and τ times that on S, allow at most this
    # Euclidean distance
    grid = Grid(m)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    u0 = bump_function(grid)
    orbit = heat_orbit(rel, u0, np.arange(1, 21) * 0.05)
    assert orbit.membership_times == (0.55, 1.0)
    for tau, res in zip(orbit.membership_times, orbit.membership_residuals):
        assert res <= math.sqrt(rel.n_inside) * (1.0 + tau) * heatlab.EXP_TOL \
            * np.max(np.abs(u0))


def test_sector_uniformity_two_members():
    g = Grid(12)
    labs = [DirichletGridRelation(disk_mask(g, 0.6)),
            DirichletGridRelation(mask_from_shapes(
                g, [disk((0.0, 0.0), 0.5)], label="small"))]
    rep = sector_uniformity(labs, eps=0.2)
    assert set(rep.labels) == {"disk", "small"}
    assert math.isfinite(rep.bound) and rep.bound >= 1.0
    assert len(rep.per_label) == 2
    assert all(math.isfinite(v) for v in rep.per_label)
    assert rep.bound == max(rep.per_label)


def test_sector_uniformity_keeps_no_factors(monkeypatch):
    # the m = 96 disk has 3632 nodes; the bound reads signs, so it makes no
    # factorization and no solve at any mesh size
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(heatlab, "_factor", counting("_factor", heatlab._factor))
    monkeypatch.setattr(spl, "splu", counting("splu", spl.splu))
    monkeypatch.setattr(spl, "spsolve", counting("spsolve", spl.spsolve))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    lab = DirichletGridRelation(disk_mask(Grid(96), 0.7))
    assert lab.n_inside == 3632
    rep = sector_uniformity([lab])
    assert rep.bound == 1.0 / math.sin(0.1)
    assert rep.per_label == (rep.bound,)
    assert calls == []


def test_sector_uniformity_refuses_broken_premises():
    rel = DirichletGridRelation(disk_mask(Grid(12), 0.6))
    n = rel.n_inside
    # a positive shift makes the interior row sums 0.5 > 0: e^{tL} grows
    shifted = DirichletGridRelation(rel.mask, operator=rel.op + 0.5 * sp.identity(n),
                                    label="shifted")
    with pytest.raises(ContractFailed, match="shifted") as exc:
        sector_uniformity([rel, shifted])
    assert exc.value.row is not None and exc.value.row >= 0
    # m = -1 flips every off-diagonal sign; the spectrum is in Re > 0
    flipped = multiplier_relation(-np.ones(rel.state_dim), rel)
    with pytest.raises(ContractFailed, match=r"disk\*m") as exc:
        sector_uniformity([flipped])
    assert exc.value.row == 0
    for eps in (0.0, -0.1, math.pi / 2 + 1e-9, math.nan):
        with pytest.raises(InvalidInput):
            sector_uniformity([rel], eps=eps)
    with pytest.raises(InvalidInput):
        sector_uniformity([])
    assert sector_uniformity([rel], eps=math.pi / 2).bound == 1.0


def _sampled_sector_norm(lab, eps, rays=5, radii=7):
    """Largest exact ``‖λR(λ)‖∞`` over sampled ``λ = r e^{iθ}``, by dense inversion."""
    n = lab.n_inside
    dense = lab.op.toarray()
    worst = 0.0
    for th in np.linspace(-(math.pi / 2 - eps), math.pi / 2 - eps, rays):
        for r in np.logspace(-2.0, 3.0, radii):
            lam = r * complex(math.cos(th), math.sin(th))
            res = np.linalg.inv(lam * np.eye(n) - dense)
            worst = max(worst, abs(lam) * float(np.abs(res).sum(axis=1).max()))
    return worst


@pytest.mark.parametrize("m", [12, 16])
def test_sector_uniformity_encloses_the_dense_samples(m):
    grid = Grid(m)
    base = DirichletGridRelation(disk_mask(grid, 0.7))
    weights = np.random.default_rng(m).uniform(0.5, 2.0, grid.n_nodes)
    labs = [base,
            DirichletGridRelation(polygon_family(grid, 0.7, sides=(6,))[0]),
            DirichletGridRelation(slit_family(grid, 0.7, widths=(1,),
                                              inner_x=(0.56,))[0]),
            multiplier_relation(weights, base)]
    assert all(lab.n_inside for lab in labs)
    for eps in (0.1, 0.2, 0.5):
        rep = sector_uniformity(labs, eps=eps)
        assert rep.bound == 1.0 / math.sin(eps)
        for lab, bound in zip(labs, rep.per_label):
            assert _sampled_sector_norm(lab, eps) <= bound


def test_perturbation_experiment_small():
    g = Grid(16)
    limit = disk_mask(g, 0.7)
    masks = polygon_family(g, 0.7, sides=(3, 4, 6))
    f = np.zeros((g.n_nodes, 1))
    f[limit.indices(), 0] = 1.0
    rep = perturbation_experiment(masks, limit, lambda_grid=[1.0],
                                  t_grid=np.linspace(0.0, 1.0, 5),
                                  f_set=f, tol=0.5, items=("i", "ii"),
                                  samples=3)
    assert rep.convergence.consistent
    assert all(rep.convergence.verdicts.values())
    assert np.all(np.diff(rep.convergence.integrated_sup) < 0)
    assert rep.criterion.ok
    assert set(rep.contraction) == {m.label for m in masks} | {limit.label}
    assert all(c.ok for c in rep.contraction.values())
    assert rep.nearest_distances.shape == (3, 3)
    # graph distances shrink as the polygons approach the disk
    assert np.all(np.diff(rep.nearest_distances.max(axis=1)) < 0)
    assert np.max(rep.off_limit_sup) <= 1e-12
    assert rep.header["norm"] == "sup"
    assert rep.header["criterion_direction"] == "to_infinity"


def test_builders():
    g = Grid(24)
    d = disk_mask(g, 0.7)
    polys = polygon_family(g, 0.7, sides=(4, 8, 16))
    assert [p.label for p in polys] == ["poly-4", "poly-8", "poly-16"]
    counts = [p.node_count for p in polys]
    assert counts == sorted(counts)
    assert all(np.all(~p.values | d.values) for p in polys)
    slits = slit_family(g, 0.7, widths=(8, 4, 2, 1))
    assert len(slits) == 4
    slit_counts = [s.node_count for s in slits]
    assert slit_counts == sorted(slit_counts)  # narrower slit removes less
    assert all(s.node_count < d.node_count for s in slits)
    b = bump_function(g)
    assert b.shape == (g.n_nodes,)
    assert b.max() == 1.0 and b.min() > 0.0 and b.min() < 1e-6


def test_resolvent_refuses_a_corrupted_solve(small_disk, corrupt_factor):
    # λ = 1 is read from the basis built on the pole factor at max λ = 2, so a
    # 1 % wrong pole factor must be refused at a shift it never factored
    rel = DirichletGridRelation(small_disk.mask)
    ones = np.ones(rel.state_dim)
    [x] = rel.resolvent([1.0], ones)
    assert _backward_error(rel, 1.0, x, ones) <= 1e-15
    corrupt_factor(2.0)
    with pytest.raises(NotInResolventSet) as exc:
        rel.resolvent([1.0, 2.0], ones)
    assert exc.value.lam == 1.0
    assert exc.value.residual > ACCEPT_TOL and "backward error" in str(exc.value)


def test_contraction_refuses_a_corrupted_solve(small_disk, corrupt_factor):
    # the row sums are the verified resolvent's: a 1 % wrong solve is refused
    # as a solve, not read as a violated contraction
    rel = DirichletGridRelation(small_disk.mask)
    corrupt_factor(1.0)
    with pytest.raises(NotInResolventSet) as exc:
        supnorm_contraction(rel, lams=(1.0,))
    assert exc.value.lam == 1.0 and exc.value.residual > ACCEPT_TOL
    # no refused read is kept: a second certificate solves again and is
    # refused again, while the solve at 0 has a sound factor of its own
    with pytest.raises(NotInResolventSet):
        supnorm_contraction(rel, lams=(1.0,))
    surjective_solve(rel, np.ones(rel.state_dim))


def test_supnorm_contraction_reads_offdiagonal_signs_exactly(small_disk):
    # a coupling of −1e-15 breaks the Z-matrix premise; no tolerance may hide it
    op = small_disk.op.tocsr(copy=True)
    rows = np.repeat(np.arange(op.shape[0]), np.diff(op.indptr))
    k = np.flatnonzero(op.indices != rows)[7]
    op.data[k] = -1e-15
    bad = DirichletGridRelation(small_disk.mask, operator=op, label="bent")
    with pytest.raises(ContractFailed) as exc:
        supnorm_contraction(bad, lams=(1.0,))
    assert exc.value.row == rows[k] and f"row {rows[k]}" in str(exc.value)
    with pytest.raises(InvalidInput):  # the λ grid is checked first
        supnorm_contraction(bad, lams=(1.0, 0.0))
