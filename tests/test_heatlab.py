import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spl

from relsemi.converge import DenseEvaluator
from relsemi.errors import ContractFailed, InvalidInput, VanishingMultiplier
from relsemi.grids import Grid, disk, mask_from_shapes
from relsemi.heatlab import (
    DirichletGridRelation,
    bump_function,
    disk_mask,
    domain_convergence_check,
    first_eigenvalue,
    heat_orbit,
    interval_eigenvalue_closed_form,
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
from relsemi.spectral import resolvent


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
        assert abs(interval_eigenvalue_closed_form(m) - want) < 1e-12 * want


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
    assert rel.m_dissipative_ok()


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
    dense = DenseEvaluator(rel.dense_relation(), "sup")
    ts = np.array([0.0, 0.05, 0.4])
    assert np.max(rel.vec_norm(rel.integrated(ts, f) - dense.integrated(ts, f))) < 1e-9
    zs = np.array([0.0, 0.05 + 0.02j, 0.4 - 0.3j])
    assert np.max(rel.vec_norm(rel.semigroup(zs, f) - dense.semigroup(zs, f))) < 1e-9


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
    uu, ff = rel.nearest_pair(u, f2)
    assert rel.graph_distance(uu, ff) < 1e-9


def test_nearest_pair_keeps_complex_data():
    # the graph is real, so the projection of a complex pair is the
    # projection of its real part plus i times that of its imaginary part
    rel = DirichletGridRelation(disk_mask(Grid(12), 0.7))
    rng = np.random.default_rng(12)
    u, f = (rng.standard_normal((2, rel.state_dim))
            + 1j * rng.standard_normal((2, rel.state_dim)))
    uu, ff = rel.nearest_pair(u, f)
    moved = math.sqrt(np.linalg.norm(u - uu) ** 2 + np.linalg.norm(f - ff) ** 2)
    assert moved == pytest.approx(rel.graph_distance(u, f), rel=1e-12)
    ur, fr = rel.nearest_pair(u.real, f.real)
    ui, fi = rel.nearest_pair(u.imag, f.imag)
    assert np.array_equal(uu, ur + 1j * ui) and np.array_equal(ff, fr + 1j * fi)


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


def test_certificates_under_refinement(refined_disk):
    # ‖L‖ grows like h⁻²; none of these checks may lose digits with it
    rel = refined_disk
    assert rel.range_shift_full(1 + 1j)
    cert = supnorm_contraction(rel)
    assert all(0.0 < n <= 1.0 for n in cert.norms) and cert.resolvent_min > 0.0
    rng = np.random.default_rng(rel.grid.m)
    u, f, scale = _graph_pair(rel, rng.standard_normal(rel.n_inside))
    assert rel.graph_distance(u, f) <= 1e-12 * scale


def test_graph_distance_of_smooth_pair_under_refinement(refined_disk, request):
    rel = refined_disk
    if rel.grid.m >= 128:
        request.applymarker(pytest.mark.xfail(strict=True, reason=(
            "the nearest point solves with the Gram matrix I + LᵀL, whose "
            "condition grows like h⁻⁴: for smooth data, where ‖Lu‖ stays "
            "bounded, the relative distance grows from 3e-13 at m = 32 to "
            "4e-11 at m = 256")))
    u, f, scale = _graph_pair(rel, bump_function(rel.grid)[rel.omega])
    assert rel.graph_distance(u, f) <= 1e-12 * scale


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


def test_first_eigenvalue_block_closed_form():
    g = Grid(7)
    v = np.zeros((7, 7), dtype=bool)
    v[2:5, 2:5] = True
    lam = first_eigenvalue(g, v.ravel())
    k = 3
    want = 8.0 / g.h ** 2 * math.sin(math.pi / (2 * (k + 1))) ** 2
    assert abs(lam - want) < 1e-8 * want
    assert first_eigenvalue(g, np.zeros(49, dtype=bool)) == math.inf


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


def test_max_principle_on_disk(small_disk):
    rep = max_principle_check(small_disk, samples=200)
    assert rep.samples_used + rep.skipped == 200
    assert rep.slack_min >= -1e-12


def test_domain_convergence_growing_polygons():
    g = Grid(24)
    limit = disk_mask(g, 0.7)
    masks = polygon_family(g, 0.7, sides=(4, 8, 16, 32))
    rep = domain_convergence_check(masks, limit)
    assert rep.ok and rep.expected_direction == "to_infinity"
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


def test_heat_orbit_validation(small_disk):
    u0 = np.ones(small_disk.state_dim)
    with pytest.raises(InvalidInput):
        heat_orbit(small_disk, u0, [0.0, 1.0])  # t = 0 not allowed
    with pytest.raises(InvalidInput):
        heat_orbit(small_disk, u0, [1.0, 0.5])  # not increasing
    with pytest.raises(InvalidInput):
        heat_orbit(small_disk, np.ones(3), [1.0])


@pytest.mark.parametrize("m", [32, 64, 128])
def test_heat_orbit_membership_under_refinement(m):
    # ‖L‖ grows like h⁻²; the membership check must not lose digits with it
    grid = Grid(m)
    rel = DirichletGridRelation(disk_mask(grid, 0.7))
    orbit = heat_orbit(rel, bump_function(grid), np.arange(1, 21) * 0.05)
    assert len(orbit.membership_residuals) == 2
    assert max(orbit.membership_residuals) <= 1e-6
    assert orbit.off_domain_max == 0.0 and orbit.projection_defect <= 1e-12


def test_sector_uniformity_two_members():
    g = Grid(12)
    labs = [DirichletGridRelation(disk_mask(g, 0.6)),
            DirichletGridRelation(mask_from_shapes(
                g, [disk((0.0, 0.0), 0.5)], label="small"))]
    rep = sector_uniformity(labs, eps=0.2, rays=3, radii=5)
    assert set(rep.labels) == {"disk", "small"}
    assert math.isfinite(rep.bound) and rep.bound >= 1.0
    assert len(rep.per_label) == 2
    assert all(math.isfinite(v) for v in rep.per_label)
    assert rep.bound == max(rep.per_label)


def test_sector_uniformity_keeps_no_factors():
    lab = DirichletGridRelation(disk_mask(Grid(16), 0.6))
    sector_uniformity([lab])
    assert lab._shift_lus == {}


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
