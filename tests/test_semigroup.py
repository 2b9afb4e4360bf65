import math

import numpy as np
import pytest
import scipy.linalg as spla

import relsemi.semigroup as semigroup_module

from relsemi.dissipative import is_m_dissipative
from relsemi.errors import InvalidInput, NotMDissipative, OutsideSector
from relsemi.relation import LinearRelation
from relsemi.sampling import random_m_dissipative
from relsemi.semigroup import (
    SectorSpec,
    certified_sector_angle,
    decompose,
    functional_equation_residual,
    holomorphic_at,
    integrated_at,
    laplace_residual,
    mild_solution,
    phi1,
    sector_verify,
    semigroup_at,
    semigroup_law_residual,
    wellposedness_check,
)


def graph_of(mat):
    return LinearRelation.from_operator(np.asarray(mat))


@pytest.fixture(scope="module")
def degenerate():
    """A = {((x1, 0), (-2 x1, v)) : v free}: dom = e1-line, mul = e2-line."""
    xs = np.array([[1.0, 0.0], [0.0, 0.0]])
    ys = np.array([[-2.0, 0.0], [0.0, 1.0]])
    return decompose(LinearRelation.from_pairs(xs, ys))


def test_operator_case_matches_expm(rng):
    m = np.array([[-1.0, 0.7], [-0.7, -2.0]])
    sd = decompose(graph_of(m))
    assert np.max(np.abs(sd.projector - np.eye(2))) < 1e-13
    for t in (0.0, 0.5, 1.7):
        assert np.max(np.abs(semigroup_at(sd, t) - spla.expm(t * m))) < 1e-12


def test_decompose_rejects_non_m_dissipative():
    with pytest.raises(NotMDissipative):
        decompose(graph_of(np.eye(2)))


def test_degenerate_projector_and_annihilation(degenerate):
    sd = degenerate
    p = sd.projector
    assert np.max(np.abs(p - np.diag([1.0, 0.0]))) < 1e-13
    # T(t) x = e^{-2t} x1 on the domain line, and mul is annihilated
    t = 0.8
    tt = semigroup_at(sd, t)
    assert abs(tt[0, 0] - math.exp(-2 * t)) < 1e-13
    assert np.max(np.abs(tt @ np.array([0.0, 1.0]))) < 1e-14
    assert np.max(np.abs(semigroup_at(sd, 0.0) - p)) < 1e-14


def test_integrated_semigroup_closed_form(degenerate):
    # S(t) e1 = (1 - e^{-2t})/2 e1, S(t) e2 = 0, S(0) = 0
    sd = degenerate
    t = 1.3
    s = integrated_at(sd, t)
    assert abs(s[0, 0] - (1 - math.exp(-2 * t)) / 2.0) < 1e-13
    assert np.max(np.abs(s[:, 1])) < 1e-14
    assert np.max(np.abs(integrated_at(sd, 0.0))) == 0.0


def test_phi1_small_argument():
    z = np.array([[1e-9]])
    assert abs(phi1(z)[0, 0] - 1.0) < 1e-8
    full = phi1(np.array([[1.0]]))
    assert abs(full[0, 0] - (math.e - 1.0)) < 1e-12


def test_semigroup_law(m_dissipative_battery):
    for rel in m_dissipative_battery[:10]:
        sd = decompose(rel)
        for t, s in ((0.1, 0.5), (1.0, 2.0), (0.5, 0.5)):
            assert semigroup_law_residual(sd, t, s) < 1e-10


def test_projector_limits(m_dissipative_battery):
    from relsemi.spectral import resolvent
    for rel in m_dissipative_battery[:8]:
        sd = decompose(rel)
        lam_norms = [np.linalg.norm(lam * resolvent(rel, lam).matrix - sd.projector, 2)
                     for lam in (1e1, 1e2, 1e3, 1e4)]
        assert all(b <= a + 1e-12 for a, b in zip(lam_norms, lam_norms[1:]))
        t_norms = [np.linalg.norm(semigroup_at(sd, 10.0 ** -k) - sd.projector, 2)
                   for k in range(1, 9)]
        assert all(b <= a + 1e-12 for a, b in zip(t_norms, t_norms[1:]))
        assert t_norms[-1] < 1e-6


def test_integrated_derivative_is_semigroup(degenerate):
    h = 1e-6
    mid = (integrated_at(degenerate, 1.0 + h) - integrated_at(degenerate, 1.0 - h)) / (2 * h)
    assert np.max(np.abs(mid - semigroup_at(degenerate, 1.0))) < 1e-6


def test_functional_equation_both_orderings(degenerate):
    chk = functional_equation_residual(degenerate, 0.7, 1.1)
    assert chk.residual < 1e-8
    assert chk.residual_swapped < 1e-8


def test_laplace_residual_both_transforms(degenerate):
    for transform in ("semigroup", "integrated"):
        chk = laplace_residual(degenerate, 2.0, transform=transform)
        assert chk.total < 1e-9
    with pytest.raises(InvalidInput):
        laplace_residual(degenerate, -1.0)


def test_mild_solution_zero_datum_in_mul(degenerate):
    sol = mild_solution(degenerate, np.array([0.0, 1.0]), np.linspace(0.1, 2.0, 8))
    assert np.max(np.abs(sol.states)) <= 1e-12
    assert np.max(sol.membership_residuals) < 1e-10


def test_mild_solution_checks(m_dissipative_battery):
    ts = np.arange(0.0, 3.0 + 1e-12, 0.1)
    for rel in m_dissipative_battery[:5]:
        sd = decompose(rel)
        x = np.ones(rel.state_dim, dtype=sd.projector.dtype)
        sol = mild_solution(sd, x, ts)
        assert np.max(sol.membership_residuals) <= 1e-8
        assert sol.lipschitz_defect <= 1e-9


def test_wellposedness_verdicts():
    good = wellposedness_check(graph_of(np.array([[-1.0]])))
    assert good.ok and good.m_dissipative
    bad = wellposedness_check(graph_of(np.array([[1.0]])))
    assert not bad.ok and not bad.m_dissipative
    assert bad.witness is not None
    assert bad.witness["lipschitz_ratio"] > 1.0


def test_wellposedness_check_gathers_the_evidence_once(monkeypatch):
    calls = []
    check = semigroup_module.is_m_dissipative

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(semigroup_module, "is_m_dissipative", counting)
    for mat, ok in (([[-1.0]], True), ([[1.0]], False)):
        calls.clear()
        verdict = wellposedness_check(graph_of(np.array(mat)))
        assert verdict.m_dissipative is ok
        assert len(calls) == 1


def test_wellposedness_check_evaluates_the_nodes_once(monkeypatch, rng):
    rel = random_m_dissipative(rng, 6, "complex", dom_dim=4)
    sd = decompose(rel)
    ts = np.linspace(0.1, 3.0, 10)  # the default grid
    per_vector = [mild_solution(sd, x, ts) for x in np.eye(6, dtype=sd.projector.dtype)]
    inputs = []
    expm = spla.expm

    def counting(a, *args, **kwargs):
        inputs.append(a.shape[0] if a.ndim == 3 else 1)
        return expm(a, *args, **kwargs)

    monkeypatch.setattr(spla, "expm", counting)
    verdict = wellposedness_check(rel)
    # 160 quadrature nodes and 10 grid times, for all six trial vectors
    # together; one mild solution per vector evaluates 6 x 170 = 1020
    assert sum(inputs) == 170
    assert verdict.ok
    assert verdict.max_membership_residual == max(
        float(np.max(sol.membership_residuals)) for sol in per_vector)
    assert verdict.lipschitz_defect == max(sol.lipschitz_defect for sol in per_vector)


def test_decompose_keeps_only_the_domain_rows(rng):
    sd = decompose(random_m_dissipative(rng, 8, "real", dom_dim=5))
    assert sd.coord_map.shape == (5, 8)
    assert sd.coord_map.base is None  # not a view pinning the whole inverse


def test_sector_verify_self_adjoint():
    # -I is self-adjoint negative: ||lam R|| <= 1/sin(eps) on the wide sector
    spec = SectorSpec(alpha=math.pi / 2 - 0.05, bound=1.0)
    ev = sector_verify(graph_of(-np.eye(2)), spec, eps=0.3, radii=9, rays=7)
    assert ev.passed
    assert ev.worst_norm <= 1.0 / math.sin(0.3) + 1e-8


def test_sector_verify_collects_failures():
    # spectrum at +1 sits exactly on a sampled point: radii=10 makes the
    # radial grid 10^{-3},...,10^{6} and the center ray passes through 1
    spec = SectorSpec(alpha=math.pi / 4, bound=1.0)
    ev = sector_verify(graph_of(np.array([[1.0]])), spec, eps=0.2, radii=10, rays=5)
    assert not ev.passed
    assert len(ev.failures) > 0


@pytest.mark.xfail(strict=True, reason="the acceptance residual ACCEPT_TOL = 1e-9 "
                   "is absolute, so large |lambda| refuses resolvent points")
def test_sector_verify_accepts_far_points_of_an_m_dissipative_relation():
    # m-dissipative, worst sampled norm 1.27 < 2, yet two points at
    # |lambda| = 1e6 are refused with residuals 1.35e-9 and 1.05e-9
    rel = random_m_dissipative(np.random.default_rng([101, 32, 0, 4, 2]), 32,
                               "real", dom_dim=21)
    assert is_m_dissipative(rel).ok
    ev = sector_verify(rel, SectorSpec(math.pi / 4, 2.0), math.pi / 2,
                       radii=13, rays=7)
    assert ev.worst_norm < 2.0
    assert ev.passed, ev.failures


def test_sector_spec_validation():
    with pytest.raises(InvalidInput):
        SectorSpec(alpha=2.0)
    with pytest.raises(InvalidInput):
        SectorSpec(alpha=1.0, bound=-1.0)


def test_certified_angle_self_adjoint(degenerate):
    assert certified_sector_angle(degenerate) > math.pi / 2 - 1e-6


@pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 1.95])
def test_certified_angle_encloses_the_numerical_range(a):
    # W([[-1, a], [0, -1]]) is the disk of radius a/2 about -1, which the
    # origin sees under the half-angle arcsin(a/2); 64 sampled support
    # points overshoot this angle by 2e-4 to 2e-3 rad
    sd = decompose(graph_of(np.array([[-1.0, a], [0.0, -1.0]])))
    exact = math.pi / 2 - math.asin(a / 2)
    assert abs(certified_sector_angle(sd) - exact) <= 1e-9
    with pytest.raises(OutsideSector):
        holomorphic_at(sd, 0.3 * np.exp(1j * (exact + 1e-4)))


def test_holomorphic_evaluation(degenerate):
    z = 0.5 * np.exp(1j * math.pi / 6)
    tz = holomorphic_at(degenerate, z)
    assert abs(tz[0, 0] - np.exp(-2 * z)) < 1e-12
    assert np.max(np.abs(holomorphic_at(degenerate, 0.0) - degenerate.projector)) < 1e-13


def test_holomorphic_outside_sector_raises():
    # quarter-plane rotation brings |arg z| past the certified angle
    m = np.array([[-1.0, 5.0], [-5.0, -1.0]])  # angle atan(5) off the axis
    sd = decompose(graph_of(m))
    angle = certified_sector_angle(sd)
    z = 0.3 * np.exp(1j * (angle + 0.05))
    with pytest.raises(OutsideSector):
        holomorphic_at(sd, z)
