import dataclasses
import logging
import math

import numpy as np
import pytest
import scipy.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dissipative import _pool_relations

import relsemi.semigroup as semigroup_module
import relsemi.spectral as spectral

from relsemi.converge import DenseEvaluator
from relsemi.dissipative import dissipativity_l2, is_m_dissipative
from relsemi.errors import InvalidInput, NotInResolventSet, NotMDissipative, OutsideSector
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


def _leaning(eps):
    """dom A is the e1-line and mul A the (eps, 1)-line: ``eps`` off the
    orthogonal split that dissipativity forces."""
    xs = np.array([[1.0, 0.0], [0.0, 0.0]])
    ys = np.array([[-1.0, eps], [0.0, 1.0]])
    return LinearRelation.from_pairs(xs, ys)


def test_decompose_refuses_a_multivalued_part_off_the_orthogonal_split():
    # Re<y + t v, x> <= 0 for every t forces mul A to be orthogonal to
    # dom A; the form witness eps^2 / 4 lies below the certificate's reach,
    # the defect ||B1^H B0||_2 = eps does not
    rel = _leaning(1e-8)
    cert = dissipativity_l2(rel)
    assert cert.dissipative and 0.0 < cert.witness < 1e-16
    with pytest.raises(NotMDissipative, match=r"\|\|B1\^H B0\|\|_2 = 1\.000e-08"):
        decompose(rel)
    verdict = wellposedness_check(rel)
    assert not verdict.ok and not verdict.m_dissipative
    assert "B1^H B0" in verdict.reason
    sd = decompose(_leaning(1e-13))
    assert np.allclose(sd.projector, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-12)
    assert wellposedness_check(_leaning(1e-13)).ok



def _stiff_non_normal(a, x):
    """The graph of ``A = [[-a, 0], [x, -1]]``, dissipative while
    ``x^2 < 4 a``, spanned by ``(e1 / a, A e1 / a)`` and ``(e2, A e2)``.
    For ``a > 1e10`` the rank decision cuts the singular value ``1 / a`` of
    ``U``: ``A e1 / a`` counts in ``mul A`` and leans ``x / a`` off ``dom A``."""
    xs = np.array([[1.0 / a, 0.0], [0.0, 1.0]])
    ys = np.array([[-1.0, 0.0], [x / a, -1.0]])
    return LinearRelation.from_pairs(xs, ys), np.array([[-a, 0.0], [x, -1.0]])


@pytest.mark.parametrize("x", [10.0, 1e5, 6e5])
def test_decompose_allows_the_lean_of_a_cut_singular_value(x):
    # Herm(V^H U) <= 0 lets a part cut at s = 1e-11 lean by up to
    # (sqrt(2 s) + s) / sigma_k = 6.3e-6; x = 6e5 leans 6e-6
    rel, mat = _stiff_non_normal(1e11, x)
    sd = decompose(rel)
    defect = np.linalg.norm(sd.domain_basis.T @ sd.null_basis, 2)
    assert defect == pytest.approx(x / 1e11, rel=1e-6)
    verdict = wellposedness_check(rel)
    assert verdict.m_dissipative
    # the orthogonal P costs an error of the lean's order against the
    # semigroup of the uncut operator; mild solutions show it past 1e-8
    err = max(np.linalg.norm(semigroup_at(sd, t) - spla.expm(t * mat), 2) for t in (0.5, 1.0, 2.0))
    assert err <= defect
    assert verdict.ok == (x == 10.0)


EPS = np.finfo(float).eps
#: the split's round-off, in units of d eps: ||P - P^H||_2, ||P^2 - P||_2,
#: ||T(t)||_2 - 1 and ||T(0.7) B0||_2 measured at most 0.26, 4.0, 4.0 and
#: 4.8 over 20,000 random m-dissipative relations, d = 1..8
SPLIT_SLACK = 16


@pytest.mark.parametrize("field", ["real", "complex"])
@given(d=st.integers(0, 8), dom=st.integers(0, 8), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_the_split_is_orthogonal_and_the_semigroup_contracts(field, d, dom, seed):
    sd = decompose(random_m_dissipative(np.random.default_rng(seed), d, field,
                                        dom_dim=min(dom, d)))
    slack = SPLIT_SLACK * max(d, 1) * EPS
    p = sd.projector
    assert np.linalg.norm(p - p.conj().T, 2) <= slack
    assert np.linalg.norm(p @ p - p, 2) <= slack
    ts = np.linspace(0.0, 5.0, 11)
    assert np.all(np.linalg.norm(semigroup_at(sd, ts), 2, axis=(1, 2)) <= 1.0 + slack)
    assert np.linalg.norm(semigroup_at(sd, 0.7) @ sd.null_basis, 2) <= slack


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
    # t = s = 0: every window is empty and S(0) = 0
    empty = functional_equation_residual(degenerate, 0.0, 0.0)
    assert empty.residual == empty.residual_swapped == 0.0


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


@pytest.mark.parametrize("grid", [[math.nan], [0.0, math.inf], [0.0, 1.0, math.nan],
                                  [1.0, 1e308]])
def test_mild_solution_refuses_non_finite_times(rng, grid):
    # each grid returned NaN states, [nan] with a Lipschitz defect of 0.0
    sd = decompose(random_m_dissipative(rng, 4, "real", dom_dim=3))
    with pytest.raises(InvalidInput):
        mild_solution(sd, np.ones(4), grid)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_evaluations_refuse_non_finite_times(rng, t):
    # each returned NaN matrices or residuals, or named a sector for the point
    sd = decompose(random_m_dissipative(rng, 4, "real", dom_dim=3))
    for fn in (semigroup_at, integrated_at):
        for ts in (t, [0.5, t]):
            with pytest.raises(InvalidInput):
                fn(sd, ts)
    for z in (complex(t, 0.0), complex(0.5, t), complex(t, t)):
        with pytest.raises(InvalidInput):
            holomorphic_at(sd, z)
    with pytest.raises(InvalidInput):
        functional_equation_residual(sd, 0.3, t)
    with pytest.raises(InvalidInput):
        laplace_residual(sd, 1.0, horizon=abs(t))


def test_evaluations_refuse_times_that_overflow(rng):
    # NaN matrices, or LinAlgError from the norm of a NaN residual
    sd = decompose(random_m_dissipative(rng, 4, "real", dom_dim=3))
    for evaluate in (semigroup_at, integrated_at, holomorphic_at):
        with pytest.raises(InvalidInput, match="overflows"):
            evaluate(sd, [0.5, 1e308])
    with pytest.raises(InvalidInput, match="overflows"):
        functional_equation_residual(sd, 0.3, 1e200)
    for transform in ("semigroup", "integrated"):
        with pytest.raises(InvalidInput, match="overflows"):
            laplace_residual(sd, 1.0, 1e200, transform)


def test_wellposedness_verdicts():
    good = wellposedness_check(graph_of(np.array([[-1.0]])))
    assert good.ok and good.m_dissipative
    bad = wellposedness_check(graph_of(np.array([[1.0]])))
    assert not bad.ok and not bad.m_dissipative
    assert bad.witness is not None
    assert bad.witness["lipschitz_ratio"] > 1.0


def _stiff(scale):
    """Dissipative, ``||M|| ~ scale``, with modes from ``-scale`` to ``-1``."""
    return graph_of(np.diag([-scale, -1.0, -scale / 2]) + np.triu(np.ones((3, 3)), 1))


def test_wellposedness_check_accepts_a_stiff_generator():
    verdict = wellposedness_check(_stiff(1e4))
    assert verdict.ok, verdict
    assert verdict.max_membership_residual <= 1e-11


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
def test_mild_solution_membership_on_stiff_generators(scale):
    sd = decompose(_stiff(scale))
    assert math.isclose(np.linalg.norm(sd.generator_matrix, 2), scale, rel_tol=0.01)
    ts = np.arange(0.0, 3.0 + 1e-12, 0.1)
    for x in np.eye(3):
        sol = mild_solution(sd, x, ts)
        assert np.max(sol.membership_residuals) <= 1e-11
        assert sol.lipschitz_defect <= 1e-9


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5])
def test_laplace_and_functional_equation_on_stiff_generators(scale):
    # a panel quadrature with 64 nodes per unit time cannot resolve
    # e^{-scale t}: it read 9.2e-10 at 1e3 and 7.2e-5 at 1e4
    sd = decompose(_stiff(scale))
    for transform in ("semigroup", "integrated"):
        for lam in (1.0, 2.0 + 1.0j):
            assert laplace_residual(sd, lam, transform=transform).total <= 1e-11
    chk = functional_equation_residual(sd, 0.3, 1.0)
    assert chk.residual <= 1e-12
    assert chk.residual_swapped <= 1e-12


def test_wellposedness_check_gathers_the_evidence_once(monkeypatch):
    calls = []
    check = semigroup_module.decide_m_dissipative

    def counting(*args, **kwargs):
        calls.append(args[0])
        return check(*args, **kwargs)

    monkeypatch.setattr(semigroup_module, "decide_m_dissipative", counting)
    for mat, ok in (([[-1.0]], True), ([[1.0]], False)):
        calls.clear()
        verdict = wellposedness_check(graph_of(np.array(mat)))
        assert verdict.m_dissipative is ok
        assert len(calls) == 1


def _count_certified(monkeypatch):
    """Patch the stacked least-squares call of the resolvent certificate to
    record each certified ``lam``."""
    lams = []
    certify = spectral._certify

    def counting(rel, block, accept_tol):
        lams.extend(block)
        return certify(rel, block, accept_tol)

    monkeypatch.setattr(spectral, "_certify", counting)
    return lams


@pytest.mark.parametrize("field", ["real", "complex"])
def test_decompose_certifies_no_resolvent(field, monkeypatch):
    rel = random_m_dissipative(np.random.default_rng(4), 5, field, dom_dim=3)
    lams = _count_certified(monkeypatch)
    sd = decompose(rel)
    # the decision counts dimensions and certifies no lam
    assert lams == []
    for lam in (1.0, np.float64(1.0), 1):
        for transform in ("semigroup", "integrated"):
            assert laplace_residual(sd, lam, transform=transform).total <= 1e-12
    assert lams == [1.0] * 6
    lams.clear()
    laplace_residual(sd, 2.0 + 1.0j)
    assert lams == [2.0 + 1.0j]


def test_laplace_at_one_refuses_as_the_resolvent_does(monkeypatch):
    sd = decompose(random_m_dissipative(np.random.default_rng(4), 5, "real", dom_dim=3))
    tight = spectral.resolvent(sd.relation, 1.0).residual / 2
    with pytest.raises(NotInResolventSet) as want:
        spectral.resolvent(sd.relation, 1.0, tight)
    monkeypatch.setattr(semigroup_module, "resolvent",
                        lambda rel, lam: spectral.resolvent(rel, lam, tight))
    with pytest.raises(NotInResolventSet) as got:
        laplace_residual(sd, 1.0)
    assert str(got.value) == str(want.value)
    assert (got.value.lam, got.value.rank, got.value.residual) == \
        (want.value.lam, want.value.rank, want.value.residual)


def _count_expm_inputs(monkeypatch, sizes=None):
    """Patch ``scipy.linalg.expm`` to record how many matrices each call takes.

    ``sizes``, when given, also collects each call's matrix size.
    """
    inputs = []
    expm = spla.expm

    def counting(a, *args, **kwargs):
        inputs.append(a.shape[0] if a.ndim == 3 else 1)
        if sizes is not None:
            sizes.append(a.shape[-1])
        return expm(a, *args, **kwargs)

    monkeypatch.setattr(spla, "expm", counting)
    return inputs


def test_wellposedness_check_evaluates_the_nodes_once(monkeypatch, rng):
    rel = random_m_dissipative(rng, 6, "complex", dom_dim=4)
    sd = decompose(rel)
    ts = np.linspace(0.1, 3.0, 10)  # the default grid
    per_vector = [mild_solution(sd, x, ts) for x in np.eye(6, dtype=sd.projector.dtype)]
    sizes = []
    inputs = _count_expm_inputs(monkeypatch, sizes)
    verdict = wellposedness_check(rel)
    # one augmented 3 dim(dom)-square matrix per distinct step of the grid,
    # for all six trial vectors together: the first step and the rounded
    # copies of the 0.32 spacing; one matrix per time took 10, and a 16-node
    # running quadrature 170
    assert inputs == [np.unique(np.diff(ts, prepend=0.0)).size] == [5]
    assert sizes == [3 * sd.domain_dim]
    assert verdict.ok
    assert verdict.max_membership_residual == max(
        float(np.max(sol.membership_residuals)) for sol in per_vector)
    assert verdict.lipschitz_defect == max(sol.lipschitz_defect for sol in per_vector)


def test_mild_solutions_log_one_line_per_block(rng, caplog):
    sd = decompose(random_m_dissipative(rng, 5, "real", dom_dim=3))
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        mild_solution(sd, np.ones(5), np.arange(0.0, 3.0 + 1e-12, 0.1))
        wellposedness_check(sd.relation)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("mild_block")]
    # one matrix per distinct nonzero step: the arange grid's rounded steps
    # take 6 values, and the wellposedness grid's 5
    assert lines == ["mild_block times=31 columns=1 matrices=6",
                     "mild_block times=10 columns=5 matrices=5"]


def test_closed_form_checks_make_one_expm_call_each(monkeypatch, rng, caplog, capsys):
    sd = decompose(random_m_dissipative(rng, 6, "complex", dom_dim=4))
    n = sd.domain_dim
    runs = (("integrated", lambda: laplace_residual(sd, 1.0, transform="integrated"), 1, 4),
            ("semigroup", lambda: laplace_residual(sd, 1.0, transform="semigroup"), 1, 2),
            ("functional", lambda: functional_equation_residual(sd, 0.3, 1.0), 3, 3))
    sizes = []
    inputs = _count_expm_inputs(monkeypatch, sizes)
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        for name, run, matrices, blocks in runs:
            inputs.clear()
            sizes.clear()
            run()
            # one augmented matrix per integral, where a 64-node panel
            # quadrature evaluated 144 (Laplace) and 202 (functional equation)
            assert inputs == [matrices], name
            assert sizes == [blocks * n], name
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith(("laplace", "functional_equation"))]
    assert lines == [f"laplace transform=integrated matrices=1 size={4 * n}",
                     f"laplace transform=semigroup matrices=1 size={2 * n}",
                     f"functional_equation matrices=3 size={3 * n}"]
    assert capsys.readouterr().out == ""


def test_sector_angle_is_certified_once_per_decomposition(monkeypatch, rng):
    sd = decompose(random_m_dissipative(rng, 5, "complex", dom_dim=3))
    angle = certified_sector_angle(sd)
    calls = []
    certify = semigroup_module.certified_sector_angle

    def counting(data):
        calls.append(data)
        return certify(data)

    monkeypatch.setattr(semigroup_module, "certified_sector_angle", counting)
    for z in (0.5, 2.0, 0.3 + 0.1j):
        holomorphic_at(sd, z)
    assert len(calls) == 1
    assert sd.sector_angle == angle


@pytest.mark.parametrize("dom_dim", [0, 3])
def test_projector_is_formed_on_first_use(rng, dom_dim):
    sd = decompose(random_m_dissipative(rng, 5, "complex", dom_dim=dom_dim))
    mild_solution(sd, np.ones(5), np.linspace(0.0, 1.0, 4))
    laplace_residual(sd, 1.0, transform="integrated")
    functional_equation_residual(sd, 0.3, 1.0)
    assert "projector" not in vars(sd)
    assert np.array_equal(sd.projector, sd.domain_basis @ sd.domain_basis.conj().T)
    assert sd.projector.shape == (5, 5) and sd.projector.dtype == complex
    assert sd.projector is sd.projector


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


# (d, class, variant) of the real dense-spectral pool relations whose sector
# check the benchmark reference records as refused: 3, 5, 2 and 2 points at
# |lambda| = 1.78e5 or 1e6 with residuals 1.02e-9 to 1.35e-9, worst sampled
# norms 0.99999983, 0.99999986, 1.2425 and 1.2688
@pytest.mark.parametrize("d, cls, variant", [(6, 1, 2), (12, 1, 1), (32, 4, 1), (32, 4, 2)])
@pytest.mark.xfail(strict=True, reason="the acceptance residual ACCEPT_TOL = 1e-9 "
                   "is absolute, so large |lambda| refuses resolvent points")
def test_sector_verify_accepts_far_points_of_an_m_dissipative_relation(d, cls, variant):
    rel = random_m_dissipative(np.random.default_rng([101, d, 0, cls, variant]), d,
                               "real", dom_dim=round(cls * d / 6))
    assert is_m_dissipative(rel).ok
    ev = sector_verify(rel, SectorSpec(math.pi / 4, 2.0), math.pi / 2,
                       radii=13, rays=7)
    assert ev.worst_norm < 2.0
    assert ev.passed, ev.failures


@pytest.mark.parametrize("radii, rays, named", [
    (0, 3, "radii"), (3, 0, "rays"), (1, 3, "radii"), (3, 1, "rays"), (-1, 3, "radii"),
    (2.5, 3, "radii"), (3, 3.0, "rays"), (True, 3, "radii"), ("5", 3, "radii")])
def test_sector_verify_refuses_too_few_samples(radii, rays, named):
    # with no radius or no ray the check sampled nothing and passed with
    # worst_norm = -inf; the endpoints of both ranges are sampled points
    rel = random_m_dissipative(np.random.default_rng(4), 3, "real", dom_dim=2)
    with pytest.raises(InvalidInput, match=f"{named} must be an integer >= 2"):
        sector_verify(rel, SectorSpec(math.pi / 4, 2.0), math.pi / 2, radii=radii, rays=rays)


def test_sector_verify_samples_both_endpoints_at_two_per_range():
    ev = sector_verify(graph_of(-np.eye(2)), SectorSpec(math.pi / 4, 2.0), math.pi / 2,
                       radii=np.int64(2), rays=2)
    assert ev.passed and math.isfinite(ev.worst_norm)


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


def test_holomorphic_norms_stay_contractive_on_the_pool(monkeypatch, caplog):
    # inside the certified sector ||T(z)||_2 = ||e^{z M1}||_2 <= 1
    count = 0
    with caplog.at_level(logging.WARNING, logger="relsemi"):
        for rel in _pool_relations(monkeypatch):
            sd = decompose(rel)
            zs = np.outer([0.5, 2.0], np.exp(0.9j * sd.sector_angle * np.array([-1, 1]))).ravel()
            norms = np.linalg.norm(holomorphic_at(sd, zs), 2, axis=(1, 2))
            assert np.all(norms <= 1.0 + semigroup_module.SECTOR_SLACK)
            count += 1
    assert not caplog.records
    assert count == 693


def test_holomorphic_at_warns_beyond_the_contraction_bound(degenerate, caplog):
    # a domain basis that is not orthonormal breaks ||T(z)|| = ||e^{z M1}||
    z = 0.5 * np.exp(1j * math.pi / 6)
    skewed = dataclasses.replace(degenerate, domain_basis=2.0 * degenerate.domain_basis)
    with caplog.at_level(logging.WARNING, logger="relsemi"):
        holomorphic_at(degenerate, z)
        assert not caplog.records
        holomorphic_at(skewed, z)
    assert [r.getMessage().split(" has ")[0] for r in caplog.records] == \
        [f"holomorphic evaluation at z={z}"]


def test_holomorphic_outside_sector_raises():
    # quarter-plane rotation brings |arg z| past the certified angle
    m = np.array([[-1.0, 5.0], [-5.0, -1.0]])  # angle atan(5) off the axis
    sd = decompose(graph_of(m))
    angle = certified_sector_angle(sd)
    z = 0.3 * np.exp(1j * (angle + 0.05))
    with pytest.raises(OutsideSector):
        holomorphic_at(sd, z)


def test_holomorphic_at_takes_the_real_half_line_without_an_angle(monkeypatch, caplog):
    # the rotation generator has certified angle 0, yet T(t) exists for t >= 0
    rot = graph_of(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    sd = decompose(rot)
    assert certified_sector_angle(sd) == 0.0
    calls = []
    angle = semigroup_module.certified_sector_angle
    monkeypatch.setattr(semigroup_module, "certified_sector_angle",
                        lambda data: calls.append(data) or angle(data))
    ts = np.array([0.0, 0.5, 2.0])
    with caplog.at_level(logging.WARNING, logger="relsemi"):
        stack = holomorphic_at(sd, ts.astype(complex))
        one = holomorphic_at(sd, 0.5)
        dense = DenseEvaluator(rot).semigroup(np.array([0.5 + 0j]), np.eye(2))
    assert not caplog.records
    assert calls == []
    want = semigroup_at(sd, ts)
    assert np.allclose(stack, want, rtol=0.0, atol=1e-15)
    assert np.allclose(one, want[1], rtol=0.0, atol=1e-15)
    assert np.allclose(dense[0], want[1], rtol=0.0, atol=1e-15)
    # a negative real z and an off-axis z outside the angle still raise
    for z in (-0.5, 0.5 + 0.01j, np.array([0.5, -1.0])):
        with pytest.raises(OutsideSector):
            holomorphic_at(sd, z)
    assert calls == [sd]  # the angle was computed once, for the off-axis points
