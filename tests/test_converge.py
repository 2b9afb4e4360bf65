import math

import numpy as np
import pytest

from relsemi.converge import (
    PROTOCOL,
    DenseEvaluator,
    InconsistentEquivalence,
    NotCauchy,
    ResolventNotConvergent,
    SectorHypothesisFailed,
    as_evaluator,
    empirical_limit,
    holomorphic_convergence_report,
    limit_from_resolvents,
    oscillating_integrated_value,
    oscillating_scalar_family,
    oscillating_scalar_limit,
    trotter_kato_report,
)
from relsemi.errors import InvalidInput
from relsemi.grids import Grid
from relsemi.heatlab import DirichletGridRelation, disk_mask, polygon_family
from relsemi.relation import LinearRelation
from relsemi.semigroup import SectorSpec


def scalar(a):
    return LinearRelation.from_operator(np.array([[a]]))


def shrinking_family(ns=(4, 16, 64)):
    return [scalar(-1 - 1 / n) for n in ns], scalar(-1.0)


def test_oscillating_family_shape():
    rel = oscillating_scalar_family(7)
    assert rel.state_dim == 1
    p = rel.parts
    assert p.domain.dim == 1 and p.multivalued.dim == 0
    lim = oscillating_scalar_limit()
    assert lim.parts.domain.dim == 0 and lim.parts.multivalued.dim == 1


def test_oscillating_integrated_closed_form():
    # S_n(t) = (e^{int} - 1)/(in), peak modulus 2/n at t = pi(2j+1)/n
    n = 9
    for t in (0.3, 1.0, 2.5):
        want = (np.exp(1j * n * t) - 1.0) / (1j * n)
        assert abs(oscillating_integrated_value(n, t) - want) < 1e-14
    peak = math.pi / n
    assert abs(abs(oscillating_integrated_value(n, peak)) - 2.0 / n) < 1e-14


def test_oscillating_report_exact_suprema():
    ns = [10, 100]
    peaks = [math.pi * (2 * j + 1) / n for n in ns for j in range(3)]
    t_grid = np.unique(np.concatenate([np.linspace(0.0, 10.0, 201), peaks]))
    rep = trotter_kato_report(
        [oscillating_scalar_family(n) for n in ns],
        oscillating_scalar_limit(),
        lambda_grid=[1.0, 2.0 + 1.0j],
        t_grid=t_grid,
        f_set=np.array([[1.0 + 0j]]),
        tol=0.5,
        items=("i", "ii", "iii", "v"),
    )
    for k, n in enumerate(ns):
        assert abs(rep.integrated_sup[k] - 2.0 / n) < 1e-12
    assert rep.consistent and all(rep.verdicts.values())


def test_trotter_kato_all_items_pass():
    fam, lim = shrinking_family()
    rep = trotter_kato_report(fam, lim, lambda_grid=[1.0, 2.0],
                              t_grid=np.linspace(0.0, 3.0, 31), tol=0.05)
    assert rep.verdicts == {k: True for k in ("i", "ii", "iii", "iv", "v")}
    assert rep.consistent
    assert rep.mu_hypothesis["range_full"]
    assert rep.mu_hypothesis["all_in_resolvent"]
    # errors shrink along the family
    assert np.all(np.diff(rep.integrated_sup) < 0)
    for errs in rep.resolvent_errors.values():
        assert np.all(np.diff(errs) < 0)


def test_trotter_kato_mixed_verdicts_raise():
    # frozen split: final integrated error 1.237e-2 and final gap 7.75e-3
    # straddle tol=5e-3 while both resolvent criteria sit below it
    fam, lim = shrinking_family()
    with pytest.raises(InconsistentEquivalence):
        trotter_kato_report(fam, lim, lambda_grid=[1.0, 2.0],
                            t_grid=np.linspace(0.0, 3.0, 31), tol=0.005)


def test_trotter_kato_rows_long_format():
    fam, lim = shrinking_family()
    rep = trotter_kato_report(fam, lim, lambda_grid=[1.0],
                              t_grid=np.linspace(0.0, 3.0, 31), tol=0.05)
    labels, kinds, params, errors = rep.columns()
    assert set(kinds) == {"integrated_sup", "resolvent", "mu_resolvent", "gap"}
    assert set(labels) == {1, 2, 3}
    assert len(labels) == len(kinds) == len(params) == len(errors)


class _ScalarEvaluator:
    """The scalar evaluator ``x' = a x`` through the protocol alone, no relation."""

    def __init__(self, a):
        self.a = complex(a)
        self.state_dim = 1

    def resolvent(self, lams, f_set):
        lams = np.atleast_1d(lams)[:, None, None]
        return np.asarray(f_set) / (lams - self.a)

    def semigroup(self, zs, f_set):
        return np.asarray(f_set) * np.exp(self.a * np.atleast_1d(zs))[:, None, None]

    def integrated(self, ts, f_set):
        a = self.a
        ts = np.atleast_1d(ts)[:, None, None]
        return np.asarray(f_set) * ((np.exp(a * ts) - 1.0) / a)

    def vec_norm(self, v):
        return np.linalg.norm(v, axis=0 if np.ndim(v) == 1 else -2)


def test_protocol_members_need_no_relation():
    fam = [_ScalarEvaluator(-1 - 1 / n) for n in (4, 16, 64)]
    rep = trotter_kato_report(fam, scalar(-1.0), lambda_grid=[1.0],
                              t_grid=np.linspace(0.0, 3.0, 31), tol=0.05,
                              items=("i", "ii"))
    assert rep.consistent and rep.verdicts == {"i": True, "ii": True}


def test_gap_item_requires_relations():
    fam = [_ScalarEvaluator(-1 - 1 / n) for n in (4, 16, 64)]
    with pytest.raises(InvalidInput):
        trotter_kato_report(fam, scalar(-1.0), lambda_grid=[1.0],
                            t_grid=np.linspace(0.0, 3.0, 31), tol=0.05,
                            items=("v",))


def test_as_evaluator_rejects_incomplete():
    class Nope:
        state_dim = 1

    with pytest.raises(InvalidInput):
        as_evaluator(Nope())
    ev = as_evaluator(scalar(-1.0))
    assert ev.state_dim == 1


def test_empirical_limit_accepts_cauchy():
    fam, lim = shrinking_family(ns=(8, 32, 128, 512, 2048))
    last, cert = empirical_limit(fam, cauchy_tol=0.05)
    assert last is fam[-1]
    assert cert["worst_tail_gap"] <= 0.05
    assert len(cert["gap_trace"]) == len(fam) - 1


def test_empirical_limit_rejects_drift():
    fam = [scalar(float(k)) for k in range(5)]
    with pytest.raises(NotCauchy):
        empirical_limit(fam, cauchy_tol=1e-3)
    with pytest.raises(InvalidInput):
        empirical_limit(fam[:2])


def test_limit_from_resolvents_round_trip():
    fam = [scalar(-1.0) for _ in range(5)]
    limit, cert = limit_from_resolvents(1.0, fam)
    from relsemi.relation import gap_relations
    assert gap_relations(limit, fam[-1]) < 1e-12
    assert max(cert["norms"]) <= 0.5 + 1e-12


def test_limit_from_resolvents_rejects_drift():
    fam = [scalar(-1 - 1 / n) for n in (1, 2, 3, 4, 5)]
    with pytest.raises(ResolventNotConvergent):
        limit_from_resolvents(1.0, fam)


def test_holomorphic_report_scalar_family():
    ns = (10, 100, 1000)
    fam = [scalar(-1 - 1 / n) for n in ns]
    thetas = np.linspace(-math.pi / 4, math.pi / 4, 9)
    z_grid = 0.5 * np.exp(1j * thetas)
    rep = holomorphic_convergence_report(
        fam, SectorSpec(alpha=math.pi / 4, bound=1.0), eps=0.3,
        z_grid=z_grid, f_set=np.array([[1.0 + 0j]]), tol=1e-3,
        limit=scalar(-1.0))
    assert rep.passed
    assert np.all(np.diff(rep.errors) < 0)
    assert rep.errors[-1] <= 1e-3
    assert rep.sector_evidence is not None
    assert rep.sector_evidence.passed


def test_holomorphic_report_sector_hypothesis():
    fam = [scalar(-1.0), scalar(-1.0), scalar(1.0)]  # last member expands
    z_grid = np.array([0.2, 0.2 * np.exp(1j * 0.3)])
    with pytest.raises(SectorHypothesisFailed):
        holomorphic_convergence_report(
            fam, SectorSpec(alpha=math.pi / 4, bound=1.0), eps=0.3,
            z_grid=z_grid, tol=1e-3, radii=10, rays=5)


@pytest.mark.parametrize("radii, rays, named", [(0, 7, "radii"), (13, 0, "rays")])
def test_holomorphic_report_refuses_an_unsampled_sector(radii, rays, named):
    # the sector hypothesis was taken as checked when no point was sampled
    fam = [scalar(-1.0 - 1.0 / n) for n in (10, 100, 1000, 10000)]
    with pytest.raises(InvalidInput, match=f"{named} must be an integer >= 2"):
        holomorphic_convergence_report(
            fam, SectorSpec(alpha=math.pi / 4, bound=1.0), eps=0.3,
            z_grid=np.array([0.5]), tol=1e-3, radii=radii, rays=rays,
            limit=scalar(-1.0))


def test_protocol_has_five_members():
    assert PROTOCOL == ("state_dim", "resolvent", "semigroup", "integrated", "vec_norm")
    _, lim = shrinking_family()
    assert isinstance(as_evaluator(lim), DenseEvaluator)
    heat = DirichletGridRelation(disk_mask(Grid(9), 0.6))
    assert as_evaluator(heat) is heat


def test_mu_hypothesis_is_the_limits_certified_resolvent(corrupt_factor):
    # item (iv) reads ran(mu - A) = X from the limit's certificate at mu
    fam, lim = shrinking_family()
    rep = trotter_kato_report(fam, lim, [1.0], [1.0], tol=0.05, items=("iv",))
    assert rep.mu_hypothesis["range_full"] and rep.mu_hypothesis["all_in_resolvent"]
    mu = 1 + 1j
    dense = trotter_kato_report(fam, scalar(mu), [1.0], [1.0], tol=0.05, mu=mu,
                                items=("iv",))  # mu is the limit's eigenvalue
    grid = Grid(12)
    labs = [DirichletGridRelation(mk) for mk in polygon_family(grid, 0.7, sides=(4, 8))]
    limit = DirichletGridRelation(disk_mask(grid, 0.7))
    corrupt_factor(abs(mu))  # the pole of mu's basis; the limit is solved first, so it refuses
    heat = trotter_kato_report(labs, limit, [1.0], [1.0],
                               f_set=np.ones((grid.n_nodes, 1)), tol=0.5, mu=mu,
                               items=("iv",))
    for rep in (dense, heat):
        hyp = rep.mu_hypothesis
        assert hyp["range_full"] is False and hyp["all_in_resolvent"] is False
        assert math.isnan(hyp["max_norm"]) and np.all(np.isnan(rep.mu_errors))
        assert rep.verdicts == {} and rep.consistent
