import re

import numpy as np
import pytest

from relsemi.errors import (
    DivergentSeries,
    InconsistentTable,
    InvalidInput,
    NotAPseudoResolvent,
    NotInResolventSet,
)
from relsemi.relation import LinearRelation, gap_relations
from relsemi.sampling import random_m_dissipative, random_matrix
from relsemi.spectral import (
    in_resolvent_set,
    mul_from_resolvent,
    neumann_extend,
    relation_from_pseudo_resolvent,
    relation_from_resolvent,
    resolvent,
    resolvent_identity_residual,
    resolvent_points,
    resolvent_set_scan,
)


def test_resolvent_matches_matrix_inverse(rng):
    m = random_matrix(rng, 4, 4)
    lam = 9.0  # far from the spectrum of a standard normal draw
    sample = resolvent(LinearRelation.from_operator(m), lam)
    direct = np.linalg.inv(lam * np.eye(4) - m)
    assert np.max(np.abs(sample.matrix - direct)) < 1e-10
    assert sample.residual < 1e-10


def test_eigenvalue_is_rejected_with_rank_diagnostics():
    rel = LinearRelation.from_operator(np.diag([1.0, 2.0]))
    with pytest.raises(NotInResolventSet) as exc:
        resolvent(rel, 2.0)
    assert exc.value.rank == 1
    assert "rank" in str(exc.value)


def test_a_singular_one_dimensional_point_is_refused_for_rank():
    # d = 1: the only singular value is the largest one, so a rank test
    # relative to it alone passed and the point was refused for a residual
    rel = LinearRelation.from_operator(np.array([[-1.0]]))
    with pytest.raises(NotInResolventSet) as exc:
        resolvent(rel, -1.0)
    assert (exc.value.rank, exc.value.residual) == (0, None)
    assert "rank(lam*U - V) = 0 < 1" in str(exc.value)


@pytest.mark.parametrize("rel, lam, want", [
    # ||U|| = 1e-6: lam U - V = 5e-5, far below the bound sqrt(|lam|^2 + 1)
    (LinearRelation.from_operator(np.array([[-1e6]])), -1e6 + 50.0, 0.02),
    (LinearRelation.from_operator(np.array([[-1e12]])), 1e11, 1.0 / (1e11 + 1e12)),
    # the purely multivalued relation {0} x K: R(lam) = 0
    (LinearRelation.from_pairs(np.zeros((1, 1)), np.ones((1, 1))), 1e10, 0.0),
])
def test_stiff_points_are_ranked_against_the_graph_scale(rel, lam, want):
    # the graph basis holds U = 1e-6 (1e-12) to eps absolute, so R(lam)
    # carries a relative error of about 1e-6 (1e-4) that no rank rule removes
    sample = resolvent(rel, lam)
    assert sample.matrix[0, 0] == pytest.approx(want, rel=1e-3, abs=0.0)
    assert in_resolvent_set(rel, lam)
    [row] = resolvent_set_scan(rel, [lam])
    assert row.in_set and row.norm == pytest.approx(abs(want), rel=1e-3, abs=0.0)


def test_wrong_graph_dimension_is_rejected():
    rel = LinearRelation.from_pairs(np.eye(2)[:, :1], np.eye(2)[:, 1:])
    with pytest.raises(NotInResolventSet) as exc:
        resolvent(rel, 1.0)
    assert "graph dimension" in str(exc.value)


def test_multivalued_relation_resolvent():
    # A = {0} x K: R(lam) = 0 for every lam != 0... in fact for every lam
    rel = LinearRelation.from_pairs(np.zeros((1, 1)), np.eye(1))
    sample = resolvent(rel, 3.0)
    assert abs(sample.matrix[0, 0]) < 1e-14


def test_resolvent_of_the_zero_dimensional_relation_is_empty():
    rel = LinearRelation.from_operator(np.zeros((0, 0)))
    sample = resolvent(rel, 1.0)
    assert sample.matrix.shape == (0, 0)
    assert sample.residual == 0.0
    points = resolvent_points(rel, [1.0, 2.0 + 1.0j],
                              lambda block: zip(block.matrices, block.residuals))
    assert [(refusal, matrix.shape, residual) for _, refusal, (matrix, residual)
            in points] == [(None, (0, 0), 0.0)] * 2
    with pytest.raises(InvalidInput):  # many points go through resolvent_points
        resolvent(rel, np.array([1.0, 2.0 + 1.0j]))


def test_resolvent_identity(m_dissipative_battery):
    for rel in m_dissipative_battery[:12]:
        s1 = resolvent(rel, 0.5)
        s2 = resolvent(rel, 2.0)
        assert resolvent_identity_residual(s1, s2) < 1e-10


def test_derivative_surrogate(m_dissipative_battery):
    # central difference of lam -> R(lam) against -R(lam)^2
    h = 1e-4
    for rel in m_dissipative_battery[:10]:
        up = resolvent(rel, 1.0 + h).matrix
        dn = resolvent(rel, 1.0 - h).matrix
        grad = (up - dn) / (2 * h)
        target = -(resolvent(rel, 1.0).matrix @ resolvent(rel, 1.0).matrix)
        assert np.linalg.norm(grad - target, 2) < 1e-6


def test_neumann_extension_agrees_with_direct(m_dissipative_battery):
    for rel in m_dissipative_battery[:10]:
        base = resolvent(rel, 2.0)
        ext = neumann_extend(base, 2.5)
        direct = resolvent(rel, 2.5).matrix
        assert np.max(np.abs(ext - direct)) < 1e-9


def test_neumann_refuses_a_series_500_terms_cannot_sum():
    # ||R(0)|| = 1 and q = 0.995: after 500 terms the tail bound is still
    # 0.995**501 / 0.005 = 16.2; summing them anyway returned a matrix 16.2
    # from R(-0.995) in 2-norm (whose norm is 200) and raised nothing
    rel = LinearRelation.from_operator(np.diag([-1.0, -2.0]))
    base = resolvent(rel, 0.0)
    with pytest.raises(DivergentSeries, match="500 terms"):
        neumann_extend(base, -0.995)
    # q = 0.9 needs 349 terms for a tail bound below 1e-15
    ext = neumann_extend(base, -0.9)
    assert np.linalg.norm(ext - resolvent(rel, -0.9).matrix, 2) <= 1e-12


def test_neumann_divergence_guard():
    rel = LinearRelation.from_operator(np.array([[-1.0]]))
    base = resolvent(rel, 1.0)  # R = 1/2, radius of convergence 2
    with pytest.raises(DivergentSeries):
        neumann_extend(base, 4.0)


def test_relation_resolvent_round_trip(m_dissipative_battery):
    for rel in m_dissipative_battery:
        q = resolvent(rel, 1.0).matrix
        back = relation_from_resolvent(1.0, q)
        assert gap_relations(back, rel) < 1e-11


def test_residual_scales_with_graph_noise(rng):
    # backward-stability smoke test: the resolvent computed from an
    # eta-perturbed graph sits within O(eta) of the clean graph
    m = random_matrix(rng, 4, 4)
    base = LinearRelation.from_operator(m)
    u, v = base.blocks()
    noise = rng.standard_normal(u.shape), rng.standard_normal(v.shape)
    lam, eye = 9.0, np.eye(4)

    def clean_defect(eta):
        rel = LinearRelation.from_pairs(u + eta * noise[0], v + eta * noise[1])
        r = resolvent(rel, lam, accept_tol=1.0).matrix
        stacked = np.vstack([r, lam * r - eye])
        return max(base.graph.member_distance(stacked[:, j]) for j in range(4))

    lo, hi = clean_defect(1e-8), clean_defect(1e-6)
    ratio = hi / max(lo, 1e-300)
    assert 10 < ratio < 1000  # two decades of noise, roughly two of defect


def test_mul_from_resolvent():
    rel = LinearRelation.from_pairs(
        np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[-1.0, 0.0], [0.0, 1.0]]))
    sample = resolvent(rel, 1.0)
    mul = mul_from_resolvent(sample)
    assert mul.dim == 1
    assert mul.contains(np.array([0.0, 1.0]))


def test_pseudo_resolvent_reconstruction(m_dissipative_battery):
    for rel in m_dissipative_battery[:8]:
        table = [(lam, resolvent(rel, lam).matrix) for lam in (0.5, 1.0, 2.0)]
        back = relation_from_pseudo_resolvent(table)
        assert gap_relations(back, rel) < 1e-10


def test_pseudo_resolvent_rejects_corrupted_table(rng):
    rel = random_m_dissipative(rng, 3, dom_dim=2)
    table = [(lam, resolvent(rel, lam).matrix) for lam in (0.5, 1.0, 2.0)]
    bad = [(lam, q + (0.05 if k == 1 else 0.0) * np.eye(3))
           for k, (lam, q) in enumerate(table)]
    with pytest.raises((NotAPseudoResolvent, InconsistentTable)):
        relation_from_pseudo_resolvent(bad)


def test_scan_classifies_spectrum_and_rows():
    rel = LinearRelation.from_operator(np.diag([-1.0, -3.0]))
    rows = resolvent_set_scan(rel, [-3.0, -2.0, 0.0])
    assert [r.in_set for r in rows] == [False, True, True]
    assert np.isnan(rows[0].norm)
    assert abs(rows[1].norm - 1.0) < 1e-12  # ||R(-2)|| = 1/dist = 1
    assert rows[2].residual < 1e-10


def test_in_resolvent_set_wrapper():
    rel = LinearRelation.from_operator(np.array([[0.0]]))
    assert in_resolvent_set(rel, 1.0)
    assert not in_resolvent_set(rel, 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("call, bad", [
    (lambda rel: resolvent(rel, np.nan), "nan"),
    (lambda rel: resolvent(rel, np.inf), "inf"),
    (lambda rel: resolvent(rel, complex(np.nan, 1.0)), "(nan+1j)"),
    (lambda rel: in_resolvent_set(rel, np.nan), "nan"),
    (lambda rel: resolvent_set_scan(rel, [0.5, np.nan, np.inf]), "nan"),
    (lambda rel: resolvent_points(rel, [2.0, 1.0 - 1j, complex(1.0, -np.inf)],
                                  lambda b: b.residuals), "(1-infj)"),
])
def test_non_finite_shifts_are_refused_before_lapack(field, call, bad, capfd):
    # a NaN or infinite shift made LAPACK's gelsd fail ("SVD did not
    # converge") and print a parameter error to stderr; in a stacked call it
    # would also fail every other point of its block
    rel = random_m_dissipative(np.random.default_rng(3), 4, field, dom_dim=2)
    with pytest.raises(InvalidInput, match=re.escape(f"lambda={bad} is not finite")):
        call(rel)
    assert capfd.readouterr().err == ""
