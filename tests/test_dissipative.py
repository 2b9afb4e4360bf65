import math

import numpy as np
import pytest

from relsemi.dissipative import (
    DissipativityCertificate,
    dissipativity_l2,
    dissipativity_sampled,
    is_m_dissipative,
    lumer_phillips_invert,
    maximal_dissipative_extension,
)
from relsemi.errors import NotDissipative, NotSurjective
from relsemi.relation import LinearRelation, gap_relations
from relsemi.sampling import (
    random_dissipative_nonmaximal,
    random_dissipative_surjective,
    random_m_dissipative,
    random_relation,
)
from relsemi.spectral import in_resolvent_set, resolvent
from relsemi.subspace import Subspace, intersect


def graph_of(mat):
    return LinearRelation.from_operator(np.asarray(mat))


def test_l2_certificate_on_skew_matrix():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    cert = dissipativity_l2(graph_of(skew))
    assert cert.dissipative
    assert abs(cert.witness) < 1e-14  # numerical abscissa sits at 0


def test_l2_certificate_refutes_expanding_matrix():
    cert = dissipativity_l2(graph_of(np.eye(2)))
    assert not cert.dissipative
    assert cert.witness > 0.4  # Re<x, x>/||(x,x)||^2 = 1/2 on the graph basis


def test_pure_multivalued_is_dissipative():
    rel = LinearRelation.from_pairs(np.zeros((2, 1)), np.eye(2)[:, :1])
    assert dissipativity_l2(rel).dissipative


def test_sampled_sup_norm_agrees_on_easy_cases(rng):
    good = dissipativity_sampled(graph_of(-np.eye(3)), seed=3)
    assert good.dissipative
    bad = dissipativity_sampled(graph_of(np.eye(3)), seed=3)
    assert not bad.dissipative
    assert bad.witness > 0.9  # worst violation ||lam x - x|| - ||lam x|| -> -1
    assert "attaining_index" in bad.detail


def _loop_sampled(rel, seed):
    """The sup-norm sampled check one pair and one λ at a time (reference)."""
    xs, ys = rel.sample_pairs(np.random.default_rng(seed), 200)
    sup = lambda v: float(np.max(np.abs(v))) if v.size else 0.0
    worst, detail = math.inf, None
    for k in range(xs.shape[1]):
        x, y = xs[:, k], ys[:, k]
        sx = sup(x)
        if sx == 0.0:
            continue
        x, y = x / sx, y / sx
        for lam in np.logspace(-3, 3, 13):
            margin = sup(lam * x - y) - sup(lam * x)
            if margin < worst:
                worst = margin
                att = int(np.argmax(np.abs(lam * x - y)))
                detail = {"sample": k, "lam": float(lam), "attaining_index": att}
    return DissipativityCertificate(worst >= -1e-12, "sampled", "sup",
                                    -worst if math.isfinite(worst) else -math.inf,
                                    1e-12, detail)


def test_sampled_check_matches_the_pairwise_loop():
    rels = [graph_of(-np.eye(3)), graph_of(np.eye(3)),
            LinearRelation.from_pairs(np.zeros((3, 2)), np.eye(3)[:, :2])]
    rels += [random_relation(np.random.default_rng([5, d, c]), d, field)
             for d in range(1, 9) for c, field in enumerate(("real", "complex"))]
    for k, rel in enumerate(rels):
        seed = k % 4
        assert dissipativity_sampled(rel, seed=seed) == _loop_sampled(rel, seed)
    multivalued = dissipativity_sampled(rels[2])
    assert multivalued.witness == -math.inf and multivalued.detail is None


def test_m_dissipative_evidence(m_dissipative_battery):
    for rel in m_dissipative_battery:
        ev = is_m_dissipative(rel)
        assert ev.ok, ev.failure


def test_lambda_resolvent_bound_decades(m_dissipative_battery):
    # contraction bound across nine decades, and the converse refutation
    for rel in m_dissipative_battery[:15]:
        for k in range(-3, 7):
            lam = 10.0 ** k
            nrm = lam * np.linalg.norm(resolvent(rel, lam).matrix, 2)
            assert nrm <= 1 + 1e-9


def test_non_dissipative_relation_fails_some_lambda():
    rel = graph_of(np.array([[2.0]]))  # expanding: ||lam R|| > 1 for lam > 2
    assert not dissipativity_l2(rel).dissipative
    norms = [lam * abs(resolvent(rel, lam).matrix[0, 0])
             for lam in (4.0, 8.0, 100.0)]
    assert max(norms) > 1.0


def test_lumer_phillips_inverts_battery(rng):
    for k in range(40):
        d = 1 + k % 6
        rel = random_dissipative_surjective(rng, d,
                                            "complex" if k % 2 else "real")
        ev = lumer_phillips_invert(rel)
        # Q is the bounded inverse: Q = -R(0, A), bounded by 1/margin
        r0 = resolvent(rel, 0.0).matrix
        assert np.max(np.abs(ev.matrix + r0)) < 1e-9
        assert ev.norm <= 1.0 / ev.margin + 1e-9
        assert in_resolvent_set(rel, 0.0)


def test_lumer_phillips_rejects_non_surjective(rng):
    rel = random_dissipative_nonmaximal(rng, 3)
    with pytest.raises((NotSurjective, NotDissipative)):
        lumer_phillips_invert(rel)


def test_extension_of_trivial_relation_is_minus_identity():
    trivial = LinearRelation(1, Subspace.zero(2))
    ext = maximal_dissipative_extension(trivial)
    assert gap_relations(ext, graph_of(np.array([[-1.0]]))) <= 1e-12


def test_extension_is_m_dissipative_and_idempotent(rng):
    for k in range(25):
        rel = random_dissipative_nonmaximal(rng, 2 + k % 4)
        ext = maximal_dissipative_extension(rel)
        assert is_m_dissipative(ext).ok
        again = maximal_dissipative_extension(ext)
        assert gap_relations(again, ext) <= 1e-12


def test_extension_contains_original(rng):
    for _ in range(10):
        rel = random_dissipative_nonmaximal(rng, 4)
        ext = maximal_dissipative_extension(rel)
        common = intersect(rel.graph, ext.graph)
        assert common.dim == rel.dim  # A is a sub-relation of its extension


def test_extension_rejects_non_dissipative():
    with pytest.raises(NotDissipative):
        maximal_dissipative_extension(graph_of(np.eye(2)))


def test_closedness_is_automatic(m_dissipative_battery):
    # graphs here are finite-dimensional subspaces, closed by construction;
    # recorded as an explicit no-op so the obligation stays visible
    rel = m_dissipative_battery[0]
    assert rel.graph.dim == rel.dim


def test_shift_range_dimension_for_dissipative(rng):
    # (x, y) -> x - y is injective on a dissipative graph
    for k in range(20):
        rel = random_m_dissipative(rng, 1 + k % 5)
        shifted = rel.shift(1.0)
        assert shifted.parts.range.dim == rel.dim


def test_certificate_shape_for_reports():
    cert = dissipativity_l2(graph_of(-np.eye(2)))
    assert cert.kind == "l2-exact"
    assert cert.norm == "l2"
    assert isinstance(cert.tol, float)
