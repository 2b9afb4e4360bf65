import math

import numpy as np
import pytest
import scipy.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi.errors import InvalidInput, NotSurjective
from relsemi.relation import LinearRelation, gap_relations
from relsemi.sampling import random_m_dissipative, random_matrix, random_relation
from relsemi.subspace import complement, gap, intersect, numerical_rank


def graph_of(mat):
    return LinearRelation.from_operator(np.asarray(mat))


def test_parts_of_matrix_graph():
    rel = graph_of(np.diag([2.0, 5.0]))
    p = rel.parts
    assert (p.domain.dim, p.range.dim, p.kernel.dim, p.multivalued.dim) == (2, 2, 0, 0)


def test_parts_of_singular_matrix():
    rel = graph_of(np.diag([1.0, 0.0]))
    p = rel.parts
    assert p.kernel.dim == 1
    assert p.kernel.contains(np.array([0.0, 1.0]))
    assert p.range.dim == 1


def test_purely_multivalued():
    # {0} x K^2: domain trivial, everything is a value of 0
    rel = LinearRelation.from_pairs(np.zeros((2, 2)), np.eye(2))
    p = rel.parts
    assert p.domain.dim == 0
    assert p.multivalued.dim == 2
    assert p.range.dim == 2


@given(seed=st.integers(0, 10_000), d=st.integers(1, 8), cplx=st.booleans())
@settings(max_examples=60, deadline=None)
def test_rank_nullity_both_ways(seed, d, cplx):
    rng = np.random.default_rng(seed)
    rel = random_relation(rng, d, "complex" if cplx else "real")
    p = rel.parts
    assert p.domain.dim + p.multivalued.dim == rel.dim
    assert p.range.dim + p.kernel.dim == rel.dim


def test_adjoint_of_matrix_graph(rng):
    m = random_matrix(rng, 3, 3, "complex")
    adj = graph_of(m).adjoint()
    assert gap_relations(adj, graph_of(m.conj().T)) < 1e-12


def test_adjoint_involution(rng):
    rel = random_relation(rng, 4, "complex")
    assert gap_relations(rel.adjoint().adjoint(), rel) < 1e-11


def test_adjoint_swaps_kernel_and_range(relation_battery):
    worst = 0.0
    for rel in relation_battery:
        adj = rel.adjoint()
        worst = max(worst,
                    gap(adj.parts.kernel, complement(rel.parts.range)),
                    gap(rel.parts.kernel, complement(adj.parts.range)))
    assert worst <= 1e-11


def test_adjoint_commutes_with_inverse(relation_battery):
    for rel in relation_battery[:40]:
        lhs = rel.inverse().adjoint()
        rhs = rel.adjoint().inverse()
        assert gap_relations(lhs, rhs) <= 1e-11


def test_adjoint_of_bounded_perturbation(rng):
    # (A + B)' = A' + B^H for matrices B
    for _ in range(20):
        rel = random_relation(rng, 4, "complex")
        b = random_matrix(rng, 4, 4, "complex")
        lhs = rel.add_operator(b).adjoint()
        rhs = rel.adjoint().add_operator(b.conj().T)
        assert gap_relations(lhs, rhs) <= 1e-11


def test_inverse_swaps_parts(rng):
    rel = random_relation(rng, 5)
    inv = rel.inverse()
    assert inv.parts.domain.dim == rel.parts.range.dim
    assert inv.parts.kernel.dim == rel.parts.multivalued.dim


def test_shift_matches_matrix_arithmetic(rng):
    m = random_matrix(rng, 3, 3)
    shifted = graph_of(m).shift(2.5)
    assert gap_relations(shifted, graph_of(2.5 * np.eye(3) - m)) < 1e-12


def test_scale_output_scalar_and_singular():
    assert gap_relations(graph_of(np.diag([1.0, 3.0])).scale_output(2.0),
                         graph_of(np.diag([2.0, 6.0]))) < 1e-12
    # singular multiplier shrinks the multivalued part of {0} x K^2
    rel = LinearRelation.from_pairs(np.zeros((2, 2)), np.eye(2))
    squashed = rel.scale_output(np.diag([1.0, 0.0]))
    assert squashed.parts.multivalued.dim == 1
    assert squashed.parts.multivalued.contains(np.array([1.0, 0.0]))


def test_injectivity_modulus_diagonal():
    assert abs(graph_of(np.diag([2.0, 5.0])).injectivity_modulus() - 2.0) < 1e-12


def test_injectivity_modulus_zero_iff_kernel():
    assert graph_of(np.diag([1.0, 0.0])).injectivity_modulus() < 1e-12
    rel = LinearRelation.from_pairs(np.zeros((2, 1)), np.eye(2)[:, :1])
    assert rel.injectivity_modulus() == math.inf  # dom = {0}


def test_injectivity_modulus_ignores_multivalued_directions():
    # pairs (e1, 2 e1) plus (0, e2): modulus must still be 2
    xs = np.array([[1.0, 0.0], [0.0, 0.0]])
    ys = np.array([[2.0, 0.0], [0.0, 1.0]])
    rel = LinearRelation.from_pairs(xs, ys)
    assert abs(rel.injectivity_modulus() - 2.0) < 1e-12


def _qr_injectivity_modulus(rel):
    """The injectivity modulus by its own SVD of ``U``, the multivalued
    projection, a QR of ``U W``, a triangular solve and a last SVD (the
    pipeline that :attr:`LinearRelation.parts` replaced), as the oracle."""
    u, v = rel.blocks()
    if rel.dim == 0:
        return math.inf
    _, us, uvh = np.linalg.svd(u, full_matrices=True)
    ru = numerical_rank(us, 1.0)
    if ru == 0:
        return math.inf
    w, n = uvh[:ru].conj().T, uvh[ru:].conj().T
    vw = v @ w
    if n.shape[1]:
        wm, sm, _ = np.linalg.svd(v @ n, full_matrices=False)
        qm = wm[:, :numerical_rank(sm, 1.0)]
        vw = vw - qm @ (qm.conj().T @ vw)
    _, rmat = spla.qr(u @ w, mode="economic")
    xt = spla.solve_triangular(rmat.T, vw.T, lower=True)  # vw @ inv(rmat)
    return float(np.linalg.svd(xt.T, compute_uv=False)[-1])


EPS = np.finfo(float).eps
#: round-off of the operator part, in units of d eps ||C||_2: ||U C - B1||_2,
#: the graph distance of (B1, V C) and the moduli's difference measured at
#: most 14.5, 7.9 and 2.1 over 120,000 relations, d = 0..8
PARTS_SLACK = 32


@pytest.mark.parametrize("field", ["real", "complex"])
@given(d=st.integers(0, 8), graph=st.integers(0, 16), dissipative=st.booleans(),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_parts_carry_the_operator_part(field, d, graph, dissipative, seed):
    rng = np.random.default_rng(seed)
    rel = random_m_dissipative(rng, d, field) if dissipative else \
        random_relation(rng, d, field, graph_dim=min(graph, 2 * d))
    p = rel.parts
    assert p.domain.dim + p.multivalued.dim == rel.dim
    assert p.range.dim + p.kernel.dim == rel.dim
    c = p.domain_coefficients
    assert c.shape == (rel.dim, p.domain.dim)
    if not p.domain.dim:
        assert rel.injectivity_modulus() == _qr_injectivity_modulus(rel) == math.inf
        return
    slack = PARTS_SLACK * max(d, 1) * EPS * np.linalg.norm(c, 2)
    u, v = rel.blocks()
    b1 = p.domain.basis
    assert np.linalg.norm(u @ c - b1, 2) <= slack
    pairs = np.vstack([b1, v @ c])
    assert np.linalg.norm(pairs - rel.graph.project(pairs), 2) <= slack
    assert abs(rel.injectivity_modulus() - _qr_injectivity_modulus(rel)) <= slack


def test_surjectivity_modulus_matches_adjoint():
    rel = graph_of(np.diag([2.0, 5.0]))
    assert abs(rel.surjectivity_modulus() - 2.0) < 1e-12


def test_the_adjoint_is_built_once_and_shares_its_parts(rng, monkeypatch):
    rel = random_m_dissipative(rng, 6, "complex", dom_dim=4)
    assert rel.adjoint() is rel.adjoint()
    parts = rel.adjoint().parts
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(
        (a.shape, kwargs.get("compute_uv", True))) or svd(a, *args, **kwargs))
    modulus = rel.surjectivity_modulus()
    # only the modulus's own sigma_min; the adjoint's blocks are factored once
    assert calls == [((6, 4), False)]
    assert rel.adjoint().parts is parts
    assert modulus == rel.adjoint().injectivity_modulus()


def test_surjectivity_modulus_of_pure_multivalued():
    # {0} x K is onto with no constraint on the adjoint side
    rel = LinearRelation.from_pairs(np.zeros((1, 1)), np.eye(1))
    assert rel.surjectivity_modulus() == math.inf


def test_surjectivity_radius_contract(rng):
    rel = graph_of(np.eye(2))
    assert abs(rel.surjectivity_radius() - 1.0) < 1e-12
    pert = rel.add_operator(-0.99 * np.eye(2))
    assert pert.parts.range.dim == 2
    sharp = rel.add_operator(-np.eye(2))
    assert sharp.parts.range.dim == 0  # the radius is sharp


def test_surjectivity_radius_requires_full_range():
    with pytest.raises(NotSurjective):
        graph_of(np.diag([1.0, 0.0])).surjectivity_radius()


def test_moduli_cross_check_against_rank(relation_battery):
    for rel in relation_battery[:120]:
        surjective = rel.parts.range.dim == rel.state_dim
        injective = rel.parts.kernel.dim == 0
        assert (rel.surjectivity_modulus() > 1e-8) == surjective
        assert (rel.injectivity_modulus() > 1e-8) == injective


def test_state_dim_mismatch_rejected():
    from relsemi.subspace import Subspace
    with pytest.raises(InvalidInput):
        LinearRelation(3, Subspace.full(4))


def test_json_round_trip(rng):
    rel = random_relation(rng, 3, "complex")
    back = LinearRelation.from_json(rel.to_json())
    assert gap_relations(rel, back) < 1e-12
    assert back.field == "complex"


def test_gap_relations_requires_matching_state_dim():
    with pytest.raises(InvalidInput):
        gap_relations(graph_of(np.eye(2)), graph_of(np.eye(3)))
