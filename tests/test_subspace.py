import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relsemi.errors import InvalidInput
from relsemi.subspace import (
    RANK_TOL,
    Subspace,
    add,
    complement,
    gap,
    intersect,
    numerical_rank,
)


def test_from_spanning_drops_dependent_columns():
    a = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
    s = Subspace.from_spanning(a)
    assert s.dim == 1
    assert s.ambient_dim == 3


def test_basis_is_orthonormal(rng):
    s = Subspace.from_spanning(rng.standard_normal((7, 4)))
    g = s.basis.conj().T @ s.basis
    assert np.max(np.abs(g - np.eye(4))) < 1e-13


def test_rejects_non_orthonormal_basis():
    with pytest.raises(InvalidInput):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_rejects_nonfinite_spanning_set():
    with pytest.raises(InvalidInput):
        Subspace.from_spanning(np.array([[np.nan], [1.0]]))


def test_zero_and_full():
    assert Subspace.zero(5).dim == 0
    assert Subspace.full(5).dim == 5
    assert gap(Subspace.zero(5), Subspace.zero(5)) == 0.0


@given(seed=st.integers(0, 10_000), ambient=st.integers(1, 8),
       cplx=st.booleans())
@settings(max_examples=50, deadline=None)
def test_complement_dimension_formula(seed, ambient, cplx):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(0, ambient + 1))
    a = rng.standard_normal((ambient, dim))
    if cplx:
        a = a + 1j * rng.standard_normal((ambient, dim))
    s = Subspace.from_spanning(a, ambient)
    assert s.dim + complement(s).dim == ambient


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gap_metric_axioms(seed):
    # symmetry + triangle inequality on a random triple of equal dimension
    rng = np.random.default_rng(seed)
    ambient, dim = 6, 3
    s1, s2, s3 = (Subspace.from_spanning(rng.standard_normal((ambient, dim)))
                  for _ in range(3))
    assert abs(gap(s1, s2) - gap(s2, s1)) < 1e-12
    assert gap(s1, s3) <= gap(s1, s2) + gap(s2, s3) + 1e-12
    assert gap(s1, s1) < 1e-12


def test_respanning_is_idempotent(rng):
    s = Subspace.from_spanning(rng.standard_normal((9, 4)))
    mix = s.basis @ rng.standard_normal((4, 4))  # same span, new coordinates
    assert gap(s, Subspace.from_spanning(mix)) < 1e-12


def test_gap_of_different_dims_is_one():
    s1 = Subspace.from_spanning(np.eye(4)[:, :2])
    s2 = Subspace.from_spanning(np.eye(4)[:, :3])
    assert gap(s1, s2) == 1.0


def test_gap_known_angle():
    # plane rotated by theta against the x-axis line: gap = sin(theta)
    theta = 0.3
    line = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    rot = Subspace.from_spanning(np.array([[np.cos(theta)], [np.sin(theta)]]))
    assert abs(gap(line, rot) - np.sin(theta)) < 1e-14


def test_intersect_and_add(rng):
    xy = Subspace.from_spanning(np.eye(4)[:, :2])
    yz = Subspace.from_spanning(np.eye(4)[:, 1:3])
    assert intersect(xy, yz).dim == 1
    assert add(xy, yz).dim == 3
    assert intersect(xy, yz).contains(np.eye(4)[:, 1])


def test_member_distance():
    s = Subspace.from_spanning(np.eye(3)[:, :1])
    assert s.member_distance(np.array([2.0, 0.0, 0.0])) < 1e-15
    assert abs(s.member_distance(np.array([0.0, 3.0, 4.0])) - 5.0) < 1e-13


def test_mixed_field_promotion():
    r = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    c = Subspace.from_spanning(np.array([[0.0], [1.0 + 0j]]))
    assert add(r, c).dim == 2
    assert gap(r, c) == 1.0


def test_json_round_trip(rng):
    a = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    s = Subspace.from_spanning(a)
    back = Subspace.from_json(s.to_json())
    assert back.field == "complex"
    assert gap(s, back) < 1e-12


def test_json_real_has_zero_imag_block(rng):
    s = Subspace.from_spanning(rng.standard_normal((4, 2)))
    blob = s.to_json()
    assert all(v == 0.0 for col in blob["basis_imag"] for v in col)
    assert blob["field"] == "real"


def test_json_real_tag_refuses_imaginary_entries():
    blob = {"ambient_dim": 2, "field": "real",
            "basis_real": [[0.6, 0.0]], "basis_imag": [[0.0, 0.8]]}
    with pytest.raises(InvalidInput, match="nonzero imaginary"):
        Subspace.from_json(blob)
    blob["basis_imag"] = [[0.0, 0.0]]
    assert Subspace.from_json(blob).contains(np.array([1.0, 0.0]))


# the three spellings of the rank cutoff that numerical_rank replaced
def _basis_spelling(s, floor):  # orth_basis, null_basis (0) and parts (1)
    ref = max(float(s[0]) if s.size else 0.0, floor)
    return 0 if ref == 0.0 else int(np.sum(s > RANK_TOL * ref))


def _injectivity_spelling(us):  # injectivity_modulus's SVD of U, now parts'
    if us.size == 0 or us[0] <= RANK_TOL:
        return 0  # the early return: domain is {0}
    return int(np.sum(us > RANK_TOL * max(us[0], 1.0)))


def _certify_spelling(s):  # spectral._certify, one row per lam
    return np.sum(s > RANK_TOL * s[:, :1], axis=1)


NEAR = 1 + 1e-6


@st.composite
def singular_value_stacks(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    stack = np.zeros((rows, cols))
    for i in range(rows):
        top = draw(st.sampled_from([0.0, 1e-12, RANK_TOL, 0.3, 1.0, 7.0, 1e5]))
        rel_cut, abs_cut = RANK_TOL * top, RANK_TOL
        pool = st.sampled_from([0.0, rel_cut / NEAR, rel_cut, rel_cut * NEAR,
                                abs_cut / NEAR, abs_cut, abs_cut * NEAR])
        rest = draw(st.lists(pool | st.floats(0.0, 1.0).map(lambda x: x * top),
                             min_size=max(cols - 1, 0), max_size=max(cols - 1, 0)))
        if cols:
            stack[i] = sorted([top] + [min(v, top) for v in rest], reverse=True)
    return stack


@settings(max_examples=300, deadline=None)
@given(stack=singular_value_stacks())
def test_numerical_rank_matches_the_replaced_spellings(stack):
    assert np.array_equal(numerical_rank(stack), _certify_spelling(stack))
    for row, r0, r1 in zip(stack, numerical_rank(stack), numerical_rank(stack, 1.0)):
        assert numerical_rank(row) == r0 == _basis_spelling(row, 0.0)
        assert numerical_rank(row, 1.0) == r1 == _basis_spelling(row, 1.0)
        assert r1 == _injectivity_spelling(row)
