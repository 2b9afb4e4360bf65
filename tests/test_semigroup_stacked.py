"""Stacked semigroup evaluations against the per-time scalar calls."""

import math

import numpy as np
import pytest
import scipy.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relsemi.sampling import random_m_dissipative
from relsemi.semigroup import (
    _grid_primitives,
    _phis,
    certified_sector_angle,
    decompose,
    functional_equation_residual,
    holomorphic_at,
    integrated_at,
    laplace_residual,
    mild_solution,
    semigroup_at,
)
from relsemi.spectral import resolvent

REL_TOL = 1e-13


def _close(stack, singles):
    scale = max(1.0, float(np.max(np.abs(singles), initial=0.0)))
    return float(np.max(np.abs(stack - singles), initial=0.0)) <= REL_TOL * scale


def _data(d, field, kind, seed):
    rng = np.random.default_rng(seed)
    partial = int(rng.integers(1, d)) if d > 1 else None  # d = 1 has no partial domain
    dom = {"zero": 0, "partial": partial, "full": d}[kind]
    return decompose(random_m_dissipative(rng, d, field, dom_dim=dom)), rng


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["zero", "partial", "full"])
@given(d=st.integers(2, 6), seed=st.integers(0, 10_000),
       count=st.integers(65, 73))
@settings(max_examples=6, deadline=None)
def test_stacked_calls_match_scalar_calls(field, kind, d, seed, count):
    sd, rng = _data(d, field, kind, seed)
    assert (kind == "zero") == (sd.domain_dim == 0)
    assert (kind == "full") == (sd.domain_dim == d)
    ts = np.concatenate([[0.0], rng.uniform(0.0, 3.0, count - 1)])
    for fn in (semigroup_at, integrated_at):
        stack = fn(sd, ts)
        assert stack.shape == (count, d, d)
        assert _close(stack, np.array([fn(sd, float(t)) for t in ts]))
    alpha = certified_sector_angle(sd)
    angles = rng.uniform(-0.9 * alpha, 0.9 * alpha, count - 1)
    zs = np.concatenate([[0.0], rng.uniform(0.01, 3.0, count - 1) * np.exp(1j * angles)])
    stack = holomorphic_at(sd, zs)
    assert stack.shape == (count, d, d)
    assert _close(stack, np.array([holomorphic_at(sd, complex(z)) for z in zs]))


def _blocked_phi1(z):
    """``phi1`` as the top-right block of ``expm([[Z, I], [0, 0]])``."""
    n = z.shape[-1]
    if n == 0:
        return z.copy()
    aug = np.zeros(z.shape[:-2] + (2 * n, 2 * n), dtype=np.result_type(z.dtype, float))
    aug[..., :n, :n] = z
    aug[..., :n, n:] = np.eye(n)
    return spla.expm(aug)[..., :n, n:]


def _scaled(z, m1):
    """``z M1`` with every product real times complex, whatever the stack."""
    return z.real * m1 + z.imag * (1j * m1) if np.iscomplexobj(z) else z * m1


def _blocked_evaluate(sd, zs, integrated=False):
    """``T(z)`` or ``S(z)`` in stacked ``expm`` calls of at most 64 matrices."""
    out = []
    for start in range(0, zs.size, 64):
        z = zs[start:start + 64, None, None]
        m = _scaled(z, sd.generator_matrix)
        core = z * _blocked_phi1(m) if integrated else spla.expm(m)
        out.append(sd.domain_basis @ core @ sd.domain_basis.conj().T)
    return np.concatenate(out)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["zero", "partial", "full"])
@given(d=st.integers(2, 6), seed=st.integers(0, 10_000), count=st.integers(1, 140))
@settings(max_examples=8, deadline=None)
def test_evaluations_are_bit_identical_to_blocked_calls(field, kind, d, seed, count):
    sd, rng = _data(d, field, kind, seed)
    ts = np.concatenate([[0.0], rng.uniform(0.0, 5.0, count - 1)])
    assert np.array_equal(semigroup_at(sd, ts), _blocked_evaluate(sd, ts))
    assert np.array_equal(integrated_at(sd, ts), _blocked_evaluate(sd, ts, True))
    assert np.array_equal(integrated_at(sd, ts[-1]), _blocked_evaluate(sd, ts[-1:], True)[0])
    alpha = certified_sector_angle(sd)
    zs = rng.uniform(0.01, 3.0, count) * np.exp(1j * rng.uniform(-0.9, 0.9, count) * alpha)
    assert np.array_equal(holomorphic_at(sd, zs), _blocked_evaluate(sd, zs))


def test_stacked_points_equal_their_single_point_calls():
    # a complex relation with a one-dimensional domain: z·M1 over a 1×1 M1
    # ran as one 1-D complex multiply, whose vector body and scalar tail
    # rounded differently, so rows of the stack depended on their position
    sd, rng = _data(2, "complex", "partial", 1)
    assert sd.domain_dim == 1
    alpha = certified_sector_angle(sd)
    zs = rng.uniform(0.01, 3.0, 129) * np.exp(1j * rng.uniform(-0.9, 0.9, 129) * alpha)
    stack = holomorphic_at(sd, zs)
    for k in range(zs.size):
        assert np.array_equal(stack[k], holomorphic_at(sd, zs[k:k + 1])[0])


def _taylor_phi2(z, terms=12):
    """``sum_k Z^k / (k + 2)!`` for one matrix ``z``."""
    acc, power = np.zeros_like(z), np.eye(z.shape[0], dtype=z.dtype)
    for k in range(terms):
        acc = acc + power / math.factorial(k + 2)
        power = power @ z
    return acc


@given(n=st.integers(1, 6), seed=st.integers(0, 10_000),
       norm=st.floats(1e-12, 1e-3), field=st.sampled_from(["real", "complex"]))
@settings(max_examples=40, deadline=None)
def test_phi2_block_matches_the_taylor_series(n, seed, norm, field):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n))
    if field == "complex":
        z = z + 1j * rng.standard_normal((n, n))
    z *= norm / np.linalg.norm(z, 2)
    expz, p1, p2 = _phis(z, 2)
    ulps = 8 * np.finfo(float).eps  # a few roundings of entries of size <= 1
    assert np.max(np.abs(p2 - _taylor_phi2(z))) <= ulps
    assert np.max(np.abs(p1 - (np.eye(n) + z @ _taylor_phi2(z)))) <= ulps
    assert np.max(np.abs(expz - spla.expm(z))) <= ulps


def test_phi2_of_zero_is_half_the_identity():
    for dtype in (float, complex):
        expz, p1, p2 = _phis(np.zeros((2, 3, 3), dtype=dtype), 2)
        assert np.array_equal(expz, np.broadcast_to(np.eye(3), (2, 3, 3)))
        assert np.array_equal(p1, expz)
        assert np.array_equal(p2, expz / 2)


def test_scalar_time_gives_one_matrix():
    sd, _ = _data(3, "real", "partial", 1)
    assert semigroup_at(sd, 0.5).shape == (3, 3)
    assert integrated_at(sd, np.float64(0.5)).shape == (3, 3)
    assert holomorphic_at(sd, 0.5 + 0.1j).shape == (3, 3)
    assert semigroup_at(sd, [0.5]).shape == (1, 3, 3)
    assert math.isclose(float(np.abs(semigroup_at(sd, [0.0])[0] - sd.projector).max()),
                        0.0, abs_tol=1e-15)


# -- closed forms against the per-node loops they replaced --------------------


def panel_rule(a, b, nodes_per_unit):
    """Composite Gauss rule on equal panels of length at most 1 that split [a, b].

    Returns ``(t, w)`` with ``sum(w * f(t)) ~ integral_a^b f``; an empty
    interval has no nodes.
    """
    npanels = max(1, math.ceil(b - a - 1e-12)) if b > a else 0
    edges = np.linspace(a, b, npanels + 1)
    x, w = np.polynomial.legendre.leggauss(nodes_per_unit)
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def _loop_laplace_difference(sd, lam, transform, horizon):
    ts, ws = panel_rule(0.0, horizon, 64)
    fn = semigroup_at if transform == "semigroup" else integrated_at
    acc = np.zeros(sd.projector.shape, dtype=complex)
    for t, w in zip(ts, ws):
        acc += w * np.exp(-lam * t) * fn(sd, float(t))
    if transform == "integrated":
        acc *= lam
    return float(np.linalg.norm(acc - resolvent(sd.relation, lam).matrix, 2))


def _node_sums(sd, a, b, lams, fn):
    """``sum_k w_k e^{-lam t_k} F(t_k)`` for each ``lam``, one value per node."""
    ts, ws = panel_rule(a, b, 64)
    sums = [np.zeros(sd.projector.shape, dtype=complex) for _ in lams]
    for t, w, value in zip(ts, ws, fn(sd, ts) if ts.size else ()):
        for acc, lam in zip(sums, lams):
            acc += w * np.exp(-lam * t) * value
    return sums


def _loop_mild(sd, x, ts, nodes_per_unit=16):
    states, pairs = [], []
    running, prev = np.zeros(x.size, dtype=x.dtype), 0.0
    for t in ts:
        for q, w in zip(*panel_rule(prev, t, nodes_per_unit)):
            running = running + w * (integrated_at(sd, float(q)) @ x)
        prev = t
        states.append(integrated_at(sd, float(t)) @ x)
        pairs.append(np.concatenate([running, states[-1] - t * x]))
    residuals = [sd.relation.graph.member_distance(p) for p in pairs]
    defect = max((np.linalg.norm(states[i] - states[j]) - abs(ts[i] - ts[j]) * np.linalg.norm(x)
                  for i in range(len(ts)) for j in range(i + 1, len(ts))), default=0.0)
    return np.array(states), np.array(residuals), max(defect, 0.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["zero", "partial", "full"])
@given(d=st.integers(2, 5), seed=st.integers(0, 10_000),
       steps=st.lists(st.floats(0.05, 2.5), min_size=1, max_size=6))
@settings(max_examples=6, deadline=None)
def test_mild_solution_matches_the_node_loop(field, kind, d, seed, steps):
    sd, rng = _data(d, field, kind, seed)
    x = rng.standard_normal(d)
    if field == "complex":
        x = x + 1j * rng.standard_normal(d)
    ts = np.concatenate([[0.0], np.cumsum(steps)])  # steps over 1 take several panels
    sol = mild_solution(sd, x, ts)
    states, residuals, defect = _loop_mild(sd, x, ts)
    assert _close(sol.states, states)
    assert abs(sol.lipschitz_defect - defect) <= REL_TOL * max(1.0, np.abs(states).max())
    assert np.max(sol.membership_residuals) <= max(1e-12, np.max(residuals))


def _grid(kind, count, step, rng):
    """An increasing grid from ``t = 0`` with about ``count`` times."""
    if kind == "arange":
        return np.arange(0.0, count * step - 1e-12, step)
    if kind == "linspace":
        return np.linspace(0.0, count * step, count)
    return np.unique(np.concatenate([[0.0], rng.uniform(0.0, count * step, count - 1)]))


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["arange", "linspace", "random"])
@given(d=st.integers(1, 16), seed=st.integers(0, 10_000), count=st.integers(1, 120),
       step=st.floats(0.002, 0.1))
@settings(max_examples=6, deadline=None)
def test_propagated_primitives_match_the_per_time_exponentials(field, kind, d, seed,
                                                               count, step):
    sd, rng = _data(d, field, "full", seed)
    ts = _grid(kind, count, step, rng)
    s_t, v_t, matrices = _grid_primitives(sd.generator_matrix, ts)
    assert matrices == np.count_nonzero(np.unique(np.diff(ts, prepend=0.0)))
    z = ts[:, None, None]
    _, p1, p2 = _phis(z * sd.generator_matrix, 2)  # one direct expm per time
    for got, want in ((s_t, z * p1), (v_t, z * z * p2)):
        scale = max(1.0, float(np.max(np.abs(want))))
        assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mild_membership_keeps_its_digits_as_the_grid_is_refined(field):
    rng = np.random.default_rng(11)
    sd = decompose(random_m_dissipative(rng, 8, field, dom_dim=5))
    x = rng.standard_normal(8)
    for spacing, count in ((0.1, 31), (0.03, 101), (0.01, 301), (0.003, 1001)):
        ts = np.arange(0.0, 3.0 + 1e-12, spacing)  # the benchmark's mild grid, refined
        assert ts.size == count
        sol = mild_solution(sd, x, ts)
        assert np.max(sol.membership_residuals) <= 1e-12, spacing
        assert sol.lipschitz_defect <= 1e-12, spacing


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("seed", [3, 4])
def test_quadratures_match_the_node_loops(field, seed):
    sd, rng = _data(4, field, "partial", seed)
    for transform in ("semigroup", "integrated"):
        for lam in (1.0, 0.7 + 0.4j):
            # 512 nodes: eight panels of one template
            got = laplace_residual(sd, lam, horizon=8.0, transform=transform).difference
            assert abs(got - _loop_laplace_difference(sd, lam, transform, 8.0)) <= 1e-13
    x = rng.standard_normal(4)
    ts = np.linspace(0.0, 3.0, 13)
    sol = mild_solution(sd, x, ts)
    states, residuals, defect = _loop_mild(sd, x, ts)
    assert _close(sol.states, states)
    assert np.max(np.abs(sol.membership_residuals - residuals)) <= 1e-13
    assert abs(sol.lipschitz_defect - defect) <= 1e-13


@pytest.mark.parametrize("field,kind", [("real", "partial"), ("complex", "full"),
                                        ("complex", "zero")])
def test_template_panel_sums_match_the_node_sums(field, kind):
    sd, _ = _data(4, field, kind, 5)
    _assert_laplace_matches_the_node_sums(sd, (1.0, 0.7 + 0.4j), (1.0, 2.0, 40.0))
    _assert_functional_equation_matches_the_node_sums(sd, 0.3, 1.0)


def _assert_laplace_matches_the_node_sums(sd, lams, horizons):
    """Both transforms' differences against the node sums on 64-node panels."""
    for transform, fn in (("semigroup", semigroup_at), ("integrated", integrated_at)):
        for horizon in horizons:
            for lam, ref in zip(lams, _node_sums(sd, 0.0, horizon, lams, fn)):
                quad = lam * ref if transform == "integrated" else ref
                want = np.linalg.norm(quad - resolvent(sd.relation, lam).matrix, 2)
                got = laplace_residual(sd, lam, horizon, transform).difference
                assert abs(got - want) <= 1e-13


def _assert_functional_equation_matches_the_node_sums(sd, t, s):
    """Both residuals against their windows ``[t, t+s] - [0, s]`` and
    ``[s, t+s] - [0, t]`` summed node by node."""
    windows = [(t, t + s), (0.0, s), (s, t + s), (0.0, t)]
    refs = [_node_sums(sd, a, b, (0.0,), integrated_at)[0] for a, b in windows]
    left, right = integrated_at(sd, np.array([t, s]))
    chk = functional_equation_residual(sd, t, s)
    assert abs(chk.residual - np.linalg.norm(left @ right - refs[0] + refs[1], 2)) <= 1e-13
    assert abs(chk.residual_swapped
               - np.linalg.norm(right @ left - refs[2] + refs[3], 2)) <= 1e-13


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", ["zero", "partial", "full"])
@given(d=st.integers(1, 6), seed=st.integers(0, 10_000),
       t=st.floats(0.0, 2.5), s=st.floats(0.0, 2.5))
@settings(max_examples=8, deadline=None)
def test_closed_forms_match_the_node_loops(field, kind, d, seed, t, s):
    assume(kind != "partial" or d > 1)
    sd, _ = _data(d, field, kind, seed)
    _assert_laplace_matches_the_node_sums(sd, (1.0, 0.7 + 0.4j, 3.0), (1.0, 2.0, 8.0))
    _assert_functional_equation_matches_the_node_sums(sd, t, s)
