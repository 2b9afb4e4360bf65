"""Stacked resolvents against the per-point scalar certificate.

Solves, ranks and refusals match one ``lstsq`` per point bit for bit;
membership residuals (graph complement against projector) and 2-norms
(Gram eigenvalue against SVD) match their scalar oracles to the stated
round-off bounds."""

import importlib
import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import relsemi.dissipative as dissipative
import relsemi.spectral as spectral
from relsemi.dissipative import LAMBDA_DECADES, is_m_dissipative
from relsemi.errors import NotInResolventSet
from relsemi.heatlab import interval_relation
from relsemi.relation import LinearRelation, gap_relations
from relsemi.sampling import random_m_dissipative, random_relation, random_unitary
from relsemi.semigroup import SECTOR_SLACK, SectorSpec, sector_verify
from relsemi.spectral import (
    ACCEPT_TOL,
    BLOCK_ENTRIES,
    ScanRow,
    accepted,
    resolvent,
    resolvent_points,
    resolvent_set_scan,
)
from relsemi.subspace import RANK_TOL, Subspace, null_basis, numerical_rank

try:  # the module whose ``svd`` numpy.linalg.norm calls
    _linalg = importlib.import_module("numpy.linalg._linalg")
except ImportError:  # NumPy 1.x
    _linalg = importlib.import_module("numpy.linalg.linalg")


EPS = np.finfo(float).eps
#: |residual - oracle| <= RESIDUAL_SLACK * eps * (1 + the largest column norm
#: of the oracle's pairs (R e_i, lam R e_i - e_i)); measured at most 8.8 over
#: 45,000 points of random and m-dissipative relations, d = 1..32
RESIDUAL_SLACK = 16
#: |norm - oracle| <= NORM_SLACK * d * eps * oracle; measured at most 1.5
#: on the same points
NORM_SLACK = 8


# -- the per-point references ------------------------------------------------


def _reference(rel, lam, accept_tol=ACCEPT_TOL):
    """The scalar certificate, one ``lam`` at a time.

    One ``lstsq`` call gives the solve and the singular values that decide
    the rank and scale the backward error; the membership residual is the
    projector form ``||(I - P)(R e_i, lam R e_i - e_i)||``.
    """
    d = rel.state_dim
    u, v = rel.blocks()
    r = rel.dim
    if r != d:
        raise NotInResolventSet(
            lam, reason=f"graph dimension {r} differs from state dimension {d}",
            rank=None)
    m = lam * u - v
    eye = np.eye(d, dtype=m.dtype)
    coef, _, _, s = np.linalg.lstsq(m, eye, rcond=None)
    # relative to the largest singular value, floored at the graph blocks' scale 1
    rank = int(np.sum(s > RANK_TOL * max(s[0] if s.size else 0.0, 1.0)))
    if rank < d:
        raise NotInResolventSet(
            lam, reason=f"rank(lam*U - V) = {rank} < {d}", rank=rank)
    rmat = u @ coef
    scale = s[0] * np.linalg.norm(coef, axis=0) + 1.0
    solve_res = np.linalg.norm(m @ coef - eye, axis=0) / scale
    stacked = np.vstack([rmat, lam * rmat - eye])
    proj = rel.graph.basis @ (rel.graph.basis.conj().T @ stacked)
    member_res = np.linalg.norm(stacked - proj, axis=0)
    residual = float(np.max(member_res + solve_res))
    if residual > accept_tol:
        raise NotInResolventSet(
            lam, reason=f"residual {residual:.3e} exceeds {accept_tol:.1e}",
            residual=residual)
    return rmat, residual


def _residual_slack(lam, matrix):
    """Bound on ``|residual - oracle|`` at ``lam`` (see ``RESIDUAL_SLACK``)."""
    pairs = np.vstack([matrix, lam * matrix - np.eye(len(matrix))])
    return RESIDUAL_SLACK * EPS * (1.0 + np.max(np.linalg.norm(pairs, axis=0), initial=0.0))


def _norm_slack(rel, norm):
    """Bound on ``|norm - oracle|`` (see ``NORM_SLACK``)."""
    return NORM_SLACK * max(rel.state_dim, 1) * EPS * norm


def _oracle_slack(rel, lam):
    """The residual slack at ``lam``; 0 where the oracle refuses the rank."""
    try:
        return _residual_slack(lam, _reference(rel, lam, math.inf)[0])
    except NotInResolventSet:
        return 0.0


def _reference_sector(rel, spec, eps, radii, rays):
    """``sector_verify`` point by point, plus the norm at every accepted point."""
    theta_max = spec.alpha + math.pi / 2 - eps
    bound = spec.bound / math.sin(eps)
    worst_norm, worst_lam = -math.inf, complex("nan")
    failures, norms = [], {}
    for th in np.linspace(-theta_max, theta_max, rays):
        for r in np.logspace(-3, 6, radii):
            lam = r * complex(math.cos(th), math.sin(th))
            try:
                matrix, _ = _reference(rel, lam)
            except NotInResolventSet as exc:
                failures.append((lam, f"resolvent: {exc}"))
                continue
            norm = float(np.linalg.norm(lam * matrix, 2))
            norms[lam] = norm
            if norm > worst_norm:
                worst_norm, worst_lam = norm, lam
            if norm > bound + SECTOR_SLACK:
                failures.append((lam, f"norm {norm:.6g} > {bound:.6g}"))
    return not failures, bound, worst_norm, worst_lam, tuple(failures), norms


def _reference_scan(rel, grid, accept_tol=ACCEPT_TOL):
    rows = []
    for lam in grid:
        try:
            matrix, residual = _reference(rel, lam, accept_tol)
            rows.append(ScanRow(complex(lam), True, float(np.linalg.norm(matrix, 2)),
                                residual))
        except NotInResolventSet as exc:
            res = float(exc.residual) if exc.residual is not None else float("nan")
            rows.append(ScanRow(complex(lam), False, float("nan"), res))
    return rows


def _reference_checks(rel):
    """``is_m_dissipative``'s decade loop: ``(checks, defect, failure)``."""
    checks, defect = [], -math.inf
    for lam in LAMBDA_DECADES:
        try:
            matrix, _ = _reference(rel, lam, dissipative.EVIDENCE_ACCEPT_TOL)
        except NotInResolventSet as exc:
            return tuple(checks), math.nan, f"lam={lam:g}: {exc}"
        norm = float(np.linalg.norm(lam * matrix, 2))
        checks.append((lam, norm))
        defect = max(defect, norm - 1.0)
    return tuple(checks), defect, None


# -- comparisons with the references ------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?")


def _same_message(got, want, slack):
    """Equal text; the printed numbers agree to their printed digits or
    within ``slack`` (the residual slack of the message's point)."""
    assert _NUMBER.sub("#", got) == _NUMBER.sub("#", want)
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-3, abs_tol=slack), (got, want)


def _close(got, want, slack):
    """Within ``slack``; NaN matches NaN (a row with no number)."""
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= slack


def _same_refusal(got, want, slack=0.0):
    """Same class, caller's ``lam``, rank and message; a residual refusal's
    residual within ``slack`` of the oracle's."""
    assert type(got) is type(want)
    assert repr(got.lam) == repr(want.lam)
    assert got.rank == want.rank
    if want.residual is None:
        assert got.residual is None and str(got) == str(want)
    else:
        assert abs(got.residual - want.residual) <= slack
        assert str(got).replace(f"{got.residual:.3e}", f"{want.residual:.3e}") == str(want)


def _matches_reference(rel, lams, accept_tol=ACCEPT_TOL):
    """Compare every point with the scalar body; return the refused flags.

    Verdicts, refusal classes, ranks and matrices are exact; residuals are
    within ``_residual_slack`` of the oracle's.
    """
    points = list(resolvent_points(rel, lams, lambda b: zip(b.matrices, b.residuals),
                                   accept_tol))
    assert len(points) == len(lams)
    refused = []
    for lam, (obj, refusal, kept) in zip(lams, points):
        assert repr(obj) == repr(lam)
        try:
            want_matrix, want_residual = _reference(rel, lam, accept_tol)
        except NotInResolventSet as exc:
            assert kept is None
            _same_refusal(refusal, exc, _oracle_slack(rel, lam))
            refused.append(True)
            continue
        assert refusal is None
        matrix, residual = kept
        assert matrix.dtype == want_matrix.dtype
        assert np.array_equal(matrix, want_matrix)
        assert abs(residual - want_residual) <= _residual_slack(lam, want_matrix)
        refused.append(False)
    return refused


def _cutoff_with_margin(rel, lams):
    """A tolerance with the stacked and the oracle residual of every point
    of ``lams`` on the same side of it, so both refuse the same points: the
    middle of the widest gap the residual pairs leave open, which refuses
    some points and accepts the others.  Where no gap is open (at small
    ``d`` every residual is round-off and the pairs overlap), -1, which
    refuses every point."""
    got = [kept for _, _, kept in resolvent_points(rel, lams, lambda b: b.residuals,
                                                   math.inf)]
    want = [_reference(rel, lam, math.inf)[1] for lam in lams]
    spans = sorted((min(g, w), max(g, w)) for g, w in zip(got, want))
    width, i = max((spans[i][0] - max(high for _, high in spans[:i]), i)
                   for i in range(1, len(spans)))
    return spans[i][0] - width / 2 if width > 0 else -1.0


def _matches_sector(rel, ev, spec, eps, radii, rays):
    passed, bound, worst_norm, worst_lam, failures, norms = \
        _reference_sector(rel, spec, eps, radii, rays)
    assert (ev.passed, ev.bound_used) == (passed, bound)
    if norms:
        slack = _norm_slack(rel, worst_norm)
        assert abs(ev.worst_norm - worst_norm) <= slack
        # a round-off tie (the mirrored ray of a real relation) may move
        # the worst point to another one of the same oracle norm
        assert ev.worst_lambda == worst_lam or \
            abs(norms[ev.worst_lambda] - worst_norm) <= 2 * slack
    else:
        assert repr((ev.worst_norm, ev.worst_lambda)) == repr((worst_norm, worst_lam))
    assert [repr(lam) for lam, _ in ev.failures] == [repr(lam) for lam, _ in failures]
    for (lam, got), (_, want) in zip(ev.failures, failures):
        _same_message(got, want, _oracle_slack(rel, lam))


def _matches_scan(rel, grid, accept_tol=ACCEPT_TOL):
    rows = resolvent_set_scan(rel, grid, accept_tol)
    want = _reference_scan(rel, grid, accept_tol)
    assert [(repr(r.lam), r.in_set) for r in rows] == [(repr(w.lam), w.in_set) for w in want]
    for lam, row, ref in zip(grid, rows, want):
        assert _close(row.norm, ref.norm, _norm_slack(rel, ref.norm))
        assert _close(row.residual, ref.residual, _oracle_slack(rel, lam))


def _matches_checks(rel, ev):
    checks, defect, failure = _reference_checks(rel)
    assert [lam for lam, _ in ev.lambda_checks] == [lam for lam, _ in checks]
    slacks = [_norm_slack(rel, norm) for _, norm in checks]
    for (_, got), (_, want), slack in zip(ev.lambda_checks, checks, slacks):
        assert abs(got - want) <= slack
    assert _close(ev.defect, defect, max(slacks, default=0.0))
    assert (ev.failure is None) == (failure is None)
    if failure is not None:
        _same_message(ev.failure, failure, _oracle_slack(rel, LAMBDA_DECADES[len(checks)]))


# -- resolvent itself ------------------------------------------------------------


def _diagonal_relation(d, field):
    eig = -np.arange(1.0, d + 1)
    if field == "complex":
        eig = eig + 0.5j * np.arange(d)
    return LinearRelation.from_operator(np.diag(eig)), eig


def _premise_input(kind, rng, d, field, side):
    """``lam U - V`` at a random ``lam``, at an exact eigenvalue, or built
    with ``s_min / s_max = RANK_TOL * (1 + side * 1e-6)``."""
    if kind == "random":
        u, v = random_relation(rng, d, field, graph_dim=d).blocks()
        lam = rng.uniform(-3.0, 3.0) * 10.0 ** rng.uniform(-3, 6)
        if field == "complex":
            lam = lam * np.exp(1j * rng.uniform(-3.0, 3.0))
        return lam * u - v
    if kind == "eigenvalue":
        diag, eig = _diagonal_relation(d, field)
        u, v = diag.blocks()
        return eig[rng.integers(d)] * u - v
    s = np.sort(np.concatenate([[1.0, RANK_TOL * (1 + side * 1e-6)],
                                10.0 ** rng.uniform(-10, 0, d - 2)]))[::-1]
    scale = 10.0 ** rng.uniform(-3, 6)
    return scale * (random_unitary(rng, d, field) * s) @ random_unitary(rng, d, field)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["random", "eigenvalue", "threshold"]),
       field=st.sampled_from(["real", "complex"]), d=st.integers(1, 16),
       seed=st.integers(0, 10_000), side=st.sampled_from([-1, 1]))
def test_lstsq_singular_values_decide_the_rank_as_svd_does(kind, field, d, seed, side):
    # _certify reads the rank and the scale from lstsq's singular values;
    # gelsd and gesdd take different bidiagonal routes, which part by up to
    # 1.71 d eps s_max over 400 seeds of every kind, field and d
    assume(kind != "threshold" or d > 1)
    m = _premise_input(kind, np.random.default_rng(seed), d, field, side)
    s = np.linalg.lstsq(m, np.eye(d, dtype=m.dtype), rcond=None)[3]
    want = np.linalg.svd(m, compute_uv=False)
    assert numerical_rank(s) == numerical_rank(want)
    assert np.max(np.abs(s - want)) <= 4 * d * np.finfo(float).eps * want[0]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [0, 1, 2, 7, 16, 32])
def test_one_stacked_gelsd_call_is_one_lstsq_per_point(d, field):
    # _certify's one least-squares call per block against np.linalg.lstsq
    # per point: solutions and singular values bit for bit, on random and
    # m-dissipative relations, at exact eigenvalues (rank refusals) and at
    # |lam| = 1e6
    rng = np.random.default_rng([23, d, field == "complex"])
    count = 24
    lams = rng.uniform(-3.0, 3.0, count) * 10.0 ** rng.uniform(-3, 6, count)
    lams[:4] = [1e6, -1e6, 1e-6, 0.0]
    if field == "complex":
        lams = lams * np.exp(1j * rng.uniform(-3.0, 3.0, count))
        lams[4:6] = [1e6j, 1e6 * np.exp(2.5j)]
    blocks = [np.zeros((d, d)), np.eye(d)] if d == 0 else [
        random_relation(rng, d, field, graph_dim=d).blocks(),
        random_m_dissipative(rng, d, field, dom_dim=d // 2).blocks()]
    if d:
        diag, eig = _diagonal_relation(d, field)
        blocks.append(diag.blocks())
        lams[-min(d, 5):] = eig[:5]
    for u, v in (blocks if d else [blocks]):
        m = lams[:, None, None] * u - v
        eye = np.eye(d, dtype=m.dtype)
        coef, s = spectral._lstsq_stack(m, eye)
        assert coef.shape == m.shape and s.shape == m.shape[:2]
        for i in range(count):
            want, _, _, want_s = np.linalg.lstsq(m[i], eye, rcond=None)
            assert coef[i].dtype == want.dtype and s[i].dtype == want_s.dtype
            assert np.array_equal(coef[i], want) and np.array_equal(s[i], want_s)
    if d > 1:
        assert np.all(numerical_rank(s[-min(d, 5):]) < d)  # refused at eigenvalues


def test_stacked_gelsd_keeps_the_lstsq_error():
    m = np.full((2, 3, 3), np.nan)
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.lstsq(m[0], np.eye(3), rcond=None)
    with pytest.raises(np.linalg.LinAlgError) as got:
        spectral._lstsq_stack(m, np.eye(3))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", range(1, 17))
def test_stacked_resolvents_match_the_scalar_certificate(d, field):
    rng = np.random.default_rng([7, d, field == "complex"])
    count = BLOCK_ENTRIES // d ** 2 + 3  # more than one block
    rel = random_m_dissipative(rng, d, field, dom_dim=int(rng.integers(0, d + 1)))
    if field == "real":
        lams = rng.uniform(-3.0, 3.0, count) * 10.0 ** rng.uniform(-3, 6, count)
    else:
        lams = (rng.uniform(0.0, 3.0, count) * 10.0 ** rng.uniform(-3, 6, count)
                * np.exp(1j * rng.uniform(-3.0, 3.0, count)))
    refused = _matches_reference(rel, lams)

    # accepted(): every kept entry in order, real where lam and the relation are real
    kept = lams[~np.array(refused)]
    values = accepted(resolvent_points(rel, kept,
                                       lambda b: zip(b.matrices, b.residuals)))
    assert len(values) == kept.size
    for lam, (matrix, residual) in zip(kept, values):
        assert matrix.dtype == (np.float64 if field == "real" else np.complex128)
        want_matrix, want_residual = _reference(rel, lam)
        assert np.array_equal(matrix, want_matrix)
        assert abs(residual - want_residual) <= _residual_slack(lam, want_matrix)

    # residual refusals under a tight tolerance, in order
    tight = _cutoff_with_margin(rel, lams[:40])
    assert any(_matches_reference(rel, list(lams[:40]), tight))

    # rank refusals at exact eigenvalues, spread over the blocks;
    # accepted() raises the first
    diag, eig = _diagonal_relation(d, field)
    at = list(lams[:count])
    for k in range(0, count, max(1, count // 5)):
        at[k] = eig[k % d]
    refused = _matches_reference(diag, at)
    assert any(refused)
    with pytest.raises(NotInResolventSet) as exc:
        accepted(resolvent_points(diag, np.array(at), lambda b: b.matrices))
    first = at[refused.index(True)]
    with pytest.raises(NotInResolventSet) as want:
        _reference(diag, first)
    _same_refusal(exc.value, want.value, _oracle_slack(diag, first))

    # graph-dimension refusals: every point, with the caller's objects
    wrong = random_relation(rng, d, field, graph_dim=d + 1)
    assert _matches_reference(wrong, [0.5, 1, 2.0 + 1j]) == [True] * 3


def test_refusals_keep_the_callers_lambda():
    rel = LinearRelation.from_operator(np.diag([1e-3, 2.0]))
    with pytest.raises(NotInResolventSet) as exc:
        resolvent(rel, 0.001)
    assert str(exc.value).startswith("lambda=0.001 is not certified")
    lams = (0.001, 1, 2.0)
    objs = [obj for obj, _, _ in resolvent_points(rel, lams, lambda b: b.residuals)]
    assert all(obj is lam for obj, lam in zip(objs, lams))


# -- the kernels against their dense oracles ----------------------------------


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0, 4), d=st.integers(0, 7), field=st.sampled_from(["real", "complex"]),
       kind=st.sampled_from(["random", "zero", "rank1"]), scale=st.integers(-300, 300),
       seed=st.integers(0, 10_000))
def test_gram_norms_match_the_svd_norm(k, d, field, kind, scale, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, d, d))
    if field == "complex":
        x = x + 1j * rng.standard_normal((k, d, d))
    if kind == "zero":
        x = 0 * x
    elif kind == "rank1":
        x = x[:, :, :1] * x[:, :1, :]
    x = x * 10.0 ** scale
    got = spectral._two_norms(x)
    assert got.shape == (k,)
    for norm, mat in zip(got, x):
        want = np.linalg.norm(mat, 2)
        assert abs(norm - want) <= NORM_SLACK * max(d, 1) * EPS * want


@settings(max_examples=150, deadline=None)
@given(d=st.integers(0, 9), dim_shift=st.sampled_from([0, 0, -1, 1]),
       field=st.sampled_from(["real", "complex"]), push=st.integers(-12, 1),
       seed=st.integers(0, 10_000))
def test_complement_distances_match_the_projector(d, dim_shift, field, push, seed):
    # pairs (R e_i, lam R e_i - e_i) for a resolvent-like R pushed off the
    # graph by 10**push, on graphs of dimension d and d -/+ 1
    assume(0 <= d + dim_shift <= 2 * d)
    rng = np.random.default_rng(seed)
    rel = random_relation(rng, d, field, graph_dim=d + dim_shift)
    u, v = rel.blocks()
    lams = rng.uniform(-3.0, 3.0, 3) * 10.0 ** rng.uniform(-3, 6, 3)
    if field == "complex":
        lams = lams * np.exp(1j * rng.uniform(-3.0, 3.0, 3))
    r = np.stack([u @ np.linalg.pinv(lam * u - v) for lam in lams])
    r = r + 10.0 ** push * rng.standard_normal(r.shape)
    got = spectral._graph_distances(rel, r, lams)
    basis = rel.graph.basis
    for dist, lam, mat in zip(got, lams, r):
        pairs = np.vstack([mat, lam * mat - np.eye(d)])
        want = np.linalg.norm(pairs - basis @ (basis.conj().T @ pairs), axis=0)
        assert np.all(np.abs(dist - want) <= _residual_slack(lam, mat))


@settings(max_examples=150, deadline=None)
@given(d=st.integers(0, 9), field=st.sampled_from(["real", "complex"]),
       seed=st.integers(0, 10_000), data=st.data())
def test_adjoint_matches_the_null_basis_adjoint(d, field, seed, data):
    graph_dim = data.draw(st.integers(0, 2 * d))
    rel = random_relation(np.random.default_rng(seed), d, field, graph_dim=graph_dim)
    u, v = rel.blocks()
    want = LinearRelation(d, Subspace(2 * d, null_basis(np.vstack([v, -u]).conj().T)))
    got = rel.adjoint()
    assert got.dim == want.dim == 2 * d - rel.dim
    assert got.field == want.field
    assert gap_relations(got, want) <= 1e-14


# -- the callers -------------------------------------------------------------


def _callers_battery():
    rng = np.random.default_rng(11)
    rels = [random_m_dissipative(rng, d, field, dom_dim=dom)
            for d, field, dom in ((1, "real", 1), (3, "complex", 1), (8, "real", 5),
                                  (8, "complex", 8), (13, "real", 4), (13, "complex", 0))]
    rels += [random_relation(rng, 4, "real", graph_dim=4),   # not dissipative
             random_relation(rng, 3, "complex", graph_dim=2),  # graph dim != d
             _diagonal_relation(5, "real")[0]]
    return rels


@pytest.mark.parametrize("rel", _callers_battery(), ids=lambda rel: f"d{rel.state_dim}")
def test_callers_match_their_per_point_loops(rel, monkeypatch):
    # verdicts, refusals and refused lam exact; numbers to the stated slacks
    for spec, eps, radii, rays in ((SectorSpec(math.pi / 4, 2.0), math.pi / 2, 13, 7),
                                   (SectorSpec(math.pi / 3, 1.0), 0.2, 25, 13)):
        ev = sector_verify(rel, spec, eps, radii=radii, rays=rays)
        _matches_sector(rel, ev, spec, eps, radii, rays)
    _matches_scan(rel, np.linspace(-2.0, 2.0, 41))
    mixed = [-5.0, -4, 0.5 + 0.25j, 3.0, 2.0j, 1.5]  # each point in its own dtype
    for tol in (ACCEPT_TOL, 1e-14):
        _matches_scan(rel, mixed, tol)

    ev = is_m_dissipative(rel)
    if ev.certificate.dissipative and ev.range_full:
        _matches_checks(rel, ev)
        # a tight acceptance refuses some decades; the first one is reported
        monkeypatch.setattr(dissipative, "EVIDENCE_ACCEPT_TOL",
                            _cutoff_with_margin(rel, LAMBDA_DECADES))
        ev = is_m_dissipative(rel)
        assert not ev.ok
        _matches_checks(rel, ev)


# -- work and memory ---------------------------------------------------------------


def _count_inputs(monkeypatch, module, name, *more):
    """Patch ``module.name`` (and the same name in ``more``) to record inputs."""
    inputs = []
    original = getattr(module, name)

    def counting(a, *args, **kwargs):
        inputs.append(a.shape[0] if a.ndim == 3 else 1)
        return original(a, *args, **kwargs)

    for mod in (module, *more):
        monkeypatch.setattr(mod, name, counting)
    return inputs


def test_sector_verify_solves_each_point_once_and_stacks_norms(monkeypatch, caplog):
    rel = random_m_dissipative(np.random.default_rng(5), 8, "complex", dom_dim=5)
    svds = _count_inputs(monkeypatch, np.linalg, "svd", _linalg)
    eigs = _count_inputs(monkeypatch, np.linalg, "eigvalsh", _linalg)
    solves = _count_inputs(monkeypatch, spectral, "_gelsd")
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        ev = sector_verify(rel, SectorSpec(math.pi / 4, 2.0), math.pi / 2,
                           radii=13, rays=7)
        assert ev.passed
        # 91 points in blocks of 4096 // 64 = 64: the rank, the solve and
        # the scale of every point of a block come from one stacked
        # least-squares call, the norms from one stacked eigvalsh of Gram
        # matrices per block, and no SVD runs (the membership residual
        # reads the graph complement, a QR, made once per relation)
        assert solves == [64, 27]
        assert eigs == [64, 27]
        assert svds == []
        is_m_dissipative(rel)
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("resolvent_stack")]
    assert lines == ["resolvent_stack lams=91 blocks=2 refused=0",
                     "resolvent_stack lams=10 blocks=1 refused=0"]


@pytest.mark.parametrize("field", ["real", "complex"])
def test_rank_refusals_cost_one_lstsq_and_no_svd(field, monkeypatch):
    diag, eig = _diagonal_relation(5, field)
    # refused at the exact eigenvalues; one field, so one block (real and
    # complex lam never share a block)
    lams = list(np.array([eig[0], 0.5, eig[2], 2.0, eig[4]], dtype=eig.dtype))
    svds = _count_inputs(monkeypatch, np.linalg, "svd", _linalg)
    solves = _count_inputs(monkeypatch, spectral, "_gelsd")
    points = resolvent_points(diag, lams, lambda b: b.residuals)
    assert [refusal is not None and refusal.rank == 4 for _, refusal, _ in points] == \
        [True, False, True, False, True]
    assert svds == []
    assert solves == [len(lams)]


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sector_verify_holds_one_block_of_matrices():
    # 325 points of a d = 99 relation, about 2 MB one block at a time:
    # an unblocked stack peaks near 560 MB, and blocks that are all kept
    # until the end above 50 MB
    rel = interval_relation(99)
    spec = SectorSpec(alpha=math.pi / 4, bound=1.0)
    peak = _peak_mb(lambda: sector_verify(rel, spec, 0.75 * math.pi * 0.02,
                                          radii=25, rays=13))
    assert peak <= 8.0


def test_dense_bundle_holds_one_block_of_matrices():
    # one d = 32 complex relation through the spectral calls of a
    # benchmark item; keeping every block's matrices peaks above 2 MB
    rng = np.random.default_rng([101, 32, 1, 3, 0])
    rel = random_m_dissipative(rng, 32, "complex", dom_dim=16)

    def bundle():
        rel.adjoint().parts
        rel.surjectivity_modulus()
        is_m_dissipative(rel)
        sector_verify(rel, SectorSpec(math.pi / 4, 2.0), math.pi / 2, radii=13, rays=7)
        resolvent_set_scan(rel, np.linspace(-2.0, 2.0, 41))

    bundle()  # warm-up: first-call caches are not the bundle's working memory
    assert _peak_mb(bundle) <= 1.5
