import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_spectral_stacked import NORM_SLACK

from relsemi.dissipative import (
    CERT_TOL,
    EVIDENCE_ACCEPT_TOL,
    LAMBDA_DECADES,
    DissipativityCertificate,
    decide_m_dissipative,
    dissipativity_l2,
    dissipativity_sampled,
    is_m_dissipative,
    lumer_phillips_invert,
    maximal_dissipative_extension,
)
import relsemi.dissipative as dissipative
from relsemi.errors import NotDissipative, NotInResolventSet, NotMDissipative, NotSurjective
from relsemi.relation import LinearRelation, gap_relations
from relsemi.sampling import (
    random_dissipative_nonmaximal,
    random_dissipative_surjective,
    random_m_dissipative,
    random_relation,
)
from relsemi.spectral import (
    ResolventBlock,
    in_resolvent_set,
    resolvent,
    resolvent_points,
)
from relsemi.subspace import Subspace, complement, intersect


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 12),
       field=st.sampled_from(["real", "complex"]),
       kind=st.sampled_from(["m", "nonmaximal", "surjective"]))
def test_extension_complement_matches_shifted_parts(seed, d, field, kind):
    # oracle: ran(1 - A)-perp from the range part of the shifted relation
    # 1 - A, the construction the extension used before reading U - V
    rng = np.random.default_rng(seed)
    rel = {"m": random_m_dissipative, "nonmaximal": random_dissipative_nonmaximal,
           "surjective": random_dissipative_surjective}[kind](rng, d, field)
    u, v = rel.blocks()
    assert np.linalg.svd(u - v, compute_uv=False).min(initial=math.inf) >= 1 - 1e-12
    w = complement(rel.shift(1.0).parts.range).basis
    oracle = LinearRelation.from_pairs(np.hstack([u, w]), np.hstack([v, -w]))
    ext = maximal_dissipative_extension(rel)
    assert ext.dim == oracle.dim
    assert gap_relations(ext, oracle) <= 1e-12


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


def _shifted_parts_verdict(rel):
    """``(range_full, ok, failure)`` with the range test read from the parts of
    ``1 - A`` (the test ``is_m_dissipative`` made before the certificate
    carried it), kept as the oracle."""
    cert = dissipativity_l2(rel)
    range_full = rel.shift(1.0).parts.range.dim == rel.state_dim
    if not (cert.dissipative and range_full):
        return range_full, False, ("not dissipative" if not cert.dissipative
                                   else "ran(1 - A) proper")
    defect = -math.inf
    for lam, refusal, norm in resolvent_points(rel, LAMBDA_DECADES,
                                               ResolventBlock.scaled_norms,
                                               EVIDENCE_ACCEPT_TOL):
        if refusal is not None:
            return True, False, f"lam={lam:g}: {refusal}"
        defect = max(defect, float(norm) - 1.0)
    ok = defect <= CERT_TOL
    return True, ok, None if ok else f"resolvent bound defect {defect:.3e}"


_MAKERS = {"m-dissipative": random_m_dissipative,
           "non-maximal": random_dissipative_nonmaximal,
           "surjective": random_dissipative_surjective,
           "general": random_relation}


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", sorted(_MAKERS))
@given(d=st.integers(1, 8), seed=st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_range_condition_matches_the_shifted_parts(kind, field, d, seed):
    assume(kind != "non-maximal" or d >= 2)
    rel = _MAKERS[kind](np.random.default_rng(seed), d, field)
    ev = is_m_dissipative(rel)
    range_full, ok, failure = _shifted_parts_verdict(rel)
    if ev.certificate.dissipative:
        assert (ev.range_full, ev.ok, ev.failure) == (range_full, ok, failure)
    else:
        assert (ev.ok, ev.failure) == (False, "not dissipative")
        # a graph wider than d has a full shifted range but no resolvent
        assert ev.range_full == (range_full and rel.dim == d)
    decision = decide_m_dissipative(rel)
    assert decision.ok == ev.ok
    if not (ev.certificate.dissipative and ev.range_full):
        assert decision.failure == ev.failure


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("kind", sorted(_MAKERS))
@given(d=st.integers(0, 8), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_the_range_condition_of_a_dissipative_graph_is_its_dimension(kind, field, d, seed):
    # the rank stage of R(1), at an infinite acceptance so that only the
    # rank can refuse, is the oracle of the count the decision makes
    assume(d >= {"non-maximal": 2, "general": 1}.get(kind, 0))
    rel = _MAKERS[kind](np.random.default_rng(seed), d, field)
    cert = dissipativity_l2(rel)
    if not cert.dissipative:
        return
    [(_, refusal, _)] = resolvent_points(rel, [1.0], ResolventBlock.samples, math.inf)
    assert (rel.dim == d) == (refusal is None)
    decision = decide_m_dissipative(rel)
    assert (decision.failure == "ran(1 - A) proper") == (refusal is not None)
    # ||(U - V) c||^2 >= (1 - 2 w) ||c||^2: the count has a margin of about 1
    u, v = rel.blocks()
    sigma = np.linalg.svd(u - v, compute_uv=False)
    assert sigma.min(initial=1.0) >= math.sqrt(1.0 - 2.0 * max(cert.witness, 0.0)) - 1e-12


def test_lumer_phillips_refuses_the_zero_operator_built_with_round_off():
    # V = -3.1e-16: the rank of 0 - A is 0, not 1
    rel = graph_of([[-1.0]]).add_operator(np.array([[1.0]]))
    assert rel.parts.range.dim == 0
    with pytest.raises(NotSurjective):
        lumer_phillips_invert(rel)


def test_range_condition_of_a_wide_graph_is_the_graph_dimension():
    rel = random_relation(np.random.default_rng(3), 3, "real", graph_dim=4)
    assert rel.shift(1.0).parts.range.dim == 3
    ev = is_m_dissipative(rel)
    assert not ev.certificate.dissipative and not ev.range_full


def test_range_conditions_build_no_shifted_relation(monkeypatch, rng):
    calls = []
    shift = LinearRelation.shift
    monkeypatch.setattr(LinearRelation, "shift",
                        lambda self, lam: calls.append(lam) or shift(self, lam))
    rels = [random_m_dissipative(rng, 4, "complex"),
            random_dissipative_nonmaximal(rng, 4),
            random_relation(rng, 3, "real"), graph_of(np.eye(2))]
    for rel in rels:
        is_m_dissipative(rel)
        decide_m_dissipative(rel)
        assert "parts" not in rel.__dict__
    assert calls == []
    fresh = random_dissipative_surjective(rng, 5, "complex")
    lumer_phillips_invert(fresh)
    assert "parts" in fresh.__dict__  # the margin reads the operator part
    proper = random_dissipative_nonmaximal(rng, 4)
    with pytest.raises(NotSurjective) as exc:
        lumer_phillips_invert(proper)
    assert isinstance(exc.value.__cause__, NotInResolventSet)
    assert "parts" not in proper.__dict__ and calls == []


# -- the m-dissipativity decision ----------------------------------------------------

EPS = np.finfo(float).eps


def _skew_relation(rng, d, field):
    """A skew-adjoint operator: ``||lam R(lam)||_2 = 1`` at every ``lam > 0``."""
    s = random_relation(rng, d, field, graph_dim=d).blocks()[0]
    return LinearRelation.from_operator((s - s.conj().T) / 2.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@given(d=st.integers(0, 8), dom=st.integers(0, 8), eps=st.sampled_from([0.2, 0.0]),
       skew=st.booleans(), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
@example(d=3, dom=0, eps=0.2, skew=True, seed=1171)  # real: 1 + 4.5 eps at lam = 1e3
@example(d=5, dom=0, eps=0.2, skew=True, seed=3)     # real: 1 + 6 eps at lam = 1e5
def test_the_theorems_bound_covers_every_sampled_decade(field, d, dom, eps, skew, seed):
    # the decades that is_m_dissipative samples are the oracle of the bound
    rng = np.random.default_rng(seed)
    rel = (_skew_relation(rng, d, field) if skew
           else random_m_dissipative(rng, d, field, dom_dim=min(dom, d), eps=eps))
    decision, ev = decide_m_dissipative(rel), is_m_dissipative(rel)
    assert decision.ok and ev.ok and decision.failure is None
    assert max(decision.certificate.witness, 0.0) <= decision.form_bound <= \
        max(decision.certificate.witness, 0.0) + d * EPS
    u, v = rel.blocks()
    for lam, norm in ev.lambda_checks:
        # the round-off of a solve of condition kappa, plus that of the
        # Gram-eigenvalue 2-norm read from it (NORM_SLACK d eps norm)
        kappa = np.linalg.cond(lam * u - v) if d else 1.0
        assert norm <= decision.resolvent_bound(lam) + \
            max(d, 1) * EPS * (kappa + NORM_SLACK) * norm


def test_the_bound_is_the_theorems_formula():
    decision = decide_m_dissipative(graph_of(np.zeros((0, 0))))
    assert decision.form_bound == 0.0
    assert [decision.resolvent_bound(lam) for lam in (1e-300, 1.0, 1e300)] == [1.0] * 3
    assert decision.resolvent_bound(0.0) == math.inf
    wide = dataclasses.replace(decision, form_bound=0.25)  # 2 w+ = 1/2
    assert [wide.resolvent_bound(lam) for lam in (0.5, 1.0, 2.0, 2.5)] == \
        [math.inf, 1.0 / math.sqrt(0.5), 1.0 / math.sqrt(0.75), math.inf]
    assert decide_m_dissipative(graph_of([[1.0]])).resolvent_bound(1.0) == math.inf


def test_a_slightly_expansive_scalar_fails_the_bound_as_it_fails_the_evidence():
    # A = a > 0 within CERT_TOL of dissipative: the form certificate accepts
    # it, and ||lam R(lam)|| = lam / (lam - a) exceeds 1 by about a / lam;
    # the theorem's bound encloses that and exceeds 1 + CERT_TOL at 1e-3
    from relsemi.semigroup import decompose

    a = 1e-11
    rel = graph_of([[a]])
    decision, ev = decide_m_dissipative(rel), is_m_dissipative(rel)
    assert decision.certificate.dissipative and rel.dim == rel.state_dim
    assert (decision.ok, decision.failure) == (ev.ok, ev.failure) == \
        (False, "resolvent bound defect 1.000e-08")
    assert decision.resolvent_bound(1.0) == math.inf
    bound = dataclasses.replace(decision, ok=True).resolvent_bound
    for lam in (1e-10, 1e-8, 1e-3, 1.0, 1e6):
        assert lam / (lam - a) <= bound(lam) <= 1.0 + 2 * a / lam
    assert bound(2 * a) == math.inf
    with pytest.raises(NotMDissipative, match="^resolvent bound defect 1.000e-08$"):
        decompose(rel)
    # within the first decade's slack both accept
    slack = graph_of([[1e-14]])
    assert decide_m_dissipative(slack).ok and is_m_dissipative(slack).ok


def _pool_relations(monkeypatch):
    """Every pool relation of the two dense benchmark workloads, with the
    Trotter-Kato families and limits of ``dense-spectral``'s tk item."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    for name in ("dense-spectral", "dense-semigroup"):
        inputs = workloads.WORKLOADS[name].pool_inputs()
        yield from (rel for _, _, (rel, _, _) in inputs["items"])
        for _, _, (family, limit) in inputs.get("tk", ()):
            yield from family
            yield limit


def test_the_decision_is_the_evidence_verdict_on_the_benchmark_pools(monkeypatch):
    count = 0
    for rel in _pool_relations(monkeypatch):
        assert decide_m_dissipative(rel).ok == is_m_dissipative(rel).ok
        count += 1
    assert count == 693


def _refused_at_one_first():
    """A relation and a tolerance that refuse ``R(1)`` for its residual and
    accept every smaller decade."""
    rel = random_m_dissipative(np.random.default_rng(17), 3, "real")
    residuals = [kept for _, _, kept in resolvent_points(
        rel, LAMBDA_DECADES[:4], lambda block: block.residuals, math.inf)]
    below, at_one = max(residuals[:3]), residuals[3]
    assert at_one > 2 * below
    return rel, math.sqrt(below * at_one)


@pytest.mark.parametrize("case", ["expansive", "proper range", "residual at 1"])
def test_the_decision_fails_with_the_evidence_text(case, monkeypatch):
    from relsemi.semigroup import decompose

    if case == "expansive":
        rel, why = graph_of([[1.0]]), "not dissipative"
    elif case == "proper range":
        rel, why = random_dissipative_nonmaximal(np.random.default_rng(0), 4), \
            "ran(1 - A) proper"
    else:
        rel, tol = _refused_at_one_first()
        monkeypatch.setattr(dissipative, "EVIDENCE_ACCEPT_TOL", tol)
        why = is_m_dissipative(rel).failure
        assert why.startswith("lam=1: lambda=1.0 is not certified") and "residual" in why
    ev, decision = is_m_dissipative(rel), decide_m_dissipative(rel)
    assert (ev.ok, ev.failure) == (False, why)
    if case == "residual at 1":
        # the decision solves no resolvent, so the evidence's tolerance never reaches it
        assert decision.ok and decision.failure is None
        return
    assert (decision.ok, decision.failure) == (False, why)
    assert decision.resolvent_bound(1.0) == math.inf
    with pytest.raises(NotMDissipative) as exc:
        decompose(rel)
    assert str(exc.value) == why
