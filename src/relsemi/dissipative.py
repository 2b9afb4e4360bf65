"""Dissipativity certificates and maximal extensions.

A relation is dissipative when ``||lam*x|| <= ||lam*x - y||`` for every
graph pair and every ``lam > 0``.  In the Euclidean norm this is equivalent
to ``Re <x, y> <= 0`` on the graph, which reduces to an exact Hermitian
eigenvalue bound on the graph basis; for other norms only a sampled,
one-sided check is available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotDissipative, NotInResolventSet, NotSurjective
from .relation import LinearRelation
from .spectral import ResolventBlock, resolvent, resolvent_points
from .subspace import null_basis

#: Slack allowed on exact certificates.
CERT_TOL = 1e-10

#: Decades of ``lam`` on which :func:`is_m_dissipative` samples its evidence.
LAMBDA_DECADES = tuple(10.0 ** k for k in range(-3, 7))

EVIDENCE_ACCEPT_TOL = 1e-8  # acceptance residual of the sampled resolvents on LAMBDA_DECADES
SAMPLED_PAIRS = 200         # random graph pairs of the sampled sup-norm check,
SAMPLED_LAMBDAS = np.logspace(-3, 3, 13)  # its lam grid
SAMPLED_TOL = 1e-12         # and its slack


@dataclass(frozen=True)
class DissipativityCertificate:
    """Outcome of a dissipativity check.

    ``witness`` is the largest Rayleigh value of the Hermitian graph form
    for the exact check, or the worst sampled margin (negated) for the
    sampled check; values ``<= tol`` mean dissipative.
    """

    dissipative: bool
    kind: str            # "l2-exact" or "sampled"
    norm: str
    witness: float
    tol: float
    detail: Optional[dict] = None


def dissipativity_l2(rel: LinearRelation) -> DissipativityCertificate:
    """Exact Euclidean-norm certificate.

    Dissipativity in the Euclidean norm is ``lam_max(Herm(U^H V)) <= 0``
    for the graph-basis blocks ``U, V``; the certificate accepts up to
    ``CERT_TOL`` of eigensolver slack.
    """
    u, v = rel.blocks()
    if rel.dim == 0:
        return DissipativityCertificate(True, "l2-exact", "l2", -math.inf, CERT_TOL)
    form = u.conj().T @ v
    herm = (form + form.conj().T) / 2.0
    witness = float(np.linalg.eigvalsh(herm)[-1])
    return DissipativityCertificate(witness <= CERT_TOL, "l2-exact", "l2",
                                    witness, CERT_TOL)


def dissipativity_sampled(rel: LinearRelation, seed: int = 0) -> DissipativityCertificate:
    """One-sided sampled check in the sup norm.

    Draws ``SAMPLED_PAIRS`` random graph pairs, scales each by the sup norm
    of its ``x`` (pairs with ``x = 0`` say nothing and are skipped), and
    tests ``||lam*x - y|| - ||lam*x|| >= 0`` for every ``lam`` in
    ``SAMPLED_LAMBDAS``.  A negative worst margin disproves dissipativity in
    the sup norm; a nonnegative one is only evidence.  The witness records
    the first attaining sample and ``lam`` (samples outer, ``lam`` inner)
    and the lowest coordinate index attaining the sup.
    """
    xs, ys = rel.sample_pairs(np.random.default_rng(seed), SAMPLED_PAIRS)
    sx = np.max(np.abs(xs), axis=0, initial=0.0)
    used = np.flatnonzero(sx != 0.0)
    worst, detail = math.inf, None
    if used.size:
        x, y = xs[:, used] / sx[used], ys[:, used] / sx[used]  # scale-invariant
        lx = SAMPLED_LAMBDAS[:, None, None] * x
        # margins[k, j]: sample used[k] at lam_j
        margins = (np.max(np.abs(lx - y), axis=1) - np.max(np.abs(lx), axis=1)).T
        k, j = np.unravel_index(np.argmin(margins), margins.shape)
        worst = margins[k, j]
        att = int(np.argmax(np.abs(lx[j, :, k] - y[:, k])))  # lowest index on ties
        detail = {"sample": int(used[k]), "lam": float(SAMPLED_LAMBDAS[j]),
                  "attaining_index": att}
    return DissipativityCertificate(bool(worst >= -SAMPLED_TOL), "sampled", "sup",
                                    -float(worst) if math.isfinite(worst) else -math.inf,
                                    SAMPLED_TOL, detail)


def _theorem_bound(w: float, lam: float) -> float:
    """``(1 - 2 w / lam)^(-1/2)`` for ``2 w < lam <= 1 / (2 w)``, else ``inf``."""
    top = math.inf if w == 0.0 else 1.0 / (2.0 * w)
    if not 2.0 * w < lam <= top:
        return math.inf
    return 1.0 / math.sqrt(1.0 - 2.0 * w / lam)


@dataclass(frozen=True)
class MDissipativityDecision:
    """The m-dissipativity decision of :func:`decide_m_dissipative`: no sampling.

    ``ok`` is the Lumer–Phillips theorem's hypothesis, a dissipative
    ``certificate`` and ``ran(1 - A) = K^d``, with the theorem's bound on
    the decades ``LAMBDA_DECADES`` within ``CERT_TOL`` of 1.
    ``form_bound`` is ``w+ = max(witness, 0)`` plus a heuristic rounding
    allowance ``dim * eps`` for the computed largest eigenvalue
    (``||Herm(U^H V)||_2 <= 1`` on the orthonormal graph basis), so that
    ``Re <x, y> <= w+ (||x||^2 + ||y||^2)`` on the graph.
    """

    ok: bool
    certificate: DissipativityCertificate
    form_bound: float
    failure: Optional[str] = None

    def resolvent_bound(self, lam: float) -> float:
        """The theorem's bound on ``||lam R(lam, A)||_2`` at a real ``lam``.

        With ``(x, y)`` on the orthonormal graph basis, ``||lam x - y||^2 >=
        lam (lam - 2 w+) ||x||^2 + (1 - 2 lam w+) ||y||^2``, so
        ``||lam R(lam)||_2 <= (1 - 2 w+ / lam)^(-1/2)`` for ``2 w+ < lam <=
        1 / (2 w+)`` (every ``lam > 0`` when ``w+ = 0``, with bound 1).
        Elsewhere, and when the decision failed, the bound is ``inf``.
        """
        return _theorem_bound(self.form_bound, lam) if self.ok else math.inf


def decide_m_dissipative(rel: LinearRelation) -> MDissipativityDecision:
    """Decide m-dissipativity by the Lumer–Phillips theorem, with no resolvent solve.

    This is a decision, not evidence: :func:`dissipativity_l2` and the range
    condition ``ran(1 - A) = K^d`` as a count.  On the orthonormal graph
    basis ``[U; V]``, ``||(U - V) c||^2 = ||c||^2 - 2 c^H Herm(U^H V) c >=
    (1 - 2 w) ||c||^2`` for the form witness ``w <= CERT_TOL``, so
    ``ran(1 - A) = ran(U - V)`` is ``K^d`` exactly when ``dim(graph) = d``.
    The bound on ``||lam R(lam)||_2`` then holds by the theorem
    (:meth:`MDissipativityDecision.resolvent_bound`) and is not sampled;
    since it falls with ``lam``, the decision holds it to ``1 + CERT_TOL``
    at the first decade, which covers every decade that
    :func:`is_m_dissipative` samples.  A form witness above about ``5e-14``
    fails it, also where the sampled norms of a non-normal ``A`` stay
    below ``1 + CERT_TOL``.
    """
    cert = dissipativity_l2(rel)
    w = max(cert.witness, 0.0) + rel.dim * float(np.finfo(np.float64).eps)
    if not cert.dissipative:
        failure = "not dissipative"
    elif rel.dim != rel.state_dim:
        failure = "ran(1 - A) proper"
    else:
        defect = _theorem_bound(w, LAMBDA_DECADES[0]) - 1.0
        failure = f"resolvent bound defect {defect:.3e}" if defect > CERT_TOL else None
    return MDissipativityDecision(failure is None, cert, w, failure)


@dataclass(frozen=True)
class MDissipativityEvidence:
    ok: bool
    certificate: DissipativityCertificate
    range_full: bool
    lambda_checks: tuple
    defect: float
    failure: Optional[str] = None


def is_m_dissipative(rel: LinearRelation) -> MDissipativityEvidence:
    """Check m-dissipativity and collect sampled resolvent-bound evidence.

    The form certificate is read as in :func:`decide_m_dissipative`; the
    range condition is the rank stage of the ``lam = 1`` decade (a rank or
    graph-dimension refusal of ``R(1)`` means ``ran(1 - A)`` is proper).
    Where the decision bounds ``||lam R(lam, A)||_2`` in closed form, this
    evidence samples it: it verifies ``||lam R(lam, A)||_2 <= 1 + CERT_TOL``
    on every decade (resolvents accepted at ``EVIDENCE_ACCEPT_TOL``), which
    the theorem guarantees and which guards against implementation drift.
    A refused decade fails the evidence with the first refused decade's text.
    """
    cert = dissipativity_l2(rel)
    lams = LAMBDA_DECADES if cert.dissipative else (1.0,)
    points = resolvent_points(rel, lams, ResolventBlock.scaled_norms,
                              EVIDENCE_ACCEPT_TOL)
    at_one = points[lams.index(1.0)][1]
    range_full = at_one is None or at_one.residual is not None
    if not (cert.dissipative and range_full):
        failure = "ran(1 - A) proper" if cert.dissipative else "not dissipative"
        return MDissipativityEvidence(False, cert, range_full, (), math.nan, failure)
    checks = []
    defect = -math.inf
    for lam, refusal, norm in points:
        if refusal is not None:
            return MDissipativityEvidence(False, cert, range_full, tuple(checks),
                                          math.nan, f"lam={lam:g}: {refusal}")
        norm = float(norm)
        checks.append((lam, norm))
        defect = max(defect, norm - 1.0)
    ok = defect <= CERT_TOL
    failure = None if ok else f"resolvent bound defect {defect:.3e}"
    return MDissipativityEvidence(ok, cert, range_full, tuple(checks), defect, failure)


@dataclass(frozen=True)
class InversionEvidence:
    matrix: np.ndarray
    norm: float
    margin: float
    resolvent_residual: float


def lumer_phillips_invert(rel: LinearRelation) -> InversionEvidence:
    """Invert a dissipative relation with full range.

    For a dissipative relation whose range is all of ``K^d``, zero belongs
    to the resolvent set: the rank stage of the resolvent certificate at
    zero is that range condition, and its refusal raises
    :class:`NotSurjective`; the returned matrix ``Q`` is the bounded inverse
    (``A^{-1}`` is the graph of ``Q``) and satisfies
    ``||Q||_2 <= 1 / injectivity_modulus(A)``.
    """
    cert = dissipativity_l2(rel)
    if not cert.dissipative:
        raise NotDissipative(f"Hermitian form witness {cert.witness:.3e} > {CERT_TOL:.1e}")
    try:
        sample = resolvent(rel, 0.0)
    except NotInResolventSet as exc:
        if exc.residual is None:  # refused for rank or graph dimension
            raise NotSurjective("range of the relation is a proper subspace") from exc
        raise
    q = -sample.matrix  # R(0, A) = (0 - A)^{-1} = -A^{-1}
    margin = rel.injectivity_modulus()
    return InversionEvidence(q, float(np.linalg.norm(q, 2)), float(margin),
                             sample.residual)


def maximal_dissipative_extension(rel: LinearRelation) -> LinearRelation:
    """Extend a dissipative relation to an m-dissipative one.

    With ``R = ran(1 - A)``, the extension is
    ``B = {(x + v, y - v) : (x, y) in A, v in R-perp}``; it contains ``A``,
    is m-dissipative, and the construction is idempotent on relations that
    are already m-dissipative.  ``R`` is the column space of ``U - V`` for
    the graph-basis blocks, so ``R-perp = null((U - V)^H)``; on a
    dissipative graph ``||(U - V) c|| >= ||c||``, so that rank is never
    borderline.
    """
    cert = dissipativity_l2(rel)
    if not cert.dissipative:
        raise NotDissipative(f"Hermitian form witness {cert.witness:.3e} > 0")
    u, v = rel.blocks()
    w = null_basis((u - v).conj().T)
    dt = np.result_type(u.dtype, w.dtype)
    xs = np.hstack([u.astype(dt), w.astype(dt)])
    ys = np.hstack([v.astype(dt), -w.astype(dt)])
    return LinearRelation.from_pairs(xs, ys)

