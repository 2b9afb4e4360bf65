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
from .spectral import resolvent
from .subspace import complement

#: Slack allowed on exact certificates.
CERT_TOL = 1e-10

#: Decades of ``lam`` on which m-dissipativity evidence is collected.
LAMBDA_DECADES = tuple(10.0 ** k for k in range(-3, 7))

EVIDENCE_ACCEPT_TOL = 1e-8  # acceptance residual of the resolvents on LAMBDA_DECADES
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


@dataclass(frozen=True)
class MDissipativityEvidence:
    ok: bool
    certificate: DissipativityCertificate
    range_full: bool
    lambda_checks: tuple
    defect: float
    failure: Optional[str] = None


def is_m_dissipative(rel: LinearRelation) -> MDissipativityEvidence:
    """Check m-dissipativity and collect resolvent-bound evidence.

    The decision is ``dissipative + ran(1 - A) = K^d``; the evidence then
    verifies ``||lam R(lam, A)||_2 <= 1 + CERT_TOL`` on the decades
    ``LAMBDA_DECADES`` (resolvents accepted at ``EVIDENCE_ACCEPT_TOL``),
    which must hold automatically and guards against implementation drift.
    """
    cert = dissipativity_l2(rel)
    shifted = rel.shift(1.0)
    range_full = shifted.parts.range.dim == rel.state_dim
    if not (cert.dissipative and range_full):
        why = "not dissipative" if not cert.dissipative else "ran(1 - A) proper"
        return MDissipativityEvidence(False, cert, range_full, (), math.nan, why)
    checks = []
    defect = -math.inf
    for lam in LAMBDA_DECADES:
        try:
            sample = resolvent(rel, lam, EVIDENCE_ACCEPT_TOL)
        except NotInResolventSet as exc:
            return MDissipativityEvidence(False, cert, range_full, tuple(checks),
                                          math.nan, f"lam={lam:g}: {exc}")
        norm = float(np.linalg.norm(lam * sample.matrix, 2))
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
    to the resolvent set; the returned matrix ``Q`` is the bounded inverse
    (``A^{-1}`` is the graph of ``Q``) and satisfies
    ``||Q||_2 <= 1 / injectivity_modulus(A)``.
    """
    cert = dissipativity_l2(rel)
    if not cert.dissipative:
        raise NotDissipative(f"Hermitian form witness {cert.witness:.3e} > {CERT_TOL:.1e}")
    if rel.parts.range.dim < rel.state_dim:
        raise NotSurjective("range of the relation is a proper subspace")
    sample = resolvent(rel, 0.0)
    q = -sample.matrix  # R(0, A) = (0 - A)^{-1} = -A^{-1}
    margin = rel.injectivity_modulus()
    return InversionEvidence(q, float(np.linalg.norm(q, 2)), float(margin),
                             sample.residual)


def maximal_dissipative_extension(rel: LinearRelation) -> LinearRelation:
    """Extend a dissipative relation to an m-dissipative one.

    With ``R = ran(1 - A)``, the extension is
    ``B = {(x + v, y - v) : (x, y) in A, v in R-perp}``; it contains ``A``,
    is m-dissipative, and the construction is idempotent on relations that
    are already m-dissipative.
    """
    cert = dissipativity_l2(rel)
    if not cert.dissipative:
        raise NotDissipative(f"Hermitian form witness {cert.witness:.3e} > 0")
    span_r = rel.shift(1.0).parts.range
    w = complement(span_r).basis
    u, v = rel.blocks()
    dt = np.result_type(u.dtype, w.dtype)
    xs = np.hstack([u.astype(dt), w.astype(dt)])
    ys = np.hstack([v.astype(dt), -w.astype(dt)])
    return LinearRelation.from_pairs(xs, ys, rel.rank_tol)

