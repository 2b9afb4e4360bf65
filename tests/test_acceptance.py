"""Acceptance gate: one test per published guarantee, with pinned tolerances.

Each test prints a ``[criterion NN]`` verdict line (collected again in the
terminal summary) and enforces its runtime budget.  Tolerances are part of
the package contract — do not loosen them to make a failure go away.
"""

import math
import time

import numpy as np
import pytest

from relsemi.converge import (
    holomorphic_convergence_report,
    oscillating_scalar_family,
    oscillating_scalar_limit,
    trotter_kato_report,
)
from relsemi.dissipative import (
    is_m_dissipative,
    lumer_phillips_invert,
    maximal_dissipative_extension,
)
from relsemi.grids import Grid
from relsemi.heatlab import (
    DirichletGridRelation,
    disk_mask,
    interval_first_eigenvalue,
    interval_nodes,
    interval_relation,
    interval_solve,
    max_principle_check,
    perturbation_experiment,
    polygon_family,
    sector_uniformity,
    slit_family,
    supnorm_contraction,
)
from relsemi.relation import LinearRelation, gap_relations
from relsemi.sampling import (
    random_dissipative_nonmaximal,
    random_dissipative_surjective,
    random_m_dissipative,
)
from relsemi.semigroup import (
    SectorSpec,
    decompose,
    functional_equation_residual,
    integrated_at,
    laplace_residual,
    mild_solution,
    sector_verify,
    semigroup_at,
    semigroup_law_residual,
)
from relsemi.spectral import (
    in_resolvent_set,
    neumann_extend,
    relation_from_resolvent,
    resolvent,
    resolvent_identity_residual,
)
from relsemi.subspace import Subspace, complement, gap


class Budget:
    """Wall-clock guard: ``elapsed`` is reported in the criterion detail."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.t0 = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def ok(self) -> bool:
        return self.elapsed < self.limit

    def detail(self, text: str) -> str:
        return f"{text}; {self.elapsed:.2f}s of {self.limit:g}s"


def test_criterion_01_adjoint_duality(criterion, relation_battery):
    budget = Budget(5.0)
    worst = 0.0
    for rel in relation_battery:
        adj = rel.adjoint()
        p = rel.parts
        q = adj.parts
        worst = max(worst,
                    gap(q.kernel, complement(p.range)),
                    gap(p.kernel, complement(q.range)))
    ok = worst <= 1e-11 and budget.ok()
    criterion(1, "kernel/range duality under the adjoint", ok,
              budget.detail(f"200 relations, worst gap {worst:.2e}"))


def test_criterion_02_surjectivity_duality_and_radius(criterion, relation_battery):
    budget = Budget(10.0)
    mismatches = 0
    for rel in relation_battery:
        full = rel.parts.range.dim == rel.state_dim
        positive = rel.surjectivity_modulus() > 1e-8
        mismatches += int(full != positive)
    rng = np.random.default_rng(777)
    lost = 0
    for k in range(50):
        d = 1 + k % 8
        rel = random_dissipative_surjective(rng, d,
                                            "real" if k % 2 else "complex")
        radius = rel.surjectivity_radius()
        for _ in range(20):
            b = rng.standard_normal((d, d))
            if rel.field == "complex":
                b = b + 1j * rng.standard_normal((d, d))
            b *= 0.9 * radius / np.linalg.norm(b, 2)
            if rel.add_operator(b).parts.range.dim != d:
                lost += 1
    ok = mismatches == 0 and lost == 0 and budget.ok()
    criterion(2, "surjectivity modulus matches range rank; radius is safe", ok,
              budget.detail(f"{mismatches} duality mismatches, "
                            f"{lost}/1000 perturbations lost surjectivity"))


def test_criterion_03_resolvent_identity_and_continuation(
        criterion, m_dissipative_battery):
    budget = Budget(5.0)
    points = (0.5, 2.0, 1 + 1j)
    worst_identity = 0.0
    worst_neumann = 0.0
    for rel in m_dissipative_battery:
        samples = {lam: resolvent(rel, lam) for lam in points}
        for lam in points:
            for mu in points:
                worst_identity = max(worst_identity,
                                     resolvent_identity_residual(
                                         samples[lam], samples[mu]))
        base = samples[2.0]
        # ||R(2)|| <= 1/2 for an m-dissipative relation, so the series at
        # 2.5 converges with ratio <= 1/4
        ext = neumann_extend(base, 2.5)
        direct = resolvent(rel, 2.5).matrix
        worst_neumann = max(worst_neumann, float(np.max(np.abs(ext - direct))))
    ok = worst_identity <= 1e-10 and worst_neumann <= 1e-9 and budget.ok()
    criterion(3, "resolvent identity and series continuation", ok,
              budget.detail(f"identity {worst_identity:.2e}, "
                            f"continuation {worst_neumann:.2e}"))


def test_criterion_04_resolvent_round_trip(criterion):
    budget = Budget(5.0)
    rng = np.random.default_rng(4321)
    worst = 0.0
    for k in range(200):
        d = 1 + k % 8
        rel = random_m_dissipative(rng, d, "real" if k % 2 else "complex")
        rebuilt = relation_from_resolvent(1.0, resolvent(rel, 1.0).matrix)
        worst = max(worst, gap_relations(rebuilt, rel))
    ok = worst <= 1e-11 and budget.ok()
    criterion(4, "relation recovered from one resolvent sample", ok,
              budget.detail(f"200 instances, worst gap {worst:.2e}"))


def test_criterion_05_dissipative_surjective_inversion(criterion):
    budget = Budget(10.0)
    rng = np.random.default_rng(55)
    decades = [10.0 ** k for k in range(-3, 7)]
    worst_norm = 0.0
    min_margin = np.inf
    zero_missing = 0
    for k in range(100):
        d = 1 + k % 8
        rel = random_dissipative_surjective(rng, d,
                                            "real" if k % 2 else "complex")
        min_margin = min(min_margin, lumer_phillips_invert(rel).margin)
        zero_missing += int(not in_resolvent_set(rel, 0.0))
        for lam in decades:
            worst_norm = max(worst_norm,
                             lam * np.linalg.norm(resolvent(rel, lam).matrix, 2))
    ok = (min_margin > 0 and zero_missing == 0
          and worst_norm <= 1 + 1e-9 and budget.ok())
    criterion(5, "dissipative + surjective inverts with contraction bounds", ok,
              budget.detail(f"100 instances, sup ||lam R|| = {worst_norm:.12f}"))


def test_criterion_06_maximal_extension(criterion):
    budget = Budget(5.0)
    trivial = LinearRelation(1, Subspace.zero(2))
    ext = maximal_dissipative_extension(trivial)
    minus_one = LinearRelation.from_operator(np.array([[-1.0]]))
    trivial_gap = gap_relations(ext, minus_one)
    rng = np.random.default_rng(6)
    worst_idem = 0.0
    not_maximal = 0
    for k in range(100):
        d = 2 + k % 5
        rel = random_dissipative_nonmaximal(rng, d,
                                            "real" if k % 2 else "complex")
        ext_k = maximal_dissipative_extension(rel)
        not_maximal += int(not is_m_dissipative(ext_k).ok)
        worst_idem = max(worst_idem,
                         gap_relations(maximal_dissipative_extension(ext_k), ext_k))
    ok = (trivial_gap <= 1e-12 and not_maximal == 0
          and worst_idem <= 1e-11 and budget.ok())
    criterion(6, "dissipative relations extend to maximal ones", ok,
              budget.detail(f"trivial gap {trivial_gap:.2e}, "
                            f"idempotency {worst_idem:.2e}"))


def test_criterion_07_generation_and_degeneracy(criterion, m_dissipative_battery):
    budget = Budget(10.0)
    lams = 10.0 ** np.arange(1, 7)
    worst_slope = -np.inf
    worst_t_tail = 0.0
    worst_law = 0.0
    worst_mul = 0.0
    monotone = True
    for rel in m_dissipative_battery:
        sd = decompose(rel)
        p = sd.projector
        errs = np.array([np.linalg.norm(lam * resolvent(rel, lam).matrix - p, 2)
                         for lam in lams])
        # members with zero operator part have lam R(lam) = P exactly; the
        # measured residue is roundoff amplified by lam and carries no slope
        if np.any(errs > lams * 1e-13):
            monotone &= bool(np.all(np.diff(errs) <= 1e-15))
            slope = np.polyfit(np.log10(lams), np.log10(errs), 1)[0]
            worst_slope = max(worst_slope, slope)
        t_errs = [np.linalg.norm(semigroup_at(sd, 10.0 ** -k) - p, 2)
                  for k in range(1, 9)]
        monotone &= bool(np.all(np.diff(t_errs) <= 1e-15))
        worst_t_tail = max(worst_t_tail, t_errs[-1])
        for t in (0.1, 0.5, 1.0, 2.0):
            for s in (0.1, 0.5, 1.0, 2.0):
                worst_law = max(worst_law, semigroup_law_residual(sd, t, s))
        if sd.null_basis.shape[1]:
            worst_mul = max(worst_mul, float(np.max(np.abs(
                semigroup_at(sd, 0.7) @ sd.null_basis))))
    ok = (monotone and worst_slope <= -0.9 and worst_t_tail <= 1e-6
          and worst_law <= 1e-10 and worst_mul <= 1e-12 and budget.ok())
    criterion(7, "degenerate semigroup generation limits", ok,
              budget.detail(f"slope {worst_slope:.2f}, T-tail {worst_t_tail:.1e}, "
                            f"law {worst_law:.1e}, mul leak {worst_mul:.1e}"))


def test_criterion_08_integrated_semigroup_identities(
        criterion, m_dissipative_battery):
    budget = Budget(20.0)
    ts = np.linspace(0.0, 2.0, 9)
    worst_lip = -np.inf
    worst_fe = 0.0
    worst_laplace = 0.0
    for rel in m_dissipative_battery[:10]:
        sd = decompose(rel)
        mats = [integrated_at(sd, t) for t in ts]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                worst_lip = max(worst_lip,
                                np.linalg.norm(mats[i] - mats[j], 2)
                                - abs(ts[i] - ts[j]))
        for t in (0.3, 1.0):
            for s in (0.3, 1.0):
                chk = functional_equation_residual(sd, t, s)
                worst_fe = max(worst_fe, chk.residual, chk.residual_swapped)
        for lam in (1.0, 2.0 + 1.0j):
            worst_laplace = max(worst_laplace, laplace_residual(
                sd, lam, horizon=40.0, transform="integrated").total)
    ok = (worst_lip <= 1e-10 and worst_fe <= 1e-8
          and worst_laplace <= 1e-9 and budget.ok())
    criterion(8, "integrated semigroup: Lipschitz, functional equation, transform",
              ok, budget.detail(f"Lipschitz excess {worst_lip:.1e}, "
                                f"functional eq {worst_fe:.1e}, "
                                f"transform {worst_laplace:.1e}"))


def test_criterion_09_mild_solutions(criterion, m_dissipative_battery):
    budget = Budget(10.0)
    ts = np.arange(0.0, 3.0 + 1e-12, 0.1)
    worst_member = 0.0
    worst_defect = 0.0
    rng = np.random.default_rng(9)
    for rel in m_dissipative_battery[:10]:
        sd = decompose(rel)
        x = rng.standard_normal(rel.state_dim)
        if rel.field == "complex":
            x = x + 1j * rng.standard_normal(rel.state_dim)
        x /= np.linalg.norm(x)
        sol = mild_solution(sd, x, ts)
        worst_member = max(worst_member, float(np.max(sol.membership_residuals)))
        worst_defect = max(worst_defect, sol.lipschitz_defect)
    # a datum in the multivalued part evolves as the zero solution
    xs = np.array([[1.0, 0.0], [0.0, 0.0]])
    ys = np.array([[-2.0, 0.0], [0.0, 1.0]])
    sd = decompose(LinearRelation.from_pairs(xs, ys))
    null_sol = mild_solution(sd, np.array([0.0, 1.0]), ts)
    null_sup = float(np.max(np.abs(null_sol.states)))
    ok = (worst_member <= 1e-8 and worst_defect <= 1e-9
          and null_sup <= 1e-12 and budget.ok())
    criterion(9, "mild solutions: membership, Lipschitz, null data", ok,
              budget.detail(f"membership {worst_member:.1e}, "
                            f"defect {worst_defect:.1e}, null sup {null_sup:.1e}"))


def test_criterion_10_oscillating_family_exact(criterion):
    budget = Budget(5.0)
    ns = [10, 100]
    peaks = [math.pi * (2 * j + 1) / n for n in ns for j in range(1 + n * 10 // 7)]
    peaks = [t for t in peaks if t <= 10.0]
    t_grid = np.unique(np.concatenate([np.linspace(0.0, 10.0, 201), peaks]))
    members = [oscillating_scalar_family(n) for n in ns]
    limit = oscillating_scalar_limit()
    rep = trotter_kato_report(members, limit, lambda_grid=[1.0, 2.0 + 1.0j],
                              t_grid=t_grid, f_set=np.array([[1.0 + 0j]]),
                              tol=0.05, items=("i", "ii", "iii", "v"))
    sup_err = max(abs(rep.integrated_sup[k] - 2.0 / n)
                  for k, n in enumerate(ns))
    verdicts_ok = rep.consistent and all(rep.verdicts.values())
    # the semigroups themselves stay a unit apart at t = 1
    t_err_min = min(abs(np.exp(1j * n * 1.0) - 0.0) for n in ns)
    ok = sup_err <= 1e-12 and verdicts_ok and t_err_min >= 0.5 and budget.ok()
    criterion(10, "oscillating family: integrated limits without orbit limits",
              ok, budget.detail(f"sup defect {sup_err:.1e}, "
                                f"orbit error {t_err_min:.2f}"))


@pytest.fixture(scope="module")
def heat_grid():
    return Grid(64)


@pytest.fixture(scope="module")
def heat_limit(heat_grid):
    return disk_mask(heat_grid, 0.7)


def test_criterion_11_heat_domain_convergence(criterion, heat_grid, heat_limit):
    budget = Budget(180.0)
    f = np.ones((heat_grid.n_nodes, 1))
    t_grid = np.linspace(0.0, 1.0, 6)
    lams = [0.5, 1.0, 2.0]
    finals = []
    checks = True
    for masks in (polygon_family(heat_grid, 0.7),
                  slit_family(heat_grid, 0.7)):
        rep = perturbation_experiment(masks, heat_limit, lams, t_grid, f,
                                      tol=0.05)
        conv = rep.convergence
        checks &= conv.consistent and all(conv.verdicts.values())
        checks &= bool(np.all(np.diff(conv.integrated_sup) < 0))
        for errs in conv.resolvent_errors.values():
            checks &= bool(np.all(np.diff(errs) < 0))
        checks &= float(np.max(rep.off_limit_sup)) <= 1e-12
        finals.append(float(conv.integrated_sup[-1]))
    ok = checks and max(finals) <= 0.05 and budget.ok()
    criterion(11, "heat semigroups track the perturbed domains", ok,
              budget.detail(f"final sup errors {finals[0]:.4f} (polygons), "
                            f"{finals[1]:.4f} (slits)"))


def test_criterion_12_contraction_and_max_principle(
        criterion, heat_grid, heat_limit):
    budget = Budget(30.0)
    masks = [heat_limit, *polygon_family(heat_grid, 0.7),
             *slit_family(heat_grid, 0.7)]
    worst_norm = 0.0
    for mask in masks:
        cert = supnorm_contraction(DirichletGridRelation(mask),
                                   lams=(0.1, 1.0, 10.0))
        worst_norm = max(worst_norm, max(cert.norms))
    mp = max_principle_check(DirichletGridRelation(heat_limit), samples=500)
    ok = (worst_norm <= 1 + 1e-12 and mp.slack_min >= -1e-12
          and mp.samples_used > 0 and budget.ok())
    criterion(12, "sup-norm contraction and discrete maximum principle", ok,
              budget.detail(f"{len(masks)} masks, worst norm {worst_norm:.12f}, "
                            f"slack {mp.slack_min:.1e}"))


def test_criterion_13_sector_bounds(criterion):
    budget = Budget(30.0)
    delta = 0.02
    eps = 0.75 * math.pi * delta  # rays reach |arg lambda| = (3pi/4)(1-delta)
    spec = SectorSpec(alpha=math.pi / 4, bound=1.0)
    ev = sector_verify(interval_relation(99), spec, eps=eps, radii=25, rays=13)
    bound = 1.0 / math.sin(math.pi / 4) + 1e-8
    grid = Grid(32)
    labs = [DirichletGridRelation(disk_mask(grid, 0.7)),
            *(DirichletGridRelation(mk) for mk in
              polygon_family(grid, 0.7, sides=(6,))),
            *(DirichletGridRelation(mk) for mk in
              slit_family(grid, 0.7, widths=(4,), inner_x=(0.56,)))]
    uni = sector_uniformity(labs, eps=0.1)
    ok = (ev.passed and ev.worst_norm <= bound
          and math.isfinite(uni.bound) and budget.ok())
    criterion(13, "sector bounds: interval relation and 2-D mask family", ok,
              budget.detail(f"interval worst {ev.worst_norm:.6f} <= {bound:.6f}, "
                            f"2-D bound {uni.bound:.4f}"))


def test_criterion_14_holomorphic_convergence(criterion):
    budget = Budget(60.0)
    scalar = lambda a: LinearRelation.from_operator(np.array([[a]]))
    fam = [scalar(-1 - 1 / n) for n in (10, 100, 1000)]
    thetas = np.linspace(-math.pi / 4, math.pi / 4, 9)
    rep = holomorphic_convergence_report(
        fam, SectorSpec(alpha=math.pi / 4, bound=1.0), eps=0.3,
        z_grid=0.5 * np.exp(1j * thetas), f_set=np.array([[1.0 + 0j]]),
        tol=1e-3, limit=scalar(-1.0))
    scalar_ok = rep.passed and bool(np.all(np.diff(rep.errors) < 0))
    grid = Grid(32)
    limit = DirichletGridRelation(disk_mask(grid, 0.7))
    members = [DirichletGridRelation(mk)
               for mk in polygon_family(grid, 0.7, sides=(4, 8, 16))]
    f = np.ones((grid.n_nodes, 1))
    z_grid = np.array([0.2, 0.2 * np.exp(1j * math.pi / 8)])
    heat_rep = holomorphic_convergence_report(
        members, SectorSpec(alpha=math.pi / 4, bound=1.0), eps=0.3,
        z_grid=z_grid, f_set=f, tol=1.0, limit=limit)
    heat_ok = bool(np.all(np.diff(heat_rep.errors) < 0))
    ok = scalar_ok and heat_ok and budget.ok()
    criterion(14, "holomorphic orbits converge on compact sector patches", ok,
              budget.detail(f"scalar final {rep.errors[-1]:.1e}, heat errors "
                            + "→".join(f"{e:.3f}" for e in heat_rep.errors)))


def test_criterion_15_mesh_oracles(criterion):
    budget = Budget(5.0)
    worst_eig = 0.0
    for m in (9, 99):
        h = 1.0 / (m + 1)
        closed = 4.0 / h ** 2 * math.sin(math.pi * h / 2.0) ** 2
        worst_eig = max(worst_eig, abs(interval_first_eigenvalue(m) - closed))
    m = 19
    u = interval_solve(m, np.ones(m))
    xs = interval_nodes(m)
    solve_err = float(np.max(np.abs(u - xs * (xs - 1.0) / 2.0)))
    ok = worst_eig <= 1e-10 and solve_err <= 1e-13 and budget.ok()
    criterion(15, "1-D mesh oracles: eigenvalue and quadratic solve", ok,
              budget.detail(f"eigenvalue defect {worst_eig:.1e}, "
                            f"solve defect {solve_err:.1e}"))
