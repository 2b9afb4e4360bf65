"""Experiment runner: parses configs, drives the library, emits artifacts.

No mathematics lives here.  Exit status: 0 when every checked verdict
passes, 1 when a mathematical verdict fails, 2 on configuration or input
errors.  Identical config and seed produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import cmath
import json
import logging
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import heatlab
from .converge import (
    oscillating_scalar_family,
    oscillating_scalar_limit,
    trotter_kato_report,
)
from .dissipative import dissipativity_l2, dissipativity_sampled
from .errors import ConfigError, InconsistentEquivalence, InvalidInput, RelsemiError
from .grids import (
    array_of,
    check_keys,
    grid_from_spec,
    is_count,
    is_number,
    mask_from_spec,
    one_of,
    require_object,
)
from .relation import LinearRelation
from .report import (
    render_csv,
    render_json,
    vector_from_json,
    write_chart,
    write_csv,
    write_json,
)
from .semigroup import decompose, semigroup_at
from .spectral import ACCEPT_TOL, resolvent_set_scan

log = logging.getLogger("relsemi.cli")

# the keys a family file may carry, each with the test its value must pass
# (None: checked where it is read); any other key or value is a configuration error
TK_ITEMS = ("i", "ii", "iii", "iv", "v")
HEAT_ITEMS = TK_ITEMS[:4]
TRIALS = {"ones": lambda grid: np.ones(grid.n_nodes), "bump": heatlab.bump_function}
ARRAY = (lambda v: isinstance(v, list), "a JSON array")
TIME_GRID = (lambda v: isinstance(v, dict) or isinstance(v, list) and v != [],
             "a non-empty JSON array or an object {start, stop, num}")
TK_KEYS = {"family": None, "tol": None, "lambda_grid": ARRAY, "t_grid": TIME_GRID,
           "items": (array_of(one_of(TK_ITEMS)), f"an array of items from {TK_ITEMS}"),
           "ns": (array_of(is_count), "an array of non-negative integers"),
           "members": ARRAY, "limit": None, "labels": ARRAY}
HEAT_KEYS = {"grid": None, "limit": None, "members": None, "builder": None,
             "lambda_grid": ARRAY, "t_grid": TIME_GRID, "tol": None, "mu": None,
             "items": (lambda v: array_of(one_of(HEAT_ITEMS))(v) and "i" in v,
                       f"an array of items from {HEAT_ITEMS} holding 'i'"),
             "f": (array_of(one_of(TRIALS)), f"an array of names from {tuple(TRIALS)}"),
             "samples": (is_count, "a non-negative integer")}
# heat family builders; a builder dict carries "name" and any of the builder's
# parameters, each with the test its value must pass
NUMBER = (is_number, "a finite number")
POSITIVE = (lambda v: is_number(v) and v > 0, "a positive number")
POINT = (lambda v: array_of(is_number)(v) and len(v) == 2, "a point [x, y]")
BUILDERS = {
    "polygons": (heatlab.polygon_family, {
        "radius": POSITIVE, "center": POINT, "phase": NUMBER,
        "sides": (lambda v: array_of(lambda k: is_count(k) and k >= 3)(v) and v != [],
                  "a non-empty array of integers >= 3")}),
    "slits": (heatlab.slit_family, {
        "radius": POSITIVE, "center": POINT, "outer_x": NUMBER, "y": NUMBER,
        "widths": (lambda v: array_of(lambda k: is_count(k) and k >= 1)(v) and v != [],
                   "a non-empty array of positive integers"),
        "inner_x": (array_of(is_number), "an array of finite numbers")}),
}


def _parse_time_grid(expr: str) -> np.ndarray:
    """Parse ``a:step:b`` into the inclusive arithmetic grid."""
    parts = expr.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like a:step:b, got {expr!r}", field="--grid")
    a, step, b = (_finite(p, "--grid", float) for p in parts)
    if step <= 0 or b < a:
        raise ConfigError("grid needs step > 0 and b >= a", field="--grid")
    try:
        count = int(math.floor((b - a) / step + 1e-9)) + 1
        return a + step * np.arange(count)
    except (OverflowError, ValueError) as exc:  # a count NumPy cannot allocate
        raise ConfigError(f"grid {expr!r} has too many points ({exc})",
                          field="--grid") from exc


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"no such file: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def _load_relation(path: str) -> LinearRelation:
    return LinearRelation.from_json(_load_json(path))


def _finite(value, field, kind):
    """``kind(value)`` (a complex one may be ``{re, im}``), refused unless finite."""
    try:
        x = complex(value["re"], value["im"]) \
            if kind is complex and isinstance(value, dict) else kind(value)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"not a number: {value!r}", field=field) from exc
    if not cmath.isfinite(x):
        raise ConfigError(f"{value!r} is not finite", field=field)
    return x


def _tolerance(args, cfg, default) -> float:
    """``--tol``, else the config's ``tol``, else ``default``; finite and > 0."""
    tol = _finite(cfg.get("tol", default) if args.tol is None else args.tol, "tol", float)
    if tol <= 0:
        raise ConfigError(f"{tol!r} is not > 0", field="tol")
    return tol


def _grid_field(obj, key):
    """Time grids in config files: either a list or {start, stop, num}."""
    spec = obj.get(key)
    if spec is None:
        return None
    if isinstance(spec, dict):
        check_keys(spec, {"start": None, "stop": None,
                          "num": (lambda v: is_count(v) and v >= 1, "a positive integer")},
                   f"{key} object", f"{key}.")
        try:
            return np.linspace(_finite(spec["start"], key, float),
                               _finite(spec["stop"], key, float), spec["num"])
        except KeyError as exc:
            raise ConfigError(f"bad grid object: missing {exc}", field=key) from exc
    return np.asarray([_finite(v, key, float) for v in spec])


def _emit(text: str, out_dir, filename: str):
    if out_dir:
        path = os.path.join(out_dir, filename)
        from .report import atomic_write
        atomic_write(path, text)
        log.info("wrote %s", path)
    else:
        sys.stdout.write(text)


# -- commands --------------------------------------------------------------


def cmd_rel_parts(args) -> int:
    rel = _load_relation(args.relation)
    p = rel.parts
    dims = {"state_dim": rel.state_dim, "field": rel.field,
            "graph": rel.dim, "dom": p.domain.dim, "ran": p.range.dim,
            "ker": p.kernel.dim, "mul": p.multivalued.dim}
    print(f"dom={dims['dom']} ran={dims['ran']} ker={dims['ker']} mul={dims['mul']}"
          f" (graph dim {dims['graph']} in K^{rel.state_dim})")
    if args.out:
        write_json(os.path.join(args.out, "parts.json"), dims)
    return 0


def cmd_spec_scan(args) -> int:
    rel = _load_relation(args.relation)
    lams = _parse_time_grid(args.grid) + 1j * _finite(args.imag, "--imag", float)
    rows = resolvent_set_scan(rel, lams, accept_tol=_tolerance(args, {}, None))
    scanned = np.array([r.lam for r in rows], dtype=complex)
    text = render_csv(
        ["lambda_re", "lambda_im", "in_resolvent_set", "norm_R", "residual"],
        [scanned.real, scanned.imag, [r.in_set for r in rows], [r.norm for r in rows],
         [r.residual for r in rows]])
    _emit(text, args.out, "scan.csv")
    return 0


def cmd_dissip_check(args) -> int:
    rel = _load_relation(args.relation)
    if args.norm == "l2":
        cert = dissipativity_l2(rel)
    else:
        cert = dissipativity_sampled(rel, seed=args.seed)
    verdict = asdict(cert)
    text = render_json(verdict)
    if args.out:
        write_json(os.path.join(args.out, "verdict.json"), verdict)
    sys.stdout.write(text)
    return 0 if cert.dissipative else 1


def cmd_semigroup_run(args) -> int:
    rel = _load_relation(args.relation)
    x = vector_from_json(_load_json(args.x))
    if x.shape != (rel.state_dim,):
        raise ConfigError("state vector length does not match the relation",
                          field="--x")
    sd = decompose(rel)
    ts = _parse_time_grid(args.grid)
    states = semigroup_at(sd, ts) @ x
    names, columns = ["t"], [ts]
    for j, u in enumerate(states.T, start=1):
        if np.iscomplexobj(states):
            names += [f"u_{j}_re", f"u_{j}_im"]
            columns += [u.real, u.imag]
        else:
            names.append(f"u_{j}")
            columns.append(u)
    _emit(render_csv(names, columns), args.out, "trajectory.csv")
    if args.out:
        norms = [float(np.linalg.norm(u)) for u in states]
        series = [("norm", ts, norms)]
        for j in range(min(rel.state_dim, 4)):
            series.append((f"|u_{j + 1}|", ts, [abs(u[j]) for u in states]))
        write_chart(os.path.join(args.out, "trajectory.svg"), series,
                    "orbit", "t", "value")
    return 0


def _tk_inputs(args):
    cfg = _load_json(args.family)
    check_keys(cfg, TK_KEYS, "family", "")
    kind = cfg.get("family", "relations")
    tol = _tolerance(args, cfg, 1e-6)
    lam_grid = [_finite(l, "lambda_grid", complex)
                for l in cfg.get("lambda_grid", [1.0, 2.0])]
    t_grid = _grid_field(cfg, "t_grid")
    items = tuple(cfg.get("items", TK_ITEMS))
    if kind == "oscillating":
        ns = cfg.get("ns", [])
        if not ns:
            raise ConfigError("oscillating family needs nonempty 'ns'", field="ns")
        members = [oscillating_scalar_family(n) for n in ns]
        limit = oscillating_scalar_limit()
        labels = ns
        if t_grid is None:
            t_grid = np.linspace(0.0, 10.0, 201)
    elif kind == "relations":
        members = [LinearRelation.from_json(m) for m in cfg.get("members", [])]
        if not members:
            raise ConfigError("empty 'members'", field="members")
        if args.limit:
            limit = _load_relation(args.limit)
        elif "limit" in cfg:
            limit = LinearRelation.from_json(cfg["limit"])
        else:
            raise ConfigError("no limit relation given (flag --limit or key "
                              "'limit')", field="limit")
        labels = cfg.get("labels", list(range(1, len(members) + 1)))
        if t_grid is None:
            t_grid = np.linspace(0.0, 3.0, 31)
    else:
        raise ConfigError(f"unknown family kind {kind!r}", field="family")
    return members, limit, labels, lam_grid, t_grid, tol, items


def cmd_converge_tk(args) -> int:
    members, limit, labels, lam_grid, t_grid, tol, items = _tk_inputs(args)
    try:
        rep = trotter_kato_report(members, limit, lam_grid, t_grid, tol=tol,
                                  items=items, labels=labels)
    except InconsistentEquivalence as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    summary = {"labels": list(rep.labels), "tol": rep.tol,
               "verdicts": rep.verdicts, "consistent": rep.consistent,
               "mu_hypothesis": rep.mu_hypothesis,
               "final_integrated_error": None if rep.integrated_sup is None
               else float(rep.integrated_sup[-1])}
    _emit(render_csv(["n", "kind", "param", "error"], rep.columns()),
          args.out, "errors.csv")
    if args.out:
        write_json(os.path.join(args.out, "summary.json"), summary)
        series = []
        xs = np.arange(1, len(rep.labels) + 1)
        if rep.integrated_sup is not None:
            series.append(("integrated", xs, rep.integrated_sup))
        for lam, errs in sorted(rep.resolvent_errors.items(),
                                key=lambda kv: (kv[0].real, kv[0].imag)):
            series.append((f"R({lam:g})", xs, errs))
        if series:
            write_chart(os.path.join(args.out, "errors.svg"), series,
                        "convergence", "family index", "error", log_y=True)
    else:
        sys.stdout.write(render_json(summary))
    ok = rep.consistent and all(rep.verdicts.values())
    return 0 if ok else 1


def _heat_family(cfg):
    check_keys(cfg, HEAT_KEYS, "heat family", "")
    grid = grid_from_spec(cfg.get("grid", {}))
    if "limit" not in cfg:
        raise ConfigError("heat family needs a 'limit' mask", field="limit")
    limit = mask_from_spec({"grid": cfg["grid"], **require_object(cfg["limit"], "limit")})
    if "members" in cfg:
        if not isinstance(cfg["members"], list):
            raise ConfigError("not a JSON array", field="members")
        masks = [mask_from_spec({"grid": cfg["grid"], **require_object(m, "members")})
                 for m in cfg["members"]]
    elif "builder" in cfg:
        b = dict(require_object(cfg["builder"], "builder"))
        name = b.pop("name", None)
        if not isinstance(name, str) or name not in BUILDERS:
            raise ConfigError(f"unknown builder {name!r}", field="builder.name")
        build, keys = BUILDERS[name]
        check_keys(b, keys, f"builder {name!r}", "builder.")
        masks = build(grid, **{k: tuple(v) if isinstance(v, list) else v
                               for k, v in b.items()})
    else:
        raise ConfigError("heat family needs 'members' or 'builder'",
                          field="members")
    return grid, masks, limit


def _f_columns(grid, names):
    return np.column_stack([TRIALS[name](grid) for name in names or ("ones", "bump")])


def cmd_heat_converge(args) -> int:
    cfg = _load_json(args.family)
    grid, masks, limit = _heat_family(cfg)
    lam_grid = [_finite(l, "lambda_grid", complex)
                for l in cfg.get("lambda_grid", [0.5, 1.0, 2.0])]
    t_grid = _grid_field(cfg, "t_grid")
    if t_grid is None:
        t_grid = np.linspace(0.0, 1.0, 6)
    tol = _tolerance(args, cfg, 0.05)
    mu = _finite(cfg.get("mu", {"re": 1.0, "im": 1.0}), "mu", complex)
    items = tuple(cfg.get("items", HEAT_ITEMS))
    rep = heatlab.perturbation_experiment(
        masks, limit, lam_grid, t_grid, _f_columns(grid, cfg.get("f")),
        tol=tol, mu=mu, items=items, samples=cfg.get("samples", 4),
        seed=args.seed)
    conv = rep.convergence
    out = args.out
    write_csv(os.path.join(out, "errors.csv"),
              ["n", "kind", "param", "error"], conv.columns())
    crit = rep.criterion
    write_csv(os.path.join(out, "criterion.csv"),
              ["label", "surplus_nodes", "surplus_eig", "surplus_measure",
               "deficit_nodes", "deficit_eig", "nearest_pair_max",
               "off_limit_sup"],
              [list(conv.labels), crit.surplus_counts, crit.surplus_eigs,
               crit.surplus_measure, crit.deficit_counts, crit.deficit_eigs,
               rep.nearest_distances.max(axis=1, initial=0.0), rep.off_limit_sup])
    summary = {
        "header": rep.header,
        "labels": list(conv.labels),
        "tol": conv.tol,
        "verdicts": conv.verdicts,
        "consistent": conv.consistent,
        "mu_hypothesis": conv.mu_hypothesis,
        "integrated_sup": conv.integrated_sup,
        "resolvent_errors": {str(k): v for k, v in conv.resolvent_errors.items()},
        "criterion": {"margins": list(crit.margins),
                      "n0": {str(k): v for k, v in crit.n0.items()},
                      "surplus_eigs": crit.surplus_eigs,
                      "deficit_eigs": crit.deficit_eigs,
                      "expected_direction": "to_infinity",
                      "ok": crit.ok},
        "contraction_norms": {k: v.norms for k, v in rep.contraction.items()},
    }
    write_json(os.path.join(out, "report.json"), summary)
    xs = np.arange(1, len(conv.labels) + 1)
    series = [("integrated", xs, conv.integrated_sup)]
    for lam, errs in sorted(conv.resolvent_errors.items(),
                            key=lambda kv: (kv[0].real, kv[0].imag)):
        series.append((f"R({lam.real:g})", xs, errs))
    write_chart(os.path.join(out, "error_curves.svg"), series,
                "domain convergence", "family index", "sup-norm error",
                log_y=True)
    write_chart(os.path.join(out, "criterion_trace.svg"),
                [("deficit eig", xs, crit.deficit_eigs),
                 ("nearest pair", xs, rep.nearest_distances.max(axis=1))],
                "convergence criterion", "family index", "value", log_y=True)
    ok = conv.consistent and all(conv.verdicts.values()) and crit.ok
    print(f"heat-converge: {'PASS' if ok else 'FAIL'} "
          f"(final integrated error {conv.integrated_sup[-1]:.4g}, tol {tol:g})")
    return 0 if ok else 1


def cmd_heat_orbit(args) -> int:
    spec = _load_json(args.mask)
    mask = mask_from_spec(spec)
    lab = heatlab.DirichletGridRelation(mask)
    ts = _parse_time_grid(args.grid)
    ts = ts[ts > 0]
    if ts.size == 0:
        raise ConfigError("orbit grid needs positive times", field="--grid")
    if args.u0:
        u0 = vector_from_json(_load_json(args.u0))
        if u0.shape != (lab.state_dim,) or np.iscomplexobj(u0):
            raise ConfigError("u0 must be a real grid function", field="--u0")
    else:
        u0 = np.ones(lab.state_dim)
    orbit = heatlab.heat_orbit(lab, u0, ts)
    n = lab.state_dim
    write_csv(os.path.join(args.out, "trajectory.csv"),
              ["t", "node_index", "value"],
              [np.repeat(orbit.times, n), np.tile(np.arange(n), orbit.times.size),
               orbit.states.ravel()])
    checks = {
        "projection_defect": orbit.projection_defect,
        "off_domain_max": orbit.off_domain_max,
        "membership_times": list(orbit.membership_times),
        "membership_residuals": list(orbit.membership_residuals),
        "initial_trace": orbit.initial_trace,
        "sup_ratio": orbit.sup_ratio,
        "min_entry": orbit.min_entry,
        "nodewise_decreasing": orbit.nodewise_decreasing,
    }
    write_json(os.path.join(args.out, "checks.json"), checks)
    sup = [float(np.max(np.abs(orbit.states[j]))) for j in range(ts.size)]
    write_chart(os.path.join(args.out, "orbit.svg"),
                [("sup |u(t)|", ts, sup),
                 ("trace vs u0", ts, orbit.initial_trace)],
                "heat orbit", "t", "value")
    ok = (orbit.off_domain_max <= 1e-12
          and all(r <= 1e-6 for r in orbit.membership_residuals))
    print(f"heat-orbit: {'PASS' if ok else 'FAIL'} "
          f"(off-domain {orbit.off_domain_max:.2g}, "
          f"worst membership {max(orbit.membership_residuals, default=0.0):.2g})")
    return 0 if ok else 1


# -- wiring ------------------------------------------------------------------


def _out(p, required=False):
    p.add_argument("--out", required=required, default=None,
                   help="output directory" + ("" if required
                                              else " (default: stdout)"))


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer, as NumPy's generators take."""
    seed = int(text)
    if seed < 0:
        raise ConfigError(f"{seed} is negative", field="--seed")
    return seed


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="relsemi",
                                 description="relation-semigroup experiments")
    sub = ap.add_subparsers(dest="group", required=True)

    rel = sub.add_parser("rel", help="relation inspection").add_subparsers(
        dest="cmd", required=True)
    p = rel.add_parser("parts", help="print dom/ran/ker/mul dimensions")
    p.add_argument("relation", help="relation JSON file")
    _out(p)
    p.set_defaults(func=cmd_rel_parts)

    spec = sub.add_parser("spec", help="spectral scans").add_subparsers(
        dest="cmd", required=True)
    p = spec.add_parser("scan", help="classify a real line segment")
    p.add_argument("relation")
    p.add_argument("--grid", required=True, help="a:step:b for Re(lambda)")
    p.add_argument("--imag", type=float, default=0.0, help="constant Im(lambda)")
    p.add_argument("--tol", type=float, default=ACCEPT_TOL,
                   help=f"acceptance residual (default {ACCEPT_TOL:g})")
    _out(p)
    p.set_defaults(func=cmd_spec_scan)

    dis = sub.add_parser("dissip", help="dissipativity checks").add_subparsers(
        dest="cmd", required=True)
    p = dis.add_parser("check", help="certify or refute dissipativity")
    p.add_argument("relation")
    p.add_argument("--norm", choices=("l2", "sup"), default="l2")
    p.add_argument("--seed", type=_seed, default=0,
                   help="RNG seed of the sup-norm sampling (default 0)")
    _out(p)
    p.set_defaults(func=cmd_dissip_check)

    sg = sub.add_parser("semigroup", help="orbits").add_subparsers(
        dest="cmd", required=True)
    p = sg.add_parser("run", help="trajectory of T(t)x")
    p.add_argument("relation")
    p.add_argument("--x", required=True, help="state vector JSON")
    p.add_argument("--grid", default="0:0.1:3")
    _out(p)
    p.set_defaults(func=cmd_semigroup_run)

    cv = sub.add_parser("converge", help="approximation studies").add_subparsers(
        dest="cmd", required=True)
    p = cv.add_parser("tk", help="equivalent convergence criteria table")
    p.add_argument("--family", required=True, help="family spec JSON")
    p.add_argument("--limit", default=None, help="limit relation JSON")
    p.add_argument("--tol", type=float, default=None,
                   help="override the family's tolerance")
    _out(p)
    p.set_defaults(func=cmd_converge_tk)

    heat = sub.add_parser("heat", help="grid Dirichlet experiments").add_subparsers(
        dest="cmd", required=True)
    p = heat.add_parser("converge", help="domain perturbation experiment")
    p.add_argument("--family", required=True, help="mask family JSON")
    p.add_argument("--tol", type=float, default=None,
                   help="override the family's tolerance")
    p.add_argument("--seed", type=_seed, default=0,
                   help="RNG seed of the nearest-pair samples (default 0)")
    _out(p, required=True)
    p.set_defaults(func=cmd_heat_converge)
    p = heat.add_parser("orbit", help="heat orbit with checks")
    p.add_argument("--mask", required=True, help="mask spec JSON")
    p.add_argument("--grid", default="0.05:0.05:1")
    p.add_argument("--u0", default=None, help="initial state JSON")
    _out(p, required=True)
    p.set_defaults(func=cmd_heat_orbit)
    return ap


def main(argv=None) -> int:
    level = os.environ.get("RELSEMI_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, InvalidInput) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RelsemiError as exc:
        print(f"FAIL: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
