import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relsemi
from relsemi.cli import build_parser, main
from relsemi.relation import LinearRelation, gap_relations
from relsemi.report import vector_to_json, write_json


@pytest.fixture
def rel_file(tmp_path):
    rel = LinearRelation.from_operator(np.array([[-1.0, 0.5], [-0.5, -2.0]]))
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(rel.to_json()))
    return str(path)


@pytest.fixture
def degenerate_file(tmp_path):
    xs = np.array([[1.0, 0.0], [0.0, 0.0]])
    ys = np.array([[0.0, 0.0], [0.0, 1.0]])
    rel = LinearRelation.from_pairs(xs, ys)
    path = tmp_path / "rel2.json"
    path.write_text(json.dumps(rel.to_json()))
    return str(path)


def test_rel_parts_operator(rel_file, capsys, tmp_path):
    out = tmp_path / "o"
    assert main(["rel", "parts", rel_file, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == \
        "dom=2 ran=2 ker=0 mul=0 (graph dim 2 in K^2)"
    dims = json.loads((out / "parts.json").read_text())
    assert dims["mul"] == 0 and dims["graph"] == 2


def test_rel_parts_degenerate(degenerate_file, capsys):
    assert main(["rel", "parts", degenerate_file]) == 0
    assert "dom=1 ran=1 ker=1 mul=1" in capsys.readouterr().out


def _malformed_relation(case):
    """A one-dimensional complex graph in ``K^2`` with one defect."""
    graph = {"ambient_dim": 2, "field": "complex",
             "basis_real": [[0.6, 0.0]], "basis_imag": [[0.0, 0.8]]}
    rel = {"state_dim": 1, "field": "complex", "graph": graph}
    if case == "no imaginary column":  # once read as the zero relation
        graph["basis_imag"] = []
    elif case == "two imaginary columns":  # once read as a 2-dimensional graph
        graph["basis_imag"] = [[0.0, 0.8], [0.8, 0.0]]
    elif case == "real tag with imaginary entries":  # once read as span(e1)
        graph["field"] = rel["field"] = "real"
    elif case == "short column":
        graph["basis_real"] = [[0.6]]
    elif case == "non-numeric entry":
        graph["basis_real"] = [[0.6, "x"]]
    elif case == "negative ambient_dim":
        graph["ambient_dim"] = -2
    else:
        rel["state_dim"] = "abc"
    return rel


@pytest.mark.parametrize("case", [
    "no imaginary column", "two imaginary columns", "real tag with imaginary entries",
    "short column",
    "non-numeric entry", "negative ambient_dim", "state_dim abc"])
def test_malformed_relation_json_exits_2(case, tmp_path, capsys):
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(_malformed_relation(case)))
    assert main(["rel", "parts", str(path)]) == 2
    assert "config error: bad " in capsys.readouterr().err


def test_spec_scan_csv(rel_file, capsys):
    assert main(["spec", "scan", rel_file, "--grid", "0:1:3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# schema:")
    assert lines[1] == "lambda_re,lambda_im,in_resolvent_set,norm_R,residual"
    assert len(lines) == 2 + 4
    for row in lines[2:]:
        assert row.split(",")[2] == "true"  # spectrum is in the left half-plane


def test_spec_scan_flags_eigenvalue(tmp_path, capsys):
    rel = LinearRelation.from_operator(np.diag([-1.0, -3.0]))
    path = tmp_path / "d.json"
    path.write_text(json.dumps(rel.to_json()))
    assert main(["spec", "scan", str(path), "--grid=-3:1:0"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[2:]]
    by_re = {float(r[0]): r for r in rows}
    assert by_re[-3.0][2] == "false" and by_re[-1.0][2] == "false"
    assert by_re[-2.0][2] == "true"
    assert float(by_re[-2.0][3]) == pytest.approx(1.0)  # dist to spectrum 1


def test_spec_scan_debug_line_goes_to_stderr_only(tmp_path, capsys):
    rel = LinearRelation.from_operator(np.diag([-1.0, -3.0]))
    path = tmp_path / "d.json"
    path.write_text(json.dumps(rel.to_json()))
    argv = ["spec", "scan", str(path), "--grid=-3:0.5:1", "--imag", "0.25"]
    assert main(argv) == 0
    quiet = capsys.readouterr().out
    src = str(Path(relsemi.__file__).resolve().parents[1])
    env = {**os.environ, "RELSEMI_LOG": "debug",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "relsemi.cli", *argv], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == quiet
    assert proc.stderr.splitlines() == [
        "DEBUG relsemi: resolvent_stack lams=9 blocks=1 refused=0"]


def test_semigroup_run_logs_its_decision_to_stderr_only(rel_file, tmp_path, capsys):
    x = tmp_path / "x.json"
    write_json(str(x), vector_to_json(np.array([1.0, 0.0])))
    argv = ["semigroup", "run", rel_file, "--x", str(x), "--grid", "0:0.5:2", "--out"]
    assert main(argv + [str(tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr().out
    src = str(Path(relsemi.__file__).resolve().parents[1])
    env = {**os.environ, "RELSEMI_LOG": "debug",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "relsemi.cli", *argv,
                           str(tmp_path / "debug")], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == quiet
    for name in ("trajectory.csv", "trajectory.svg"):
        assert (tmp_path / "debug" / name).read_bytes() == \
            (tmp_path / "quiet" / name).read_bytes()
    decisions = [line for line in proc.stderr.splitlines() if "m_dissipative" in line]
    # A = [[-1, 0.5], [-0.5, -2]] is strictly dissipative: w+ = 2 eps
    assert len(decisions) == 1
    assert re.fullmatch(r"DEBUG relsemi: m_dissipative witness=-\d\.\d{3}e-\d\d "
                        r"bound=1\.0+\d*", decisions[0])


def test_config_errors_exit_2(rel_file):
    assert main(["spec", "scan", rel_file, "--grid", "bad"]) == 2
    assert main(["rel", "parts", "/nonexistent.json"]) == 2


def test_dissip_check_verdicts(rel_file, tmp_path, capsys):
    assert main(["dissip", "check", rel_file]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["dissipative"] is True and verdict["norm"] == "l2"
    expanding = tmp_path / "bad.json"
    expanding.write_text(json.dumps(
        LinearRelation.from_operator(np.eye(2)).to_json()))
    assert main(["dissip", "check", str(expanding)]) == 1
    assert json.loads(capsys.readouterr().out)["dissipative"] is False
    assert main(["dissip", "check", rel_file, "--norm", "sup"]) == 0
    assert json.loads(capsys.readouterr().out)["norm"] == "sup"


def test_semigroup_run_artifacts(rel_file, tmp_path, capsys):
    x = tmp_path / "x.json"
    write_json(str(x), vector_to_json(np.array([1.0, 0.0])))
    out = tmp_path / "sg"
    assert main(["semigroup", "run", rel_file, "--x", str(x),
                 "--grid", "0:0.5:2", "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,u_1,u_2"
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)
    assert (out / "trajectory.svg").exists()
    # wrong-length state is a config error
    bad = tmp_path / "bad_x.json"
    write_json(str(bad), vector_to_json(np.array([1.0])))
    assert main(["semigroup", "run", rel_file, "--x", str(bad),
                 "--out", str(out)]) == 2


def test_converge_tk_oscillating(tmp_path):
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps({
        "family": "oscillating", "ns": [5, 10], "tol": 0.5,
        "items": ["i", "ii", "iii", "v"],
        "lambda_grid": [1.0, 2.0],
    }))
    out = tmp_path / "tk"
    assert main(["converge", "tk", "--family", str(fam), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["consistent"] is True
    assert all(summary["verdicts"].values())
    assert summary["final_integrated_error"] <= 0.5
    errors = (out / "errors.csv").read_text().splitlines()
    assert errors[1] == "n,kind,param,error"
    assert (out / "errors.svg").exists()


def _relations_family(tmp_path, ns, tol, lambda_grid=(1.0, 2.0)):
    member = lambda a: LinearRelation.from_operator(np.array([[a]])).to_json()
    fam = tmp_path / "rels.json"
    fam.write_text(json.dumps({
        "family": "relations",
        "members": [member(-1 - 1 / n) for n in ns],
        "limit": member(-1.0),
        "tol": tol,
        "lambda_grid": list(lambda_grid),
        "t_grid": {"start": 0.0, "stop": 3.0, "num": 31},
    }))
    return str(fam)


def _stdout_summary(capsys):
    # stdout carries the CSV table first, then the JSON summary
    out = capsys.readouterr().out
    return json.loads(out[out.index("{"):])


def test_converge_tk_relations_pass(tmp_path, capsys):
    fam = _relations_family(tmp_path, (4, 16, 64), tol=0.05)
    assert main(["converge", "tk", "--family", fam]) == 0
    assert all(_stdout_summary(capsys)["verdicts"].values())


def test_converge_tk_consistent_failure(tmp_path, capsys):
    # tol below every criterion: all verdicts False, consistently
    fam = _relations_family(tmp_path, (4, 16, 64), tol=1e-9)
    assert main(["converge", "tk", "--family", fam]) == 1
    summary = _stdout_summary(capsys)
    assert not any(summary["verdicts"].values())
    assert summary["consistent"] is True


def test_converge_tk_inconsistent_exit(tmp_path, capsys):
    # frozen: tol=5e-3 splits integrated/gap from the resolvent criteria
    fam = _relations_family(tmp_path, (4, 16, 64), tol=0.005)
    assert main(["converge", "tk", "--family", fam]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_converge_tk_needs_limit(tmp_path):
    fam = tmp_path / "nolimit.json"
    member = LinearRelation.from_operator(np.array([[-1.0]])).to_json()
    fam.write_text(json.dumps({"family": "relations", "members": [member]}))
    assert main(["converge", "tk", "--family", str(fam)]) == 2


def _heat_family_file(tmp_path, **changes):
    cfg = {
        "grid": {"m": 12},
        "limit": {"shape": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.7},
                  "label": "disk"},
        "builder": {"name": "polygons", "radius": 0.7, "sides": [3, 4]},
        "lambda_grid": [1.0],
        "t_grid": {"start": 0.0, "stop": 1.0, "num": 4},
        "tol": 0.5,
        "items": ["i", "ii"],
        "f": ["ones"],
        "samples": 2,
    }
    fam = tmp_path / "heat.json"
    fam.write_text(json.dumps({**cfg, **changes}))
    return str(fam)


HEAT_ARTIFACTS = ("report.json", "errors.csv", "criterion.csv",
                  "error_curves.svg", "criterion_trace.svg")


def test_heat_converge_artifacts(tmp_path, capsys):
    fam = _heat_family_file(tmp_path)
    out = tmp_path / "hc"
    assert main(["heat", "converge", "--family", fam, "--out", str(out)]) == 0
    assert "heat-converge: PASS" in capsys.readouterr().out
    for name in HEAT_ARTIFACTS:
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["consistent"] is True
    assert report["criterion"]["ok"] is True
    assert set(report["contraction_norms"]) == {"poly-3", "poly-4", "disk"}
    crit = (out / "criterion.csv").read_text().splitlines()
    assert crit[1].startswith("label,surplus_nodes,surplus_eig")


def test_heat_converge_deterministic(tmp_path):
    fam = _heat_family_file(tmp_path)
    out1, out2 = tmp_path / "h1", tmp_path / "h2"
    assert main(["heat", "converge", "--family", fam, "--out", str(out1)]) == 0
    assert main(["heat", "converge", "--family", fam, "--out", str(out2)]) == 0
    for name in HEAT_ARTIFACTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_heat_orbit_artifacts(tmp_path, capsys):
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps({
        "grid": {"m": 12},
        "shape": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.7},
    }))
    out = tmp_path / "orbit"
    assert main(["heat", "orbit", "--mask", str(mask),
                 "--grid", "0.1:0.1:0.5", "--out", str(out)]) == 0
    assert "heat-orbit: PASS" in capsys.readouterr().out
    checks = json.loads((out / "checks.json").read_text())
    assert checks["off_domain_max"] <= 1e-12
    assert max(checks["membership_residuals"]) <= 1e-6
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[1] == "t,node_index,value"
    assert len(lines) == 2 + 5 * 144  # five times, every grid node
    assert (out / "orbit.svg").exists()
    # all-positive grid must fail on a bad time grid
    assert main(["heat", "orbit", "--mask", str(mask),
                 "--grid", "0:0:0", "--out", str(out)]) == 2


DISK = {"kind": "disk", "center": [0.0, 0.0], "radius": 0.7}


@pytest.mark.parametrize("case", [
    "spec --imag nan", "spec --tol=-1", "orbit --grid nan:0.1:1",
    "orbit --grid 0:0.1:inf", "heat t_grid NaN", "heat lambda_grid NaN", "heat t_grid Infinity", "heat mu NaN",
    "heat tol 0", "heat --tol=inf", "tk tol -1", "dissip --seed -1", "heat --seed=-3",
    "spec --grid 0:1e-300:1", "semigroup --grid 0:1:1e308", "orbit --grid 0:1e-300:1"])
def test_non_finite_or_nonpositive_input_exits_2(case, rel_file, tmp_path, capsys):
    # each of these once ended in a traceback (exit 1), or for a negative
    # tolerance ran and reported every point outside the resolvent set; the
    # --grid point counts are beyond what NumPy can allocate
    out = str(tmp_path / "o")
    mask = tmp_path / "mask.json"
    mask.write_text(json.dumps({"grid": {"m": 12}, "shape": DISK}))
    x = tmp_path / "x.json"
    write_json(str(x), vector_to_json(np.array([1.0, 0.0])))
    nan, inf = float("nan"), float("inf")
    argv = {
        "spec --imag nan": ["spec", "scan", rel_file, "--grid=0:0.5:1", "--imag", "nan"],
        "spec --tol=-1": ["spec", "scan", rel_file, "--grid=0:0.5:1", "--tol=-1"],
        "dissip --seed -1": ["dissip", "check", rel_file, "--norm", "sup", "--seed", "-1"],
        "orbit --grid nan:0.1:1": ["heat", "orbit", "--mask", str(mask),
                                   "--grid", "nan:0.1:1", "--out", out],
        "orbit --grid 0:0.1:inf": ["heat", "orbit", "--mask", str(mask),
                                   "--grid", "0:0.1:inf", "--out", out],
        "spec --grid 0:1e-300:1": ["spec", "scan", rel_file, "--grid=0:1e-300:1"],
        "semigroup --grid 0:1:1e308": ["semigroup", "run", rel_file, "--x", str(x),
                                       "--grid", "0:1:1e308", "--out", out],
        "orbit --grid 0:1e-300:1": ["heat", "orbit", "--mask", str(mask),
                                    "--grid", "0:1e-300:1", "--out", out],
    }.get(case)
    if case.startswith("heat"):
        flag = case.split()[1]
        changes = {"heat t_grid NaN": {"t_grid": [0.0, nan]},
                   "heat lambda_grid NaN": {"lambda_grid": [nan]},
                   "heat t_grid Infinity": {"t_grid": [0.0, inf]},
                   "heat mu NaN": {"mu": {"re": nan, "im": 1.0}},
                   "heat tol 0": {"tol": 0.0}}.get(case, {})
        argv = ["heat", "converge", "--family", _heat_family_file(tmp_path, **changes),
                "--out", out] + ([flag] if flag.startswith("--") else [])
    elif case.startswith("tk"):
        fam = _relations_family(tmp_path, (4, 16), tol=-1.0)
        argv = ["converge", "tk", "--family", fam]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "--seed" not in case or "config error: --seed:" in err
    assert "--grid" not in case or "config error: --grid:" in err


@pytest.mark.parametrize("case", ["tk family", "heat family", "mask", "builder",
                                  "grid", "shape"])
def test_unknown_config_key_exits_2(case, tmp_path, capsys):
    out = str(tmp_path / "o")
    if case == "tk family":
        fam = _relations_family(tmp_path, (4, 16, 64), tol=0.5)
        cfg = json.loads(Path(fam).read_text())
        Path(fam).write_text(json.dumps({**cfg, "lables": [1, 2, 3]}))
        argv, key = ["converge", "tk", "--family", fam], "lables"
    elif case == "heat family":
        fam = _heat_family_file(tmp_path, lambda_grd=[5.0])
        argv, key = ["heat", "converge", "--family", fam, "--out", out], "lambda_grd"
    elif case == "mask":
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"grid": {"m": 12}, "shape": DISK, "labl": "d"}))
        argv, key = ["heat", "orbit", "--mask", str(mask), "--out", out], "labl"
    elif case == "builder":
        fam = _heat_family_file(tmp_path, builder={"name": "polygons", "sidez": [3, 4]})
        argv, key = ["heat", "converge", "--family", fam, "--out", out], "builder.sidez"
    elif case == "grid":
        fam = _heat_family_file(tmp_path, grid={"m": 12, "boxx": 3})
        argv, key = ["heat", "converge", "--family", fam, "--out", out], "boxx"
    else:
        mask = tmp_path / "mask.json"
        mask.write_text(json.dumps({"grid": {"m": 12},
                                    "shape": {**DISK, "raduis": 0.1}}))
        argv, key = ["heat", "orbit", "--mask", str(mask), "--out", out], "raduis"
    assert main(argv) == 2
    assert f"config error: {key}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [{"builder": "polygons"}, {"limit": ["disk"]},
                                     {"members": ["disk"]}, {"members": 5},
                                     {"grid": {"m": 12, "box": 2.0}}])
def test_non_object_config_value_exits_2(changes, tmp_path, capsys):
    fam = _heat_family_file(tmp_path, **changes)
    out = str(tmp_path / "o")
    assert main(["heat", "converge", "--family", fam, "--out", out]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("changes", [
    {"items": 5}, {"lambda_grid": 5}, {"f": 5}, {"samples": -1}, {"samples": 2.7},
    {"samples": True}, {"samples": "x"}, {"items": "iv"}, {"items": ["vi"]},
    {"items": ["ii"]}, {"f": "ones"}, {"f": ["ones", 3]}, {"t_grid": 5}, {"t_grid": []}])
def test_wrong_config_value_type_exits_2(changes, tmp_path, capsys):
    # each once ended in a traceback (exit 1), ran with a value the user did
    # not give (2.7 as 2 samples, "iv" as items i and v), or exited 2 on a
    # message about something else
    [(key, value)] = changes.items()
    fam = _heat_family_file(tmp_path, **changes)
    out = str(tmp_path / "o")
    assert main(["heat", "converge", "--family", fam, "--out", out]) == 2
    assert f"config error: {key}: expected " in capsys.readouterr().err


@pytest.mark.parametrize("builder", [
    {"name": "polygons", "radius": "x"}, {"name": "polygons", "radius": -0.7},
    {"name": "polygons", "sides": [3, 4.5]}, {"name": "polygons", "sides": [2, 3]},
    {"name": "polygons", "sides": []}, {"name": "polygons", "sides": 4},
    {"name": "polygons", "center": [0.0]}, {"name": "polygons", "center": [0.0, "y"]},
    {"name": "polygons", "phase": True}, {"name": "slits", "widths": [8, 2.5]},
    {"name": "slits", "widths": [0]}, {"name": "slits", "inner_x": "x"},
    {"name": "slits", "outer_x": None}, {"name": "slits", "y": [0.0]},
    {"name": "slits", "radius": float("nan")}])
def test_wrong_builder_value_exits_2(builder, tmp_path, capsys):
    # a string radius ended in a traceback (exit 1), and sides [3, 4.5] built
    # a 4.5-sided polygon (exit 0)
    [key] = set(builder) - {"name"}
    fam = _heat_family_file(tmp_path, builder=builder)
    out = str(tmp_path / "o")
    assert main(["heat", "converge", "--family", fam, "--out", out]) == 2
    assert f"config error: builder.{key}: expected " in capsys.readouterr().err


@pytest.mark.parametrize("num", [2.7, 4.0, -1, 0, "4", True, None])
def test_time_grid_num_must_be_a_count(num, tmp_path, capsys):
    # 2.7 ran on 2 times (exit 0) in both commands that read time grids, and
    # 0 ended in a traceback (exit 1)
    t_grid = {"start": 0.0, "stop": 1.0, "num": num}
    fam = _heat_family_file(tmp_path, t_grid=t_grid)
    out = str(tmp_path / "o")
    assert main(["heat", "converge", "--family", fam, "--out", out]) == 2
    assert "config error: t_grid.num: expected " in capsys.readouterr().err
    cfg = json.loads(Path(_relations_family(tmp_path, (4, 16), tol=0.5)).read_text())
    fam = tmp_path / "tk.json"
    fam.write_text(json.dumps({**cfg, "t_grid": t_grid}))
    assert main(["converge", "tk", "--family", str(fam)]) == 2
    assert "config error: t_grid.num: expected " in capsys.readouterr().err


@pytest.mark.parametrize("changes", [{"ns": 4}, {"ns": [4, 2.5]}, {"ns": [-1]},
                                     {"labels": "abc"}, {"items": ["i", "x"]},
                                     {"lambda_grid": 1.0}])
def test_wrong_tk_config_value_type_exits_2(changes, tmp_path, capsys):
    [(key, value)] = changes.items()
    fam = tmp_path / "osc.json"
    fam.write_text(json.dumps({"family": "oscillating", "ns": [1, 2, 4], "tol": 0.5,
                               **changes}))
    assert main(["converge", "tk", "--family", str(fam)]) == 2
    assert f"config error: {key}: expected " in capsys.readouterr().err


def test_relation_file_with_rank_tol(tmp_path, capsys):
    # written by the format that stored each subspace's rank cutoff
    old = {"state_dim": 2, "field": "real", "graph": {
        "ambient_dim": 4, "field": "real",
        "basis_real": [[0.06443649919749901, -0.4285264082721065,
                        -0.2786997033335523, 0.8570528165442131],
                       [0.7127713935915146, 0.10717774317888983,
                        -0.6591825220020701, -0.21435548635777968]],
        "basis_imag": [[0.0] * 4, [0.0] * 4], "rank_tol": 1e-10}}
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    assert main(["rel", "parts", str(path)]) == 0
    assert "dom=2 ran=2 ker=0 mul=0" in capsys.readouterr().out
    rel = LinearRelation.from_json(old)
    assert "rank_tol" not in rel.to_json()["graph"]
    assert gap_relations(rel, LinearRelation.from_operator(
        np.array([[-1.0, 0.5], [0.0, -2.0]]))) <= 1e-15
    old["graph"]["rank_tol"] = 1e-6
    path.write_text(json.dumps(old))
    assert main(["rel", "parts", str(path)]) == 2
    assert "rank_tol" in capsys.readouterr().err


def test_heat_out_is_required(tmp_path):
    mask = tmp_path / "mask.json"
    mask.write_text("{}")
    with pytest.raises(SystemExit):
        main(["heat", "orbit", "--mask", str(mask)])


# every settable flag each subcommand reads, with a value it accepts
READ_FLAGS = {
    ("rel", "parts"): {"--out": "o"},
    ("spec", "scan"): {"--grid": "0:1:2", "--imag": 0.5, "--tol": 1e-6,
                       "--out": "o"},
    ("dissip", "check"): {"--norm": "sup", "--seed": 3, "--out": "o"},
    ("semigroup", "run"): {"--x": "x.json", "--grid": "0:1:2", "--out": "o"},
    ("converge", "tk"): {"--family": "f.json", "--limit": "l.json",
                         "--tol": 0.1, "--out": "o"},
    ("heat", "converge"): {"--family": "f.json", "--tol": 0.1, "--seed": 3,
                           "--out": "o"},
    ("heat", "orbit"): {"--mask": "m.json", "--grid": "0.1:0.1:1",
                        "--u0": "u.json", "--out": "o"},
}
POSITIONAL = {("rel", "parts"), ("spec", "scan"), ("dissip", "check"),
              ("semigroup", "run")}
UNREAD = [(cmd, flag) for cmd in READ_FLAGS
          for flag in ("--tol", "--seed", "--jobs") if flag not in READ_FLAGS[cmd]]


def _argv(cmd, flags):
    argv = [*cmd, *(["rel.json"] if cmd in POSITIONAL else [])]
    for flag, value in flags.items():
        argv += [flag, str(value)]
    return argv


def _subcommands(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags(parser, cmd):
    for name in cmd:
        parser = _subcommands(parser)[name]
    return {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}


@pytest.mark.parametrize("cmd", list(READ_FLAGS), ids=" ".join)
def test_subcommand_reads_its_flags(cmd):
    parser = build_parser()
    assert _flags(parser, cmd) == set(READ_FLAGS[cmd])
    args = parser.parse_args(_argv(cmd, READ_FLAGS[cmd]))
    for flag, value in READ_FLAGS[cmd].items():
        assert getattr(args, flag[2:]) == value


def test_cli_has_23_flags():
    parser = build_parser()
    cmds = [(group, name) for group, sub in _subcommands(parser).items()
            for name in _subcommands(sub)]
    assert set(cmds) == set(READ_FLAGS)
    assert sum(len(_flags(parser, cmd)) for cmd in cmds) == 23


@pytest.mark.parametrize("cmd,flag", UNREAD, ids=lambda v: v if isinstance(v, str)
                         else " ".join(v))
def test_unread_flag_exits_2(cmd, flag, capsys):
    argv = _argv(cmd, READ_FLAGS[cmd]) + [flag, "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
