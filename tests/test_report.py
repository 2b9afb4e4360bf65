import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from relsemi import grids, heatlab
from relsemi.cli import main
from relsemi.errors import InvalidInput
from relsemi.report import (
    CSV_BLOCK,
    _fmt,
    atomic_write,
    line_chart,
    render_csv,
    render_json,
    sanitize,
    vector_from_json,
    vector_to_json,
    write_chart,
    write_csv,
    write_json,
)


def test_atomic_write_creates_dirs(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    # no stray temp files
    assert [p.name for p in (tmp_path / "a" / "b").iterdir()] == ["out.txt"]
    atomic_write(str(target), "second\n")
    assert target.read_text() == "second\n"


def test_csv_schema_and_rows():
    text = render_csv(["a", "b"], [[1, True], [2.5, float("nan")]])
    lines = text.splitlines()
    assert lines[0] == "# schema: a, b"
    assert lines[1] == "a,b"
    assert lines[2] == "1,2.5"
    assert lines[3] == "true,nan"
    assert text.endswith("\n")


def test_csv_rejects_ragged_rows():
    with pytest.raises(InvalidInput):
        render_csv(["a", "b"], [[1]])
    with pytest.raises(InvalidInput):
        render_csv(["a", "b"], [np.arange(3), [1.0, 2.0]])
    with pytest.raises(InvalidInput):
        render_csv(["a"], [np.zeros((2, 2))])


def test_csv_complex_format():
    text = render_csv(["z"], [[1 + 2j, 1 - 2j]])
    assert "1.0+2.0j" in text and "1.0-2.0j" in text


def _rowwise_csv(names, columns):
    """The per-cell reference: one row at a time, every cell through ``_fmt``."""
    lines = [f"# schema: {', '.join(names)}", ",".join(names)]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


_SPECIAL_FLOATS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                            -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                            1e300, -1e300, 0.1, 1.0 / 3.0, 1e16, 123456789.0])


_MIXED = [1.5, 2, "x", True, 1 - 2j, np.float64(-0.0), None]


def _column(kind, n, rng):
    floats = np.where(rng.random(n) < 0.5, rng.choice(_SPECIAL_FLOATS, n),
                      rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64))
    if kind == "float64":
        return floats
    if kind == "float32":
        with np.errstate(over="ignore", invalid="ignore"):
            return floats.astype(np.float32)
    if kind == "int64":
        return rng.integers(-2 ** 63, 2 ** 63 - 1, n, dtype=np.int64, endpoint=True)
    if kind == "uint8":
        return rng.integers(0, 255, n, dtype=np.uint8, endpoint=True)
    if kind == "bool":
        return rng.random(n) < 0.5
    if kind == "complex":
        z = np.empty(n, dtype=complex)
        z.real, z.imag = floats, floats[::-1]
        return z
    if kind == "str":
        return np.array([f"s{v}" for v in rng.integers(0, 99, n)])
    if kind == "list":
        return [_MIXED[i % len(_MIXED)] for i in range(n)]
    raise AssertionError(kind)


# a drawn seed builds the columns, so shrinking has nothing to simplify
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(n=st.sampled_from([0, 1, 2, 17, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1,
                          2 * CSV_BLOCK + 3]),
       kinds=st.lists(st.sampled_from(["float64", "float32", "int64", "uint8", "bool",
                                       "complex", "str", "list"]),
                      min_size=1, max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_csv_matches_the_rowwise_reference(n, kinds, seed):
    rng = np.random.default_rng(seed)
    names = [f"c{j}" for j in range(len(kinds))]
    columns = [_column(kind, n, rng) for kind in kinds]
    assert render_csv(names, columns) == _rowwise_csv(names, columns)


def test_heat_orbit_csv_matches_the_rowwise_reference(tmp_path):
    spec = {"grid": {"m": 32}, "label": "disk",
            "shape": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.7}}
    u0 = heatlab.bump_function(grids.Grid(32))
    (tmp_path / "mask.json").write_text(json.dumps(spec))
    write_json(str(tmp_path / "u0.json"), vector_to_json(u0))
    out = tmp_path / "orbit"
    assert main(["heat", "orbit", "--mask", str(tmp_path / "mask.json"),
                 "--grid", "0.05:0.05:1", "--u0", str(tmp_path / "u0.json"),
                 "--out", str(out)]) == 0
    lab = heatlab.DirichletGridRelation(grids.mask_from_spec(spec))
    orbit = heatlab.heat_orbit(lab, u0, 0.05 + 0.05 * np.arange(20))  # the CLI's grid
    rows = [(float(t), node, float(orbit.states[j, node]))
            for j, t in enumerate(orbit.times) for node in range(lab.state_dim)]
    assert (out / "trajectory.csv").read_text() == \
        _rowwise_csv(["t", "node_index", "value"], list(zip(*rows)))


class _Unprintable:
    def __str__(self):
        raise RuntimeError("formatting failed")


def test_streamed_write_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "t.csv"
    write_csv(str(target), ["a"], [[1]])
    before = target.read_bytes()
    # the failing cell sits in the second block: the header and the first
    # block have already been written to the temp file when it raises
    cells = [0.5] * (CSV_BLOCK + 7)
    cells[CSV_BLOCK + 3] = _Unprintable()
    with pytest.raises(RuntimeError, match="formatting failed"):
        write_csv(str(target), ["a"], [cells])
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["t.csv"]


def test_orbit_shaped_write_stays_small(tmp_path):
    times, n = 0.05 * np.arange(1, 21), 3632
    states = np.random.default_rng(0).standard_normal((times.size, n))
    columns = [np.repeat(times, n), np.tile(np.arange(n), times.size), states.ravel()]
    tracemalloc.start()
    try:
        write_csv(str(tmp_path / "trajectory.csv"), ["t", "node_index", "value"],
                  columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole text is about 3 MB; one Python object per cell took 22 MB
    assert peak < 6e6


def test_sanitize_special_values():
    obj = {
        "inf": math.inf,
        "ninf": -math.inf,
        "nan": math.nan,
        "z": 1 + 2j,
        "arr": np.array([1.0, 2.0]),
        "nested": [np.int64(3), np.float64(0.5), np.bool_(True)],
    }
    s = sanitize(obj)
    assert s["inf"] == "inf" and s["ninf"] == "-inf" and s["nan"] == "nan"
    assert s["z"] == {"re": 1.0, "im": 2.0}
    assert s["arr"] == [1.0, 2.0]
    assert s["nested"] == [3, 0.5, True]
    json.dumps(s)  # strict-JSON safe


def test_json_deterministic_and_sorted():
    a = render_json({"b": 1, "a": [np.float64(2.0)]})
    b = render_json({"a": [2.0], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')


def test_write_helpers_round_trip(tmp_path):
    p = tmp_path / "v.json"
    write_json(str(p), {"x": 1})
    assert json.loads(p.read_text()) == {"x": 1}
    c = tmp_path / "t.csv"
    write_csv(str(c), ["a"], [[1]])
    assert c.read_text().splitlines()[-1] == "1"


def test_vector_json_round_trip():
    z = np.array([1.0 + 2.0j, -0.5 + 0.0j])
    back = vector_from_json(vector_to_json(z))
    assert np.array_equal(back, z)
    r = np.array([1.0, 2.0])
    back_r = vector_from_json(vector_to_json(r))
    assert back_r.dtype.kind == "f"
    assert np.array_equal(back_r, r)
    with pytest.raises(InvalidInput):
        vector_from_json({"values_imag": [1.0]})
    with pytest.raises(InvalidInput):
        vector_from_json({"values_real": [1.0], "values_imag": [1.0, 2.0]})


def _series_path(svg):
    # the first palette color marks the data path of series 0
    seg = svg[svg.index('stroke="#1f77b4"'):]
    start = svg.rindex('<path d="', 0, svg.index('stroke="#1f77b4"'))
    d = svg[start + len('<path d="'):]
    return d[:d.index('"')]


def test_line_chart_structure():
    svg = line_chart([("err", [1, 2, 3], [0.1, 0.05, 0.01])],
                     "decay", "n", "error")
    assert svg.startswith("<svg")
    assert "decay" in svg and "err" in svg
    assert _series_path(svg).count("L") == 2  # 3 points = move + 2 segments
    with pytest.raises(InvalidInput):
        line_chart([], "t", "x", "y")


def test_line_chart_log_drops_nonpositive():
    svg = line_chart([("s", [1, 2, 3], [1.0, 0.0, 0.1])],
                     "t", "x", "y", log_y=True)
    # the zero point is dropped, leaving a single segment
    assert _series_path(svg).count("L") == 1


def test_write_chart_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    series = [("s", [1.0, 2.0], [3.0, 1.5])]
    write_chart(str(p1), series, "t", "x", "y")
    write_chart(str(p2), series, "t", "x", "y")
    assert p1.read_bytes() == p2.read_bytes()
