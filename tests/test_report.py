import json
import logging
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
    _format_cells,
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


def test_fmt_signs_the_imaginary_part_as_complex_repr():
    # '+' for a NaN imaginary part whatever its sign bit, '-' for -0.0
    assert _fmt(complex(1, math.nan)) == "1.0+nanj"
    assert _fmt(complex(1, -math.nan)) == "1.0+nanj"
    assert _fmt(complex(1, -0.0)) == "1.0-0.0j"
    assert _fmt(np.complex128(complex(-0.0, -0.0))) == "-0.0-0.0j"
    assert _fmt(complex(1, 0.0)) == "1.0+0.0j"
    assert _fmt(complex(1, -math.inf)) == "1.0-infj"


@given(re=st.floats(), im=st.floats())
def test_fmt_complex_follows_repr(re, im):
    # with a real part of +0.0, repr writes the imaginary part alone
    minus = repr(complex(0.0, im)).startswith("-")
    expected = f"{re!r}{'-' if minus else '+'}{abs(im)!r}j"
    assert _fmt(complex(re, im)) == expected
    assert _fmt(np.complex128(complex(re, im))) == expected


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


def _bits(x):
    return int(np.float64(x).view(np.uint64))


# repr switches to exponent form at 1e16 and below 1e-4
_SWITCH_BITS = [_bits(s * np.nextafter(v, v * k)) for v in (1e16, 1e-4)
                for k in (0.0, 1.0, 2.0) for s in (1.0, -1.0)]
_FLOAT_BITS = st.one_of(
    st.floats(allow_subnormal=True).map(_bits),
    st.sampled_from(_SWITCH_BITS + [_bits(v) for v in _SPECIAL_FLOATS]),
    # NaNs with either sign bit and any nonzero payload
    st.tuples(st.booleans(), st.integers(1, 2 ** 52 - 1)).map(
        lambda sp: sp[0] << 63 | 0x7FF << 52 | sp[1]))


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_FLOAT_BITS, min_size=1, max_size=24),
       picks=st.lists(st.integers(0, 10 ** 6), max_size=300),
       run=st.integers(1, 6), step=st.sampled_from([1, 2, 3]))
def test_format_cells_formats_each_float_as_fmt(pool, picks, run, step):
    # a few distinct bit patterns, each repeated (in runs, which take the
    # once-per-pattern path): ±0.0, NaN signs and payloads, ±inf,
    # subnormals and repr's switch points keep their text
    bits = np.array([pool[i % len(pool)] for i in picks for _ in range(run)],
                    dtype=np.uint64)
    block = bits.view(np.float64)[::step]
    assert _format_cells(block) == [_fmt(v) for v in block]


def test_csv_of_repeated_floats_across_blocks_matches_the_rowwise_reference():
    rows = 2 * CSV_BLOCK + 5
    t = np.repeat(0.05 * np.arange(1, 21), -(-rows // 20))[:rows]
    value = np.where(np.arange(rows) % 3 == 0, 0.0, np.sin(np.arange(rows)))
    value[::7] = -0.0
    columns = [t, np.arange(rows), value]
    assert render_csv(["t", "node_index", "value"], columns) == \
        _rowwise_csv(["t", "node_index", "value"], columns)


def test_write_csv_logs_rows_and_bytes(tmp_path, caplog):
    # the bytes are summed over the streamed chunks, so they are the file's size
    rows = CSV_BLOCK + 9
    tables = {"t.csv": [np.arange(rows), np.linspace(0.0, 1.0, rows)], "e.csv": [[], []]}
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        for name, columns in tables.items():
            write_csv(str(tmp_path / name), ["a", "b"], columns)
    assert [r.getMessage() for r in caplog.records] == [
        f"csv rows={len(columns[0])} bytes={(tmp_path / name).stat().st_size}"
        for name, columns in tables.items()]


def test_heat_orbit_csv_matches_the_rowwise_reference(tmp_path, caplog):
    spec = {"grid": {"m": 32}, "label": "disk",
            "shape": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.7}}
    u0 = heatlab.bump_function(grids.Grid(32))
    (tmp_path / "mask.json").write_text(json.dumps(spec))
    write_json(str(tmp_path / "u0.json"), vector_to_json(u0))
    out = tmp_path / "orbit"
    with caplog.at_level(logging.DEBUG, logger="relsemi"):
        assert main(["heat", "orbit", "--mask", str(tmp_path / "mask.json"),
                     "--grid", "0.05:0.05:1", "--u0", str(tmp_path / "u0.json"),
                     "--out", str(out)]) == 0
    lab = heatlab.DirichletGridRelation(grids.mask_from_spec(spec))
    orbit = heatlab.heat_orbit(lab, u0, 0.05 + 0.05 * np.arange(20))  # the CLI's grid
    rows = [(float(t), node, float(orbit.states[j, node]))
            for j, t in enumerate(orbit.times) for node in range(lab.state_dim)]
    assert (out / "trajectory.csv").read_text() == \
        _rowwise_csv(["t", "node_index", "value"], list(zip(*rows)))
    # one membership check of two columns; the CSV's logged bytes are the file's
    messages = [r.getMessage() for r in caplog.records]
    assert [m for m in messages if m.startswith("graph_distance ")] == [
        f"graph_distance n={lab.n_inside} cols=2 form=residual"]
    assert [m for m in messages if m.startswith("csv ")] == [
        f"csv rows={len(rows)} bytes={(out / 'trajectory.csv').stat().st_size}"]


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
