"""Deterministic CSV/JSON/SVG emission for experiment runs.

Identical inputs must produce byte-identical files: floats are written in
shortest round-trip form, JSON keys are sorted, nothing embeds timestamps
or machine identity, and files land atomically (temp + rename) so a
crashed run never leaves a half-written artifact.  CSV tables are given
column-wise and streamed to the temp file in blocks of ``CSV_BLOCK`` rows,
so a long table is never held as one Python object per cell or as one
string; the temp + rename is the same.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import InvalidInput


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return f"{c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}j"
    return str(value)


def _replace_atomically(path: str, chunks):
    """Write the text chunks to a temp file beside ``path``, then rename it over.

    Whatever goes wrong before the rename (a failing chunk iterator
    included) removes the temp file and leaves ``path`` as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write(path: str, text: str):
    """Replace ``path`` with ``text`` through a temp file and a rename."""
    _replace_atomically(path, (text,))


CSV_BLOCK = 4096  # rows formatted per chunk; bounds the text held while writing


def _format_cells(col) -> list:
    """The cells of one column block, as :func:`_fmt` writes them.

    Float64, integer and bool arrays are converted a whole block at a time;
    anything else goes through :func:`_fmt` cell by cell.
    """
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            return list(map(repr, col.tolist()))
        if col.dtype.kind in "iu":
            return list(map(str, col.tolist()))
        if col.dtype.kind == "b":
            return ["true" if v else "false" for v in col.tolist()]
    return [_fmt(v) for v in col]


def _csv_chunks(names, columns):
    """CSV text in chunks: a '#'-prefixed schema line, the header, the rows.

    ``columns`` holds one 1-D array or list per name, all of one length.
    """
    cols = [c if isinstance(c, np.ndarray) else list(c) for c in columns]
    if len(cols) != len(names):
        raise InvalidInput("column count does not match the declared names")
    if any(np.ndim(c) != 1 for c in cols if isinstance(c, np.ndarray)):
        raise InvalidInput("CSV columns must be one-dimensional")
    n_rows = len(cols[0]) if cols else 0
    if any(len(c) != n_rows for c in cols):
        raise InvalidInput("columns differ in length")
    yield f"# schema: {', '.join(names)}\n{','.join(names)}\n"
    for start in range(0, n_rows, CSV_BLOCK):
        cells = [_format_cells(c[start:start + CSV_BLOCK]) for c in cols]
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


def render_csv(names, columns) -> str:
    """CSV text of ``columns`` (one 1-D array or list per name)."""
    return "".join(_csv_chunks(names, columns))


def write_csv(path, names, columns):
    """Stream :func:`render_csv`'s text to ``path``, atomically."""
    _replace_atomically(path, _csv_chunks(names, columns))


def sanitize(obj):
    """Recursive conversion to strict-JSON-safe plain data.

    Non-finite floats become strings, complex numbers become ``{re, im}``
    objects, numpy containers become lists.
    """
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isfinite(v):
            return v
        return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": sanitize(obj.real), "im": sanitize(obj.imag)}
    return obj


def render_json(obj) -> str:
    return json.dumps(sanitize(obj), sort_keys=True, indent=2) + "\n"


def write_json(path, obj):
    atomic_write(path, render_json(obj))


def vector_to_json(vec) -> dict:
    vec = np.asarray(vec)
    return {"values_real": [float(v) for v in np.real(vec)],
            "values_imag": [float(v) for v in np.imag(vec)]}


def vector_from_json(obj) -> np.ndarray:
    try:
        re = np.asarray(obj["values_real"], dtype=float)
        im = np.asarray(obj.get("values_imag", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"bad vector JSON: {exc}") from exc
    if re.shape != im.shape or re.ndim != 1:
        raise InvalidInput("vector JSON parts disagree in shape")
    return re + 1j * im if np.any(im) else re


# -- static SVG charts ----------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
            "#17becf", "#7f7f7f")


def _svg_num(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float):
    """About five round tick values covering ``[lo, hi]``."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    while v <= hi + step * 1e-9:
        vals.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return vals or [lo]


def line_chart(series, title: str, xlabel: str, ylabel: str,
               log_y: bool = False) -> str:
    """Static 640 x 420 SVG line chart; ``series`` is a list of (label, xs, ys).

    Non-finite points are dropped per series.  With ``log_y`` the y-axis is
    log10 (all plotted values must be positive; nonpositive points are
    dropped as well).
    """
    if not series:
        raise InvalidInput("empty chart")
    clean = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log_y:
            keep &= ys > 0
        clean.append((str(label), xs[keep], ys[keep]))
    pts_x = np.concatenate([c[1] for c in clean]) if clean else np.array([0.0])
    pts_y = np.concatenate([c[2] for c in clean]) if clean else np.array([0.0])
    if pts_x.size == 0:
        pts_x, pts_y = np.array([0.0, 1.0]), np.array([0.0, 1.0])
    ty = np.log10(pts_y) if log_y else pts_y
    x_lo, x_hi = float(pts_x.min()), float(pts_x.max())
    y_lo, y_hi = float(ty.min()), float(ty.max())
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 40, 55

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        y = math.log10(y) if log_y else y
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
           f'height="{height}" viewBox="0 0 {width} {height}">',
           f'<rect width="{width}" height="{height}" fill="white"/>',
           f'<text x="{width // 2}" y="22" text-anchor="middle" '
           f'font-family="sans-serif" font-size="15">{title}</text>']
    axis = (f'M {left} {top} L {left} {height - bottom} '
            f'L {width - right} {height - bottom}')
    out.append(f'<path d="{axis}" stroke="black" fill="none"/>')
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{_svg_num(px)}" y1="{height - bottom}" '
                   f'x2="{_svg_num(px)}" y2="{height - bottom + 5}" stroke="black"/>')
        out.append(f'<text x="{_svg_num(px)}" y="{height - bottom + 18}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{tx:.4g}</text>')
    for tv in _ticks(y_lo, y_hi):
        py = height - bottom - (tv - y_lo) / (y_hi - y_lo) * (height - top - bottom)
        lab = f"1e{tv:.3g}" if log_y else f"{tv:.4g}"
        out.append(f'<line x1="{left - 5}" y1="{_svg_num(py)}" x2="{left}" '
                   f'y2="{_svg_num(py)}" stroke="black"/>')
        out.append(f'<text x="{left - 8}" y="{_svg_num(py + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{lab}</text>')
    out.append(f'<text x="{(left + width - right) // 2}" y="{height - 12}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{xlabel}</text>')
    out.append(f'<text x="18" y="{(top + height - bottom) // 2}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 18 {(top + height - bottom) // 2})">'
               f'{ylabel}</text>')
    for k, (label, xs, ys) in enumerate(clean):
        if xs.size == 0:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        path = " ".join(f"{'M' if j == 0 else 'L'} {_svg_num(sx(x))} "
                        f"{_svg_num(sy(y))}" for j, (x, y) in enumerate(zip(xs, ys)))
        out.append(f'<path d="{path}" stroke="{color}" fill="none" '
                   f'stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{_svg_num(sx(x))}" cy="{_svg_num(sy(y))}" '
                       f'r="2.4" fill="{color}"/>')
        ly = top + 14 + 16 * k
        out.append(f'<line x1="{width - right - 130}" y1="{ly - 4}" '
                   f'x2="{width - right - 110}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{width - right - 104}" y="{ly}" '
                   f'font-family="sans-serif" font-size="11">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_chart(path, series, title, xlabel, ylabel, log_y=False):
    atomic_write(path, line_chart(series, title, xlabel, ylabel, log_y=log_y))
