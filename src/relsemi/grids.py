"""Lattice boxes, domain masks, and constructive mask geometry.

The computational box is an axis-aligned square with ``m`` interior nodes
per axis (spacing ``h = side / (m + 1)``).  A domain is a boolean mask on
those ``m^2`` nodes; the outermost ring of interior nodes must stay off so
that the closed domain sits strictly inside the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInput, MaskTouchesBoundary


@dataclass(frozen=True)
class Box:
    center: tuple = (0.0, 0.0)
    half_width: float = 1.0

    def __post_init__(self):
        if self.half_width <= 0:
            raise InvalidInput("box half-width must be positive")


@dataclass(frozen=True)
class Grid:
    """Interior lattice of a square box: ``m`` nodes per axis."""

    m: int
    box: Box = Box()

    def __post_init__(self):
        if self.m < 1:
            raise InvalidInput("grid needs at least one interior node per axis")

    @property
    def h(self) -> float:
        return 2.0 * self.box.half_width / (self.m + 1)

    @property
    def n_nodes(self) -> int:
        return self.m * self.m

    def node_coords(self) -> np.ndarray:
        """All node coordinates, shape (m*m, 2), row-major in (ix, iy)."""
        cx, cy = self.box.center
        xs = cx - self.box.half_width + self.h * (np.arange(self.m) + 1)
        ys = cy - self.box.half_width + self.h * (np.arange(self.m) + 1)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])

    def flat_index(self, ix: int, iy: int) -> int:
        return ix * self.m + iy


# -- shapes -------------------------------------------------------------------


def disk(center, radius) -> dict:
    if radius <= 0:
        raise InvalidInput("disk radius must be positive")
    return {"kind": "disk", "center": list(map(float, center)), "radius": float(radius)}


def polygon(vertices) -> dict:
    vs = [list(map(float, v)) for v in vertices]
    if len(vs) < 3:
        raise InvalidInput("polygon needs at least 3 vertices")
    return {"kind": "polygon", "vertices": vs}


def halfplane(point, normal) -> dict:
    return {"kind": "halfplane", "point": list(map(float, point)),
            "normal": list(map(float, normal))}


def slit(p0, p1, width) -> dict:
    """Thin capsule around the segment from ``p0`` to ``p1``."""
    if width <= 0:
        raise InvalidInput("slit width must be positive")
    return {"kind": "slit", "p0": list(map(float, p0)), "p1": list(map(float, p1)),
            "width": float(width)}


def inscribed_polygon(center, radius, sides: int, phase: float = 0.0) -> dict:
    """Regular polygon inscribed in the circle (an inner approximation)."""
    if sides < 3:
        raise InvalidInput("polygon needs at least 3 sides")
    angles = phase + 2.0 * np.pi * np.arange(sides) / sides
    verts = [(center[0] + radius * np.cos(a), center[1] + radius * np.sin(a))
             for a in angles]
    return polygon(verts)


def shape_contains(shape: dict, pts: np.ndarray) -> np.ndarray:
    """Vectorized inside test for one shape spec on an (n, 2) point array."""
    kind = require_object(shape, "shape").get("kind")
    if kind not in SHAPE_KEYS:
        raise ConfigError(f"unknown shape kind {kind!r}", field="shape.kind")
    check_keys(shape, SHAPE_KEYS[kind], f"{kind} shape", "")
    missing = [key for key in SHAPE_KEYS[kind] if key not in shape]
    if missing:
        raise ConfigError(f"missing from {kind} shape", field=missing[0])
    x, y = pts[:, 0], pts[:, 1]
    if kind == "disk":
        cx, cy = shape["center"]
        return (x - cx) ** 2 + (y - cy) ** 2 < shape["radius"] ** 2
    if kind == "polygon":
        return _polygon_contains(np.asarray(shape["vertices"], dtype=float), pts)
    if kind == "halfplane":
        px, py = shape["point"]
        nx, ny = shape["normal"]
        return (x - px) * nx + (y - py) * ny < 0.0
    p0 = np.asarray(shape["p0"], dtype=float)
    p1 = np.asarray(shape["p1"], dtype=float)
    return _segment_distance(pts, p0, p1) <= shape["width"] / 2.0


def _polygon_contains(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    # even-odd ray casting; boundary points count as outside nondeterministically,
    # which is immaterial on a lattice in general position
    n = len(verts)
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        hit = crosses & (x < xin)
        inside ^= hit
    return inside


def _segment_distance(pts: np.ndarray, p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    d = p1 - p0
    denom = float(d @ d)
    if denom == 0.0:
        return np.linalg.norm(pts - p0, axis=1)
    t = np.clip(((pts - p0) @ d) / denom, 0.0, 1.0)
    proj = p0 + t[:, None] * d
    return np.linalg.norm(pts - proj, axis=1)


# -- masks --------------------------------------------------------------------


@dataclass(frozen=True)
class DomainMask:
    """Boolean node mask with the mandatory one-node boundary margin."""

    grid: Grid
    values: np.ndarray  # flat, length m*m
    label: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=bool)
        if v.shape != (self.grid.n_nodes,):
            raise InvalidInput("mask length does not match the grid")
        ring = self.as_square(v)
        if ring[0, :].any() or ring[-1, :].any() or ring[:, 0].any() or ring[:, -1].any():
            raise MaskTouchesBoundary(
                "mask must leave the outermost ring of interior nodes empty")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def as_square(self, v=None) -> np.ndarray:
        v = self.values if v is None else v
        return np.asarray(v).reshape(self.grid.m, self.grid.m)

    @property
    def node_count(self) -> int:
        return int(np.count_nonzero(self.values))

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.values)

    def boundary_nodes(self) -> np.ndarray:
        """Mask nodes with at least one 4-neighbor off the mask."""
        sq = self.as_square()
        pad = np.pad(sq, 1, constant_values=False)
        nb_all = (pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:])
        return (sq & ~nb_all).ravel()

    def closure(self) -> np.ndarray:
        """Mask nodes together with their 4-neighbors (a discrete closure)."""
        sq = self.as_square()
        pad = np.pad(sq, 1, constant_values=False)
        grown = (pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]) | sq
        return grown.ravel()

    def interior_margin(self, margin: int) -> np.ndarray:
        """Mask nodes at lattice distance >= margin from the node boundary."""
        if margin < 0:
            raise InvalidInput("margin must be nonnegative")
        reached = self.boundary_nodes().reshape(self.grid.m, self.grid.m)
        inside = self.as_square()
        for _ in range(margin - 1):
            pad = np.pad(reached, 1, constant_values=False)
            reached = reached | pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]
            reached &= inside
        if margin == 0:
            return inside.ravel()
        return (inside & ~reached).ravel()


def mask_from_shapes(grid: Grid, shapes, ops=None, label: str = "") -> DomainMask:
    """Combine shape specs into a mask: start from the first shape, then
    apply ``ops[k]`` (union / difference / intersect) with ``shapes[k+1]``."""
    shapes = list(shapes)
    if not shapes:
        raise ConfigError("need at least one shape", field="shape")
    if ops is None:
        ops = ["union"] * (len(shapes) - 1)
    if len(ops) != len(shapes) - 1:
        raise ConfigError("need exactly len(shapes) - 1 ops", field="ops")
    pts = grid.node_coords()
    acc = shape_contains(shapes[0], pts)
    for op, sh in zip(ops, shapes[1:]):
        cur = shape_contains(sh, pts)
        if op == "union":
            acc = acc | cur
        elif op == "difference":
            acc = acc & ~cur
        elif op == "intersect":
            acc = acc & cur
        else:
            raise ConfigError(f"unknown op {op!r}", field="ops")
    return DomainMask(grid, acc, label=label)


def grid_from_spec(spec: dict) -> Grid:
    """Build a grid from a JSON-style dict: ``{m, box?: {center?, half_width?}}``."""
    check_keys(spec, {"m": (lambda v: is_count(v) and v >= 1, "a positive integer"),
                      "box": None}, "grid spec", "")
    if "m" not in spec:
        raise ConfigError("missing from grid spec", field="m")
    box = spec.get("box", {})
    check_keys(box, {"center": POINT, "half_width": POSITIVE}, "grid box", "")
    return Grid(spec["m"], Box(tuple(box.get("center", (0.0, 0.0))),
                               float(box.get("half_width", 1.0))))


def require_object(value, where: str) -> dict:
    """``value`` itself if it is a dict (a JSON object), else :class:`ConfigError`."""
    if not isinstance(value, dict):
        raise ConfigError(f"not a JSON object (got {type(value).__name__})", field=where)
    return value


def check_keys(spec: dict, allowed, where: str, prefix: str):
    """Raise :class:`ConfigError` naming the first key of ``spec`` not in
    ``allowed``, or whose value fails its check.

    ``allowed`` is a sequence of keys, or a table of key → ``None`` or
    ``(test, expected)``: a value with ``not test(value)`` is refused with
    ``expected`` in the message.  A ``spec`` that is not an object is
    refused too.  The error names the key after ``prefix`` (``""``, or
    ``"builder."`` to name a builder's ``radius`` as ``builder.radius``).
    """
    for key, value in require_object(spec, where).items():
        if key not in allowed:
            raise ConfigError(f"unknown key in {where} (allowed: "
                              f"{', '.join(sorted(allowed))})", field=prefix + key)
        rule = allowed[key] if isinstance(allowed, dict) else None
        if rule is not None and not rule[0](value):
            raise ConfigError(f"expected {rule[1]}, got {value!r}", field=prefix + key)


def is_count(value) -> bool:
    """A non-negative JSON integer; ``true``, ``2.0`` and ``"2"`` are not."""
    return type(value) is int and value >= 0


def is_number(value) -> bool:
    """A finite JSON number; ``true``, ``NaN`` and ``"2"`` are not."""
    return type(value) in (int, float) and math.isfinite(value)


def array_of(test):
    """A test for a JSON array (or a tuple) whose entries all pass ``test``."""
    return lambda value: isinstance(value, (list, tuple)) and all(test(v) for v in value)


def one_of(names):
    """A test for a string among ``names``."""
    return lambda value: isinstance(value, str) and value in names


# value rules of check_keys tables, and the keys each shape kind carries with
# the rule of each value; any other key or value is a configuration error
POSITIVE = (lambda v: is_number(v) and v > 0, "a positive number")
POINT = (lambda v: array_of(is_number)(v) and len(v) == 2, "a point [x, y]")
SHAPE_KEYS = {
    "disk": {"kind": None, "center": POINT, "radius": POSITIVE},
    "polygon": {"kind": None, "vertices": (lambda v: array_of(POINT[0])(v) and len(v) >= 3,
                                           "an array of at least 3 points [x, y]")},
    "halfplane": {"kind": None, "point": POINT,
                  "normal": (lambda v: POINT[0](v) and any(v), "a nonzero vector [x, y]")},
    "slit": {"kind": None, "p0": POINT, "p1": POINT, "width": POSITIVE}}


def mask_from_spec(spec: dict) -> DomainMask:
    """Build a mask from a JSON-style dict: ``{grid, shape(s), ops?, label?}``."""
    ops = ("union", "difference", "intersect")
    check_keys(spec, {"grid": None, "shape": None, "label": None,
                      "shapes": (lambda v: isinstance(v, list), "an array of shapes"),
                      "ops": (array_of(one_of(ops)), f"an array of ops from {ops}")},
               "mask spec", "")
    grid = grid_from_spec(spec.get("grid", {}))
    shapes = spec.get("shapes", spec.get("shape"))
    if shapes is None:
        raise ConfigError("missing 'shapes'", field="shapes")
    if isinstance(shapes, dict):
        shapes = [shapes]
    return mask_from_shapes(grid, shapes, spec.get("ops"),
                            label=spec.get("label", ""))
