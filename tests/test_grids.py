import numpy as np
import pytest

from relsemi.errors import ConfigError, InvalidInput, MaskTouchesBoundary
from relsemi.grids import (
    Box,
    DomainMask,
    Grid,
    disk,
    grid_from_spec,
    halfplane,
    inscribed_polygon,
    mask_from_shapes,
    mask_from_spec,
    polygon,
    shape_contains,
    slit,
)


def test_grid_spacing_and_coords():
    g = Grid(3, Box((0.0, 0.0), 1.0))
    assert g.h == 0.5
    assert g.n_nodes == 9
    pts = g.node_coords()
    assert pts.shape == (9, 2)
    assert np.allclose(pts[g.flat_index(0, 2)], [-0.5, 0.5])
    assert np.allclose(pts[g.flat_index(2, 0)], [0.5, -0.5])


def test_grid_validation():
    with pytest.raises(InvalidInput):
        Grid(0)
    with pytest.raises(InvalidInput):
        Box((0.0, 0.0), -1.0)


def test_disk_contains_is_strict():
    sh = disk((0.0, 0.0), 0.5)
    pts = np.array([[0.0, 0.0], [0.49, 0.0], [0.5, 0.0], [0.6, 0.0]])
    assert shape_contains(sh, pts).tolist() == [True, True, False, False]
    with pytest.raises(InvalidInput):
        disk((0, 0), 0.0)


def test_polygon_even_odd_concave():
    # L-shape: the notch at (1.5, 1.5) is outside
    sh = polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
    pts = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, 1.5], [1.5, 1.5], [2.5, 0.5]])
    assert shape_contains(sh, pts).tolist() == [True, True, True, False, False]
    with pytest.raises(InvalidInput):
        polygon([(0, 0), (1, 1)])


def test_halfplane_orientation():
    sh = halfplane((0.0, 0.0), (1.0, 0.0))
    pts = np.array([[-0.1, 5.0], [0.1, -5.0]])
    assert shape_contains(sh, pts).tolist() == [True, False]


def test_slit_capsule_distance():
    sh = slit((0.0, 0.0), (0.5, 0.0), width=0.2)
    pts = np.array([[0.25, 0.05], [0.25, 0.15], [-0.05, 0.0], [-0.15, 0.0],
                    [0.55, 0.095]])  # cap distance sqrt(.05^2+.095^2) > 0.1
    want = [True, False, True, False, False]
    assert shape_contains(sh, pts).tolist() == want


def test_unknown_shape_kind():
    with pytest.raises(ConfigError):
        shape_contains({"kind": "blob"}, np.zeros((1, 2)))


@pytest.mark.parametrize("shape", [disk((0, 0), 0.5), polygon([(0, 0), (1, 0), (0, 1)]),
                                   halfplane((0, 0), (1, 0)), slit((0, 0), (1, 0), 0.1)])
def test_shape_keys_are_checked_per_kind(shape):
    pts = np.zeros((1, 2))
    shape_contains(shape, pts)  # each constructor's keys are exactly its kind's
    with pytest.raises(ConfigError, match="extra: unknown key"):
        shape_contains({**shape, "extra": 1.0}, pts)
    with pytest.raises(ConfigError, match="not a JSON object"):
        shape_contains(list(shape.values()), pts)


def test_inscribed_polygon_inside_disk():
    g = Grid(21)
    d = mask_from_shapes(g, [disk((0.0, 0.0), 0.7)])
    p = mask_from_shapes(g, [inscribed_polygon((0.0, 0.0), 0.7, 12)])
    assert np.all(~p.values | d.values)  # polygon mask subset of disk mask
    assert p.node_count < d.node_count


def test_mask_boundary_margin_enforced():
    g = Grid(5)
    with pytest.raises(MaskTouchesBoundary):
        mask_from_shapes(g, [disk((0.0, 0.0), 0.95)])
    with pytest.raises(InvalidInput):
        DomainMask(g, np.ones(7, dtype=bool))


@pytest.fixture
def block_mask():
    # 3x3 block centered in a 5x5 grid
    g = Grid(5)
    v = np.zeros((5, 5), dtype=bool)
    v[1:4, 1:4] = True
    return DomainMask(g, v.ravel(), label="block")


def test_mask_counts_and_boundary(block_mask):
    assert block_mask.node_count == 9
    bd = block_mask.boundary_nodes()
    assert int(np.count_nonzero(bd)) == 8  # ring of the block
    sq = bd.reshape(5, 5)
    assert not sq[2, 2]  # center is interior


def test_mask_closure_grows_by_one(block_mask):
    cl = block_mask.closure()
    assert int(np.count_nonzero(cl)) == 9 + 12
    assert np.all(~block_mask.values | cl)


def test_interior_margin_shrinks(block_mask):
    m0 = block_mask.interior_margin(0)
    m1 = block_mask.interior_margin(1)
    m2 = block_mask.interior_margin(2)
    assert np.array_equal(m0, block_mask.values)
    assert int(np.count_nonzero(m1)) == 1  # just the center
    assert int(np.count_nonzero(m2)) == 0
    with pytest.raises(InvalidInput):
        block_mask.interior_margin(-1)


def test_mask_ops_compose():
    g = Grid(15)
    big = disk((0.0, 0.0), 0.7)
    small = disk((0.0, 0.0), 0.35)
    left = halfplane((0.0, 0.0), (1.0, 0.0))
    annulus = mask_from_shapes(g, [big, small], ops=["difference"])
    assert annulus.node_count > 0
    inner = mask_from_shapes(g, [small])
    assert not np.any(annulus.values & inner.values)
    half_disk = mask_from_shapes(g, [big, left], ops=["intersect"])
    full = mask_from_shapes(g, [small, big], ops=["union"])
    assert half_disk.node_count < full.node_count
    assert full.node_count == mask_from_shapes(g, [big]).node_count


def test_mask_ops_validation():
    g = Grid(9)
    with pytest.raises(ConfigError):
        mask_from_shapes(g, [])
    with pytest.raises(ConfigError):
        mask_from_shapes(g, [disk((0, 0), 0.3)], ops=["union"])
    with pytest.raises(ConfigError):
        mask_from_shapes(g, [disk((0, 0), 0.3), disk((0, 0), 0.2)], ops=["xor"])


def test_specs_round_trip():
    g = grid_from_spec({"m": 9, "box": {"center": (0.5, 0.0), "half_width": 2.0}})
    assert g.m == 9 and g.box.half_width == 2.0
    mask = mask_from_spec({
        "grid": {"m": 9},
        "shape": {"kind": "disk", "center": [0.0, 0.0], "radius": 0.5},
        "label": "d",
    })
    assert mask.label == "d" and mask.node_count > 0
    with pytest.raises(ConfigError):
        mask_from_spec({"grid": {"m": 9}})
    with pytest.raises(ConfigError):
        grid_from_spec({"m": "not-a-number"})
    with pytest.raises(ConfigError, match="halfwidth: unknown key"):
        grid_from_spec({"m": 9, "box": {"halfwidth": 2.0}})
