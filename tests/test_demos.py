"""Built-in demo sets."""

from fractions import Fraction as F

import pytest

from accumgraph.demos import (
    UnknownDemoError,
    demo_set,
    sect6_c_order,
    sect6_pole_points,
    truncation_notice,
)
from accumgraph.geometry import Hyper


def test_constant_is_single_piece():
    assert len(demo_set("constant").pieces) == 1


def test_square_and_hyperbola_shapes():
    assert len(demo_set("square").pieces) == 1
    h = demo_set("hyperbola").pieces[0]
    assert isinstance(h, Hyper) and h.excluded_pole == 0


def test_sect6_piece_count_and_values():
    depth = 4
    t = demo_set("sect6", depth)
    # Two arcs per gap between consecutive pole points.
    assert len(t.pieces) == 2 * depth
    poles = sect6_pole_points(depth)
    for a, b in zip(poles, poles[1:]):
        mid = (a + b) / 2
        for x in (a + (b - a) / 8, mid, b - (b - a) / 8):
            d = min(x - a, b - x)
            assert set(t.bands_at(x)) == {(-1 / d, -1 / d)}, f"x={x}"


def test_sect6_c_order_is_classical():
    order = sect6_c_order(4)
    assert order == [F(0), F(1), F(1, 2), F(1, 3), F(1, 4)]
    assert set(order) == set(sect6_pole_points(4))


def test_unknown_demo():
    with pytest.raises(UnknownDemoError):
        demo_set("pentagon")


def test_truncation_notice_only_for_sect6():
    assert truncation_notice("sect6", 5)
    assert truncation_notice("square", 5) is None
