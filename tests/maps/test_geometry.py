"""Tests for 2-D geometry primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maps import (
    Polygon,
    euclidean,
    point_segment_distance,
    rectangle,
    regular_polygon,
    segments_intersect,
)
from repro.maps.geometry import segment_distances


class TestBasics:
    def test_euclidean(self):
        assert euclidean((0, 0), (3, 4)) == pytest.approx(5.0)

    def test_point_segment_distance_perpendicular(self):
        assert point_segment_distance((0, 1), (-1, 0), (1, 0)) == pytest.approx(1.0)

    def test_point_segment_distance_beyond_endpoint(self):
        assert point_segment_distance((3, 4), (0, 0), (0, 1)) == pytest.approx(
            euclidean((3, 4), (0, 1)))

    def test_point_segment_distance_degenerate_segment(self):
        assert point_segment_distance((1, 1), (0, 0), (0, 0)) == pytest.approx(np.sqrt(2))


class TestSegmentIntersection:
    def test_crossing(self):
        assert segments_intersect((0, 0), (2, 2), (0, 2), (2, 0))

    def test_parallel_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (0, 1), (1, 1))

    def test_collinear_overlapping(self):
        assert segments_intersect((0, 0), (2, 0), (1, 0), (3, 0))

    def test_collinear_disjoint(self):
        assert not segments_intersect((0, 0), (1, 0), (2, 0), (3, 0))

    def test_touching_endpoints(self):
        assert segments_intersect((0, 0), (1, 1), (1, 1), (2, 0))

    def test_t_junction(self):
        assert segments_intersect((0, 0), (2, 0), (1, -1), (1, 0))


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([(0, 0), (1, 1)])

    def test_contains_interior_and_exterior(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        assert square.contains((0, 0))
        assert square.contains((0.9, 0.9))
        assert not square.contains((1.5, 0))
        assert not square.contains((0, -2))

    def test_contains_boundary(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        assert square.contains((1.0, 0.0))
        assert square.contains((1.0, 1.0))  # corner

    def test_contains_concave(self):
        # L-shaped polygon.
        poly = Polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert poly.contains((0.5, 1.5))
        assert not poly.contains((1.5, 1.5))

    def test_area_square(self):
        assert rectangle(5.0, 5.0, 3.0, 2.0).area == pytest.approx(6.0)

    def test_area_triangle(self):
        tri = Polygon([(0, 0), (4, 0), (0, 3)])
        assert tri.area == pytest.approx(6.0)

    def test_centroid(self):
        np.testing.assert_allclose(rectangle(3.0, 4.0, 2.0, 2.0).centroid, [3.0, 4.0])

    def test_bbox(self):
        box = rectangle(0.0, 0.0, 4.0, 2.0).bbox
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-2.0, -1.0, 2.0, 1.0)
        assert box.width == 4.0 and box.height == 2.0

    def test_bbox_expand_and_contains(self):
        box = rectangle(0.0, 0.0, 2.0, 2.0).bbox.expand(1.0)
        assert box.contains((1.9, 1.9))

    def test_intersects_segment_crossing(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        assert square.intersects_segment((-5, 0), (5, 0))

    def test_intersects_segment_endpoint_inside(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        assert square.intersects_segment((0, 0), (10, 10))

    def test_intersects_segment_miss(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        assert not square.intersects_segment((-5, 5), (5, 5))

    def test_perimeter_points_lie_on_boundary(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        pts = square.perimeter_points(25, np.random.default_rng(0))
        assert pts.shape == (25, 2)
        for p in pts:
            dist = min(point_segment_distance(p, a, b) for a, b in square.edges())
            assert dist < 1e-9

    def test_perimeter_points_zero_count(self):
        assert rectangle(0, 0, 1, 1).perimeter_points(0, np.random.default_rng(0)).shape == (0, 2)

    def test_buffered_contains(self):
        square = rectangle(0.0, 0.0, 2.0, 2.0)
        assert square.buffered_contains((1.2, 0.0), margin=0.5)
        assert not square.buffered_contains((2.0, 0.0), margin=0.5)

    def test_regular_polygon_vertices_on_circle(self):
        hexagon = regular_polygon(1.0, 2.0, 3.0, 6)
        radii = np.hypot(hexagon.vertices[:, 0] - 1.0, hexagon.vertices[:, 1] - 2.0)
        np.testing.assert_allclose(radii, np.full(6, 3.0))

    def test_rotated_rectangle_area_preserved(self):
        assert rectangle(0, 0, 3, 2, angle=0.7).area == pytest.approx(6.0)


@settings(max_examples=30, deadline=None)
@given(st.floats(-50, 50), st.floats(-50, 50),
       st.floats(1.0, 20.0), st.floats(1.0, 20.0),
       st.floats(0, np.pi))
def test_rectangle_contains_its_centre(cx, cy, w, h, angle):
    assert rectangle(cx, cy, w, h, angle).contains((cx, cy))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 10), st.floats(1.0, 10.0))
def test_regular_polygon_contains_centroid_and_area_positive(sides, radius):
    poly = regular_polygon(0.0, 0.0, radius, sides)
    assert poly.contains((0.0, 0.0))
    assert poly.area > 0


@settings(max_examples=30, deadline=None)
@given(st.floats(-10, 10), st.floats(-10, 10),
       st.floats(-10, 10), st.floats(-10, 10))
def test_point_segment_distance_symmetry(ax, ay, bx, by):
    p = (1.0, 2.0)
    d1 = point_segment_distance(p, (ax, ay), (bx, by))
    d2 = point_segment_distance(p, (bx, by), (ax, ay))
    assert d1 == pytest.approx(d2, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_segments_intersect_symmetric(ax, ay, bx, by):
    s1 = ((ax, ay), (bx, by))
    s2 = ((0.0, 0.0), (1.0, 1.0))
    assert segments_intersect(*s1, *s2) == segments_intersect(*s2, *s1)


def test_segment_distances_equal_the_scalar_distance_bitwise():
    """The one-pass distance is point_segment_distance's float, bit for
    bit, including degenerate segments (campus building placement
    compares it against a margin, so a last-bit change could move a
    building)."""
    rng = np.random.default_rng(3)
    segments = rng.uniform(0.0, 1700.0, size=(200, 4))
    segments[::23, 2:] = segments[::23, :2]
    for point in rng.uniform(0.0, 1700.0, size=(100, 2)):
        want = [point_segment_distance(point, s[:2], s[2:]) for s in segments]
        assert segment_distances(point, segments).tolist() == want
