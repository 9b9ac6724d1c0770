"""2-D computational geometry primitives for the campus simulator.

Everything works on plain ``(x, y)`` tuples / numpy arrays; the only class
is :class:`Polygon`, used for building footprints (UAV obstacles).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Polygon",
    "BoundingBox",
    "euclidean",
    "segments_intersect",
    "point_segment_distance",
    "segment_distances",
    "rectangle",
    "regular_polygon",
]


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    """Straight-line distance between two points."""
    ax, ay = float(a[0]), float(a[1])
    bx, by = float(b[0]), float(b[1])
    return float(np.hypot(ax - bx, ay - by))


def _orientation(p: Sequence[float], q: Sequence[float], r: Sequence[float]) -> int:
    """Return 0 (collinear), 1 (clockwise) or -1 (counter-clockwise)."""
    val = (q[1] - p[1]) * (r[0] - q[0]) - (q[0] - p[0]) * (r[1] - q[1])
    if abs(val) < 1e-12:
        return 0
    return 1 if val > 0 else -1


def _on_segment(p: Sequence[float], q: Sequence[float], r: Sequence[float]) -> bool:
    """Whether collinear point ``q`` lies on segment ``pr``."""
    return (min(p[0], r[0]) - 1e-12 <= q[0] <= max(p[0], r[0]) + 1e-12
            and min(p[1], r[1]) - 1e-12 <= q[1] <= max(p[1], r[1]) + 1e-12)


def segments_intersect(p1, q1, p2, q2) -> bool:
    """Whether segments ``p1q1`` and ``p2q2`` intersect (inclusive)."""
    o1 = _orientation(p1, q1, p2)
    o2 = _orientation(p1, q1, q2)
    o3 = _orientation(p2, q2, p1)
    o4 = _orientation(p2, q2, q1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, q2, q1):
        return True
    if o3 == 0 and _on_segment(p2, p1, q2):
        return True
    if o4 == 0 and _on_segment(p2, q1, q2):
        return True
    return False


def point_segment_distance(point, seg_a, seg_b) -> float:
    """Shortest distance from ``point`` to segment ``seg_a``-``seg_b``."""
    p = np.asarray(point, dtype=float)
    a = np.asarray(seg_a, dtype=float)
    b = np.asarray(seg_b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom < 1e-18:
        return euclidean(p, a)
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    closest = a + t * ab
    return euclidean(p, closest)


def segment_distances(point, segments: np.ndarray) -> np.ndarray:
    """Distance from ``point`` to each ``[ax, ay, bx, by]`` row of ``segments``.

    One numpy pass with :func:`point_segment_distance`'s arithmetic, bit
    for bit: the clipped projection, then ``hypot``.  Both dot products
    are stacked ``(1, 2) @ (2, 1)`` matmuls, which numpy runs through the
    same ``dot`` kernel as the scalar ``ab @ ab`` (BLAS ``ddot`` may fuse
    the multiply-add, so a plain ``x0*y0 + x1*y1`` can differ in the last
    bit).  A degenerate segment measures to its first end, as there.
    """
    p = np.asarray(point, dtype=float)
    a = segments[:, :2]
    ab = segments[:, 2:] - a
    denom = np.matmul(ab[:, None, :], ab[:, :, None])[:, 0, 0]
    along = np.matmul((p - a)[:, None, :], ab[:, :, None])[:, 0, 0]
    degenerate = denom < 1e-18
    t = np.clip(along / np.where(degenerate, 1.0, denom), 0.0, 1.0)
    t[degenerate] = 0.0
    closest = a + t[:, None] * ab
    return np.hypot(p[0] - closest[:, 0], p[1] - closest[:, 1])


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    def contains(self, point: Sequence[float]) -> bool:
        x, y = float(point[0]), float(point[1])
        return self.min_x <= x <= self.max_x and self.min_y <= y <= self.max_y

    def expand(self, margin: float) -> "BoundingBox":
        return BoundingBox(self.min_x - margin, self.min_y - margin,
                           self.max_x + margin, self.max_y + margin)


@dataclass
class Polygon:
    """Simple polygon given by its vertex ring (no holes).

    Used for building footprints.  Supports containment tests (ray
    casting), segment intersection (UAV path vs obstacle), and sampling
    perimeter points (sensor placement on building walls).
    """

    vertices: np.ndarray
    _bbox: BoundingBox | None = field(default=None, repr=False, compare=False)

    def __init__(self, vertices: Iterable[Sequence[float]]):
        verts = np.asarray(list(vertices), dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("Polygon needs >= 3 (x, y) vertices")
        self.vertices = verts
        self._bbox = None

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def bbox(self) -> BoundingBox:
        if self._bbox is None:
            xs, ys = self.vertices[:, 0], self.vertices[:, 1]
            self._bbox = BoundingBox(float(xs.min()), float(ys.min()),
                                     float(xs.max()), float(ys.max()))
        return self._bbox

    @property
    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    @property
    def area(self) -> float:
        """Shoelace area (absolute value)."""
        x, y = self.vertices[:, 0], self.vertices[:, 1]
        return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0)

    def edges(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        verts = self.vertices
        for i in range(len(verts)):
            yield verts[i], verts[(i + 1) % len(verts)]

    def contains(self, point: Sequence[float]) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        if not self.bbox.contains(point):
            return False
        x, y = float(point[0]), float(point[1])
        inside = False
        verts = self.vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            xi, yi = verts[i]
            xj, yj = verts[j]
            # Boundary check first.
            if point_segment_distance((x, y), (xi, yi), (xj, yj)) < 1e-9:
                return True
            if (yi > y) != (yj > y):
                x_cross = (xj - xi) * (y - yi) / (yj - yi) + xi
                if x < x_cross:
                    inside = not inside
            j = i
        return inside

    def intersects_segment(self, a: Sequence[float], b: Sequence[float]) -> bool:
        """Whether the open path a->b crosses or enters this polygon."""
        if not self.bbox.expand(1e-9).contains(a) and not self.bbox.expand(1e-9).contains(b):
            # Cheap reject only if the segment bbox misses the polygon bbox.
            seg_box = BoundingBox(min(a[0], b[0]), min(a[1], b[1]),
                                  max(a[0], b[0]), max(a[1], b[1]))
            if (seg_box.max_x < self.bbox.min_x or seg_box.min_x > self.bbox.max_x
                    or seg_box.max_y < self.bbox.min_y or seg_box.min_y > self.bbox.max_y):
                return False
        if self.contains(a) or self.contains(b):
            return True
        return any(segments_intersect(a, b, e0, e1) for e0, e1 in self.edges())

    def perimeter_points(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``count`` points uniformly along the polygon perimeter."""
        if count <= 0:
            return np.zeros((0, 2))
        edges = list(self.edges())
        lengths = np.array([euclidean(a, b) for a, b in edges])
        total = lengths.sum()
        offsets = np.sort(rng.uniform(0.0, total, size=count))
        points = []
        cumulative = np.concatenate([[0.0], np.cumsum(lengths)])
        for off in offsets:
            idx = int(np.searchsorted(cumulative, off, side="right") - 1)
            idx = min(idx, len(edges) - 1)
            a, b = edges[idx]
            frac = (off - cumulative[idx]) / max(lengths[idx], 1e-12)
            points.append(a + frac * (b - a))
        return np.asarray(points)

    def buffered_contains(self, point: Sequence[float], margin: float) -> bool:
        """Containment with a safety margin around the footprint."""
        if self.contains(point):
            return True
        return any(point_segment_distance(point, a, b) <= margin for a, b in self.edges())


def rectangle(cx: float, cy: float, width: float, height: float, angle: float = 0.0) -> Polygon:
    """Axis-aligned (or rotated) rectangle centred at (cx, cy)."""
    hw, hh = width / 2.0, height / 2.0
    corners = np.array([[-hw, -hh], [hw, -hh], [hw, hh], [-hw, hh]])
    if angle:
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        corners = corners @ rot.T
    return Polygon(corners + np.array([cx, cy]))


def regular_polygon(cx: float, cy: float, radius: float, sides: int, phase: float = 0.0) -> Polygon:
    """Regular polygon used for non-rectangular building footprints."""
    angles = phase + np.linspace(0.0, 2.0 * np.pi, sides, endpoint=False)
    pts = np.column_stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)])
    return Polygon(pts)
