"""Exact planar semantics over rational-coordinate polygon scenes.

A scene assigns each region variable a finite union of simple polygons
(outer ring plus hole rings, even-odd fill).  All scene segments are
overlaid exactly into a planar arrangement; the open 2-cells of that
subdivision, plus the unbounded cell, are the atoms of a finite Boolean
algebra of regular closed sets: a face set denotes the closure of the
union of its faces.  A face set is stored as an integer mask over the
faces (bit ``f`` for face ``f``), so the Boolean operations are bitwise.

The predicates reduce to face bookkeeping, and one component search
(``_components``, over per-node neighbour masks) answers every
connectivity question:

* two faces touch iff their closures share a vertex (sharing an edge
  implies sharing its endpoints), so connectedness of a face set is
  connectivity of its touch graph, and its components are that graph's;
* an arrangement edge lies in the interior of a face set iff both its
  sides do, and a vertex iff every face around it does; the vertices
  add no link that the edges do not give, so interior-connectedness is
  connectivity over two-sided edges;
* contact of two face sets is a shared face or a shared boundary vertex,
  that is a face of one that touches a face of the other;
* a component graph is a tree iff it has one edge fewer than nodes and
  one component.

This module evaluates terms and connectivity on its own on purpose: it
is the independent side of the cross-check against the quasi-saw
semantics of the model induced by an arrangement.

Scenes have exact rational coordinates.  The kernel multiplies them once
by their common denominator and from then on runs on integers: ring
validation, the overlay, the face cycles and their areas, and a
representative point per face in homogeneous integer form ``(X, Y, W)``
with ``W > 0``, which one point-in-ring test decides against integer
rings.  Exact rationals are produced only for the returned vertices and
representative points.  Nothing is ever rounded, so coincident geometry
is detected exactly and regularization (dropping lower-dimensional
intersections) is implicit in the face representation.  A scene
coordinate is an ``int`` when integral and a ``Fraction`` otherwise, the
same as the returned vertices and face points.

A face's point lies halfway along a probe from the midpoint of a boundary
edge into the face, up to the probe's first hit.  The hole cycles (one
per connected component of the edges) are probed against every edge and
assigned to the faces around them first; a bounded face is then probed
against its own boundary only, its outer cycle and its hole cycles,
because the probe stays inside the face up to that first hit, which
therefore lies on the face's boundary: both probes find the same minimum.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .quasisaw import QsModel, make_frame
from .syntax import (
    And,
    AtomF,
    Complement,
    Conn,
    Contact,
    Eq,
    Formula,
    IDENT_RE,
    IntConn,
    Not,
    One,
    Or,
    Product,
    Sum,
    Term,
    Variable,
    Zero,
)

# an exact coordinate: an int when integral, a Fraction otherwise
Rational = Union[int, Fraction]
Point = tuple[Rational, Rational]
IntPoint = tuple[int, int]


class SceneError(ValueError):
    pass


class ArrangementMismatchError(ValueError):
    pass


class UnboundRegionError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound region variable: {name}")


# ---------------------------------------------------------------------------
# Scene data model


def _as_point(xy: Sequence) -> Point:
    if not isinstance(xy, (list, tuple)) or len(xy) != 2:
        raise SceneError(f"coordinate pair expected, got {xy!r}")
    return (_rational(xy[0]), _rational(xy[1]))


_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(v) -> Rational:
    """A coordinate in its canonical exact form: an int when integral, a
    Fraction otherwise.  A string must be an integer or ``p/q`` literal."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str):
        if not _RATIONAL_RE.fullmatch(v):
            raise SceneError(f"bad rational literal {v!r}")
        try:
            v = Fraction(v)
        except ZeroDivisionError as exc:
            raise SceneError(f"bad rational literal {v!r}") from exc
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise SceneError(
        f"coordinates must be integers or 'p/q' strings, got {v!r}"
    )


@dataclass(frozen=True)
class Ring:
    vertices: tuple[Point, ...]

    def edges(self) -> list[tuple[Point, Point]]:
        n = len(self.vertices)
        return [(self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)]

    def signed_area2(self) -> Rational:
        return _area2(self.vertices)


@dataclass(frozen=True)
class Polygon:
    outer: Ring
    holes: tuple[Ring, ...] = ()

    def rings(self) -> tuple[Ring, ...]:
        return (self.outer,) + self.holes


@dataclass(frozen=True)
class PlaneScene:
    regions: tuple[tuple[str, tuple[Polygon, ...]], ...]

    @staticmethod
    def make(regions: Mapping[str, Iterable[Polygon]]) -> "PlaneScene":
        items = []
        for name in sorted(regions):
            if not IDENT_RE.match(name):
                raise SceneError(f"bad region name: {name!r}")
            items.append((name, tuple(regions[name])))
        return PlaneScene(tuple(items))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.regions)

    def polygons(self, name: str) -> tuple[Polygon, ...]:
        for n, polys in self.regions:
            if n == name:
                return polys
        raise UnboundRegionError(name)

    def with_regions(self, extra: Mapping[str, Iterable[Polygon]]) -> "PlaneScene":
        merged = {name: polys for name, polys in self.regions}
        for name, polys in extra.items():
            if name in merged:
                raise SceneError(f"region {name!r} already present in scene")
            merged[name] = tuple(polys)
        return PlaneScene.make(merged)


def rect(x0, y0, x1, y1) -> Polygon:
    """Axis-aligned rectangle polygon (a frequent building block)."""
    x0, y0, x1, y1 = map(_rational, (x0, y0, x1, y1))
    if x0 >= x1 or y0 >= y1:
        raise SceneError("rectangle needs x0 < x1 and y0 < y1")
    return Polygon(Ring(((x0, y0), (x1, y0), (x1, y1), (x0, y1))))


def ring_from(coords: Iterable[Sequence]) -> Ring:
    return Ring(tuple(_as_point(c) for c in coords))


# ---------------------------------------------------------------------------
# Exact predicates


def _cross(o: Point, a: Point, b: Point) -> Rational:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment [a, b]."""
    if _cross(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_share_point(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    return (
        (d1 == 0 and _on_segment(p1, q1, q2))
        or (d2 == 0 and _on_segment(p2, q1, q2))
        or (d3 == 0 and _on_segment(q1, p1, p2))
        or (d4 == 0 and _on_segment(q2, p1, p2))
    )


def _area2(pts: Sequence[Point]):
    """Twice the signed area of a ring, positive when counterclockwise, in
    the type of its coordinates."""
    return sum(pts[i - 1][0] * y - x * pts[i - 1][1] for i, (x, y) in enumerate(pts))


def _point_in_ring_h(x, y, w, ring: Sequence[Point]) -> bool:
    """Strict even-odd membership of the point (x/w, y/w), w > 0, in a
    ring; the point must not lie on the ring itself.  Division-free: the
    comparisons are made in coordinates multiplied by w and decided by
    sign, so integer arguments keep the test in integers."""
    inside = False
    ax, ay = ring[-1]
    ayw = ay * w
    for bx, by in ring:
        byw = by * w
        if (ayw <= y) != (byw <= y):
            # the edge crosses the horizontal through the point; it does
            # so right of it iff num/dy > 0, where num = w * dy * (crossing
            # x - x/w)
            num = (y - ayw) * (bx - ax) - (x - ax * w) * (by - ay)
            if num != 0 and (num > 0) == (by > ay):
                inside = not inside
        ax, ay, ayw = bx, by, byw
    return inside


def _point_in_rings_h(x, y, w, rings: Iterable[Sequence[Point]]) -> bool:
    """Even-odd membership in an outer ring with its hole rings."""
    parity = False
    for ring in rings:
        parity ^= _point_in_ring_h(x, y, w, ring)
    return parity


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    return _point_in_rings_h(p[0], p[1], 1, (r.vertices for r in poly.rings()))


def point_in_region(p: Point, polys: Sequence[Polygon]) -> bool:
    return any(point_in_polygon(p, poly) for poly in polys)


# ---------------------------------------------------------------------------
# Scene validation


def _validate_ring(pts: Sequence[Point], where: str) -> None:
    """Reject a ring that is not a simple closed curve.  Every decision
    is a sign, order or equality of coordinates, so a ring multiplied by
    a positive scale gets the same verdict and message."""
    n = len(pts)
    if n < 3:
        raise SceneError(f"{where}: ring needs at least 3 vertices")
    if len(set(pts)) != n:
        raise SceneError(f"{where}: ring repeats a vertex")
    if _area2(pts) == 0:
        raise SceneError(f"{where}: ring has zero area")
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        # adjacent edges may only share their common endpoint
        nxt = pts[(i + 2) % n]
        if _cross(b, a, nxt) == 0 and (nxt[0] - b[0]) * (a[0] - b[0]) + (
            nxt[1] - b[1]
        ) * (a[1] - b[1]) > 0:
            raise SceneError(f"{where}: ring folds back on itself at vertex {i + 1}")
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # adjacent around the wrap
            if _segments_share_point(a, b, pts[j], pts[(j + 1) % n]):
                raise SceneError(
                    f"{where}: ring self-intersects (edges {i} and {j})"
                )


def _on_grid(v: Point, k: int) -> IntPoint:
    """The point ``v`` multiplied by ``k``, a multiple of the denominators
    of its coordinates, as a pair of ints."""
    return (
        v[0].numerator * (k // v[0].denominator),
        v[1].numerator * (k // v[1].denominator),
    )


ScaledRegions = list[tuple[str, list[list[tuple[IntPoint, ...]]]]]


def _scaled(scene: PlaneScene) -> tuple[int, ScaledRegions]:
    """The least common multiple of the scene's coordinate denominators,
    and every ring multiplied by it: per region and polygon, the outer
    ring first."""
    scale = lcm(
        *{
            c.denominator
            for _, polys in scene.regions
            for poly in polys
            for ring in poly.rings()
            for v in ring.vertices
            for c in v
        }
    )
    return scale, [
        (
            name,
            [
                [tuple(_on_grid(v, scale) for v in ring.vertices) for ring in poly.rings()]
                for poly in polys
            ],
        )
        for name, polys in scene.regions
    ]


def validate_scene(scene: PlaneScene) -> tuple[int, ScaledRegions]:
    """Reject a scene with a ring that is not simple; return the scene
    scaled to integers, as :func:`_scaled` gives it."""
    scale, regions = _scaled(scene)
    for name, polys in regions:
        for pi, rings in enumerate(polys):
            for ri, ring in enumerate(rings):
                kind = "outer ring" if ri == 0 else f"hole ring {ri - 1}"
                _validate_ring(ring, f"region {name}, polygon {pi}, {kind}")
    return scale, regions


# ---------------------------------------------------------------------------
# Arrangement construction

Segment = tuple[Point, Point]


def _norm_segment(a: Point, b: Point) -> Segment:
    return (a, b) if a <= b else (b, a)


def _coord(num: int, den: int):
    """Exact num/den for den > 0, as a plain int when integral."""
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _overlay_segments(segments: list[Segment]) -> list[Segment]:
    """Split segments at every mutual intersection so that the result
    is a set of interiorwise-disjoint edges meeting only at endpoints.

    Expects integer endpoints (the caller scales the scene); divisions
    happen only when an actual crossing point must be produced."""
    n = len(segments)
    events: list[set[Point]] = [set(s) for s in segments]
    boxes = [
        (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1]))
        for a, b in segments
    ]
    for i in range(n):
        p1, p2 = segments[i]
        bi = boxes[i]
        rx, ry = p2[0] - p1[0], p2[1] - p1[1]
        for j in range(i + 1, n):
            bj = boxes[j]
            if bj[0] > bi[2] or bj[2] < bi[0] or bj[1] > bi[3] or bj[3] < bi[1]:
                continue
            q1, q2 = segments[j]
            sx, sy = q2[0] - q1[0], q2[1] - q1[1]
            d1 = sx * (p1[1] - q1[1]) - sy * (p1[0] - q1[0])
            d2 = sx * (p2[1] - q1[1]) - sy * (p2[0] - q1[0])
            if d1 == 0 and d2 == 0:
                # collinear overlap: endpoints inside the other's box split it
                for p in (q1, q2):
                    if bi[0] <= p[0] <= bi[2] and bi[1] <= p[1] <= bi[3]:
                        events[i].add(p)
                for p in (p1, p2):
                    if bj[0] <= p[0] <= bj[2] and bj[1] <= p[1] <= bj[3]:
                        events[j].add(p)
                continue
            if not (d1 <= 0 <= d2 or d2 <= 0 <= d1):
                continue
            d3 = rx * (q1[1] - p1[1]) - ry * (q1[0] - p1[0])
            d4 = rx * (q2[1] - p1[1]) - ry * (q2[0] - p1[0])
            if not (d3 <= 0 <= d4 or d4 <= 0 <= d3):
                continue
            denom = rx * sy - ry * sx
            # parallel lines cannot pass the straddle tests unless collinear
            tn = (q1[0] - p1[0]) * sy - (q1[1] - p1[1]) * sx
            if denom < 0:
                tn, denom = -tn, -denom
            point = (
                _coord(p1[0] * denom + tn * rx, denom),
                _coord(p1[1] * denom + tn * ry, denom),
            )
            events[i].add(point)
            events[j].add(point)
    pieces: set[Segment] = set()
    for i, (p1, p2) in enumerate(segments):
        rx, ry = p2[0] - p1[0], p2[1] - p1[1]
        pts = sorted(events[i], key=lambda p: (p[0] - p1[0]) * rx + (p[1] - p1[1]) * ry)
        for a, b in zip(pts, pts[1:]):
            if a != b:
                pieces.add(_norm_segment(a, b))
    return sorted(pieces)


def _angle_cmp(d1: Point, d2: Point) -> int:
    """Exact counterclockwise comparison of directions, starting at +x."""

    def half(d) -> int:
        return 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1

    h1, h2 = half(d1), half(d2)
    if h1 != h2:
        return -1 if h1 < h2 else 1
    cr = d1[0] * d2[1] - d1[1] * d2[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


@dataclass
class Face:
    index: int
    bounded: bool
    rep: Optional[Point]  # a point strictly inside; None for the unbounded face


@dataclass(eq=False)
class Arrangement:
    """Exact planar subdivision induced by a scene, with incidences and
    the face mask of every named region.  Arrangements compare by
    identity, as face sets do across arrangements.  An arrangement
    holds masks, not face sets, so that it refers to nothing that
    refers back to it and is freed as soon as it is dropped."""

    vertices: list[Point]
    edges: list[tuple[int, int]]
    faces: list[Face]
    # the faces on the two sides of each edge (one bit when both sides
    # are the same face) and the faces around each vertex, as face masks
    edge_masks: list[int]
    vertex_masks: list[int]
    region_masks: dict[str, int] = field(default_factory=dict)
    # per face the faces it touches (shares a vertex with), as face masks
    _touch: list[int] = field(init=False, repr=False)
    # per face the faces across its two-sided edges, as face masks
    _across: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._touch = _adjacency(len(self.faces), self.vertex_masks)
        self._across = _adjacency(len(self.faces), self.edge_masks)

    @property
    def region_sets(self) -> Mapping[str, "FaceSet"]:
        """The face set of every named region, made afresh on each read."""
        return MappingProxyType(
            {name: FaceSet(self, m) for name, m in self.region_masks.items()}
        )

    def empty_set(self) -> "FaceSet":
        return FaceSet(self, 0)

    def full_set(self) -> "FaceSet":
        return FaceSet(self, (1 << len(self.faces)) - 1)


@dataclass(frozen=True)
class FaceSet:
    """A union of faces, as a mask with bit ``f`` set for face ``f``."""

    arr: Arrangement
    mask: int

    @property
    def faces(self) -> frozenset[int]:
        return frozenset(_bits(self.mask))


def _bits(m: int) -> Iterator[int]:
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _adjacency(n: int, links: Iterable[int]) -> list[int]:
    """Neighbour masks of ``n`` nodes where every mask in ``links`` joins
    all of its nodes."""
    adj = [0] * n
    for m in links:
        for f in _bits(m):
            adj[f] |= m
    return adj


def _components(points: int, adj: Sequence[int]) -> list[int]:
    """Connected components of the nodes in the mask ``points``, in the
    graph where node ``i`` has neighbour mask ``adj[i]``, as masks
    ascending by lowest bit."""
    out = []
    while points:
        comp = frontier = points & -points
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = adj[low.bit_length() - 1] & points & ~comp
            comp |= new
            frontier |= new
        out.append(comp)
        points &= ~comp
    return out


def _require_same_arrangement(a: FaceSet, b: FaceSet) -> None:
    if a.arr is not b.arr:
        raise ArrangementMismatchError("face sets from different arrangements")


def fs_sum(a: FaceSet, b: FaceSet) -> FaceSet:
    _require_same_arrangement(a, b)
    return FaceSet(a.arr, a.mask | b.mask)


def fs_product(a: FaceSet, b: FaceSet) -> FaceSet:
    _require_same_arrangement(a, b)
    return FaceSet(a.arr, a.mask & b.mask)


def fs_complement(a: FaceSet) -> FaceSet:
    return FaceSet(a.arr, a.arr.full_set().mask & ~a.mask)


def build_arrangement(scene: PlaneScene) -> Arrangement:
    # every coordinate scaled to an integer once; the kernel then runs on
    # integers, and only the overlay's crossing points may be fractions
    scale, regions = validate_scene(scene)
    raw: list[Segment] = []
    seen: set[Segment] = set()
    for _, polys in regions:
        for rings in polys:
            for ring in rings:
                for k in range(len(ring)):
                    seg = _norm_segment(ring[k], ring[(k + 1) % len(ring)])
                    if seg not in seen:
                        seen.add(seg)
                        raw.append(seg)

    pieces = _overlay_segments(raw)

    vertices = sorted({p for seg in pieces for p in seg})
    vindex = {p: i for i, p in enumerate(vertices)}
    edges = sorted({(vindex[a], vindex[b]) for a, b in pieces})

    # crossings off the integer grid: scale once more by their common
    # denominator, so that everything from here on is integer
    grid = lcm(*{c.denominator for v in vertices for c in v})
    if grid != 1:
        vertices = [_on_grid(v, grid) for v in vertices]
        regions = [
            (name, [[tuple(_on_grid(v, grid) for v in ring) for ring in rings] for rings in polys])
            for name, polys in regions
        ]
        scale *= grid

    # half-edge structure: outgoing edges per vertex, sorted CCW
    outgoing: dict[int, list[int]] = {}
    for u, v in edges:
        outgoing.setdefault(u, []).append(v)
        outgoing.setdefault(v, []).append(u)
    for u in outgoing:
        pu = vertices[u]

        def by_dir(v1: int, v2: int) -> int:
            d1 = (vertices[v1][0] - pu[0], vertices[v1][1] - pu[1])
            d2 = (vertices[v2][0] - pu[0], vertices[v2][1] - pu[1])
            return _angle_cmp(d1, d2)

        outgoing[u].sort(key=cmp_to_key(by_dir))

    out_index = {
        (u, v): i for u, targets in outgoing.items() for i, v in enumerate(targets)
    }

    def next_halfedge(h: tuple[int, int]) -> tuple[int, int]:
        u, v = h
        targets = outgoing[v]
        i = out_index[(v, u)]
        return (v, targets[(i - 1) % len(targets)])

    # extract directed cycles (each bounds the face on its left)
    cycle_of: dict[tuple[int, int], int] = {}
    cycles: list[list[tuple[int, int]]] = []
    for u in sorted(outgoing):
        for v in outgoing[u]:
            h = (u, v)
            if h in cycle_of:
                continue
            cyc: list[tuple[int, int]] = []
            cur = h
            while cur not in cycle_of:
                cycle_of[cur] = len(cycles)
                cyc.append(cur)
                cur = next_halfedge(cur)
            cycles.append(cyc)

    def cycle_rep(
        cyc: list[tuple[int, int]], probe: Iterable[tuple[int, int]]
    ) -> tuple[int, int, int]:
        # probe leftward from the midpoint of the first half-edge against
        # the edges in ``probe``; the nearest obstruction bounds the face,
        # so half that distance is strictly interior.  Doubled coordinates
        # keep everything integer, the minimum is tracked as a fraction
        # pair, and the point is returned in homogeneous form (X, Y, W)
        # with W > 0.
        u, v = cyc[0]
        a, b = vertices[u], vertices[v]
        mx2, my2 = a[0] + b[0], a[1] + b[1]
        nx, ny = a[1] - b[1], b[0] - a[0]  # left normal of a->b
        best_n, best_d = 1, 1  # no obstruction: stop the probe at t = 1
        found = False
        for p_idx, q_idx in probe:
            p, q = vertices[p_idx], vertices[q_idx]
            sx, sy = q[0] - p[0], q[1] - p[1]
            denom2 = 2 * (nx * sy - ny * sx)
            dpx, dpy = 2 * p[0] - mx2, 2 * p[1] - my2
            if denom2 != 0:
                tn = dpx * sy - dpy * sx
                wn = dpx * ny - dpy * nx
                td = denom2
                if td < 0:
                    tn, wn, td = -tn, -wn, -td
                if tn <= 0 or not 0 <= wn <= td:
                    continue
                if not found or tn * best_d < best_n * td:
                    best_n, best_d, found = tn, td, True
            elif dpx * ny - dpy * nx == 0:
                # edge collinear with the probe line: endpoints are hits
                axis_n = nx if nx else ny
                for c in (p, q):
                    tn = (2 * c[0] - mx2) if nx else (2 * c[1] - my2)
                    td = 2 * axis_n
                    if td < 0:
                        tn, td = -tn, -td
                    if tn > 0 and (not found or tn * best_d < best_n * td):
                        best_n, best_d, found = tn, td, True
        # rep = m + (best/2) * n with m = (mx2/2, my2/2)
        return (mx2 * best_d + best_n * nx, my2 * best_d + best_n * ny, 2 * best_d)

    cycle_rings = [[vertices[u] for u, _ in cyc] for cyc in cycles]
    areas = [_area2(ring) for ring in cycle_rings]

    # bounded faces in cycle discovery order; every other cycle is a hole
    # boundary of the smallest bounded face around it, or of the
    # unbounded face; a hole cycle's point is probed against every edge
    positive = [i for i, a2 in enumerate(areas) if a2 > 0]
    face_of_cycle = {ci: fi for fi, ci in enumerate(positive)}
    unbounded = len(positive)
    # per bounded face, the half-edges of its boundary: its outer cycle
    # and the hole cycles it owns
    boundary = [list(cycles[ci]) for ci in positive]
    for ci, a2 in enumerate(areas):
        if a2 > 0:
            continue
        x, y, w = cycle_rep(cycles[ci], edges)
        owner, owner_area = unbounded, 0
        for pci in positive:
            if (not owner_area or areas[pci] < owner_area) and _point_in_ring_h(
                x, y, w, cycle_rings[pci]
            ):
                owner, owner_area = face_of_cycle[pci], areas[pci]
        face_of_cycle[ci] = owner
        if owner != unbounded:
            boundary[owner] += cycles[ci]

    # a bounded face's probe runs inside the face up to its first hit,
    # which lies on the face's boundary: probing that boundary alone
    # finds the same nearest hit
    face_reps = [cycle_rep(cycles[ci], boundary[fi]) for fi, ci in enumerate(positive)]

    # incidences as face masks: half-edge (u, v) puts its face at edge
    # {u, v} and at vertex u
    face_bit = {h: 1 << face_of_cycle[ci] for h, ci in cycle_of.items()}
    edge_masks = [face_bit[u, v] | face_bit[v, u] for u, v in edges]
    vertex_masks = [0] * len(vertices)
    for (u, _), bit in face_bit.items():
        vertex_masks[u] |= bit

    # region membership of every bounded face's point, with a bounding-box
    # prefilter per polygon
    region_masks = {}
    for name, polys in regions:
        mask = 0
        for rings in polys:
            outer = rings[0]
            x0, x1 = min(v[0] for v in outer), max(v[0] for v in outer)
            y0, y1 = min(v[1] for v in outer), max(v[1] for v in outer)
            for fi, (x, y, w) in enumerate(face_reps):
                if (
                    not mask >> fi & 1
                    and x0 * w < x < x1 * w
                    and y0 * w < y < y1 * w
                    and _point_in_rings_h(x, y, w, rings)
                ):
                    mask |= 1 << fi
        region_masks[name] = mask

    # exact rationals only here, at output
    faces = [
        Face(fi, True, (_coord(x, w * scale), _coord(y, w * scale)))
        for fi, (x, y, w) in enumerate(face_reps)
    ]
    faces.append(Face(unbounded, False, None))
    return Arrangement(
        [(_coord(x, scale), _coord(y, scale)) for x, y in vertices],
        list(edges),
        faces,
        edge_masks,
        vertex_masks,
        region_masks,
    )


# ---------------------------------------------------------------------------
# Predicates on face sets


def fs_connected(a: FaceSet) -> bool:
    return len(_components(a.mask, a.arr._touch)) <= 1


def fs_interior_connected(a: FaceSet) -> bool:
    """Whether the interior of the set is connected, decided over the
    two-sided edges between its faces alone.

    The interior is the union of the set's open faces, the open edges
    with both sides in the set and the vertices with every face around
    them in the set, so its faces are joined through those edges and
    vertices.  The vertices add no link: if every face around a vertex
    lies in the set, then consecutive faces around it share an edge at
    the vertex, both sides of that edge lie in the set, and a chain of
    such edges already joins all the faces around the vertex.  A
    one-sided edge has a single face, so it links nothing."""
    return len(_components(a.mask, a.arr._across)) <= 1


def fs_contact(a: FaceSet, b: FaceSet) -> bool:
    """A shared face, or a face of one touching a face of the other; the
    first test also covers the unbounded face of an empty scene, which
    has no vertex and so touches nothing."""
    _require_same_arrangement(a, b)
    am, bm = a.mask, b.mask
    if am & bm:
        return True
    if am.bit_count() > bm.bit_count():
        am, bm = bm, am
    touch = a.arr._touch
    return any(touch[f] & bm for f in _bits(am))


def fs_components(a: FaceSet) -> list[FaceSet]:
    return [FaceSet(a.arr, m) for m in _components(a.mask, a.arr._touch)]


# ---------------------------------------------------------------------------
# Formula evaluation over a scene


def faceset_of_term(arr: Arrangement, t: Term) -> FaceSet:
    if isinstance(t, Variable):
        try:
            return FaceSet(arr, arr.region_masks[t.name])
        except KeyError:
            raise UnboundRegionError(t.name) from None
    if isinstance(t, Zero):
        return arr.empty_set()
    if isinstance(t, One):
        return arr.full_set()
    if isinstance(t, Sum):
        return fs_sum(faceset_of_term(arr, t.left), faceset_of_term(arr, t.right))
    if isinstance(t, Product):
        return fs_product(faceset_of_term(arr, t.left), faceset_of_term(arr, t.right))
    if isinstance(t, Complement):
        return fs_complement(faceset_of_term(arr, t.arg))
    raise TypeError(f"not a term: {t!r}")


def plane_eval(arr: Arrangement, f: Formula) -> bool:
    if isinstance(f, AtomF):
        a = f.atom
        if isinstance(a, Eq):
            return faceset_of_term(arr, a.left).mask == faceset_of_term(arr, a.right).mask
        if isinstance(a, Contact):
            return fs_contact(faceset_of_term(arr, a.left), faceset_of_term(arr, a.right))
        if isinstance(a, Conn):
            return fs_connected(faceset_of_term(arr, a.arg))
        if isinstance(a, IntConn):
            return fs_interior_connected(faceset_of_term(arr, a.arg))
        raise TypeError(f"not an atom: {a!r}")
    if isinstance(f, And):
        return plane_eval(arr, f.left) and plane_eval(arr, f.right)
    if isinstance(f, Or):
        return plane_eval(arr, f.left) or plane_eval(arr, f.right)
    if isinstance(f, Not):
        return not plane_eval(arr, f.arg)
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# RCC8


class Rcc8Relation(enum.Enum):
    DC = "DC"
    EC = "EC"
    PO = "PO"
    EQ = "EQ"
    TPP = "TPP"
    NTPP = "NTPP"
    TPPi = "TPPi"
    NTPPi = "NTPPi"


def _rcc8_flags(a: FaceSet, b: FaceSet) -> dict[Rcc8Relation, bool]:
    c_ab = fs_contact(a, b)
    prod_empty = not a.mask & b.mask
    part_ab = not a.mask & ~b.mask  # a . -b = 0
    part_ba = not b.mask & ~a.mask
    c_a_nb = fs_contact(a, fs_complement(b))
    c_b_na = fs_contact(b, fs_complement(a))
    return {
        Rcc8Relation.DC: not c_ab,
        Rcc8Relation.EC: c_ab and prod_empty,
        Rcc8Relation.EQ: part_ab and part_ba,
        Rcc8Relation.PO: not prod_empty and not part_ab and not part_ba,
        Rcc8Relation.TPP: part_ab and not part_ba and c_a_nb,
        Rcc8Relation.NTPP: part_ab and not part_ba and not c_a_nb,
        Rcc8Relation.TPPi: part_ba and not part_ab and c_b_na,
        Rcc8Relation.NTPPi: part_ba and not part_ab and not c_b_na,
    }


def rcc8_of_sets(a: FaceSet, b: FaceSet) -> Rcc8Relation:
    if not a.mask or not b.mask:
        raise ValueError("RCC8 relations are defined for nonempty regions only")
    flags = _rcc8_flags(a, b)
    holding = [r for r, v in flags.items() if v]
    if len(holding) != 1:
        raise AssertionError(f"RCC8 relations not JEPD here: {holding}")
    return holding[0]


def rcc8(
    scene: Union[PlaneScene, Arrangement], name1: str, name2: str
) -> Rcc8Relation:
    """RCC8 relation of two regions of a scene, or of an arrangement
    already built from one."""
    arr = scene if isinstance(scene, Arrangement) else build_arrangement(scene)
    masks = arr.region_masks
    for name in (name1, name2):
        if name not in masks:
            raise UnboundRegionError(name)
    return rcc8_of_sets(FaceSet(arr, masks[name1]), FaceSet(arr, masks[name2]))


# ---------------------------------------------------------------------------
# Component graphs


@dataclass(frozen=True)
class ComponentGraph:
    labels: tuple[str, ...]
    node_sets: tuple[FaceSet, ...]
    edges: frozenset[tuple[int, int]]


def is_tree(g: ComponentGraph) -> bool:
    n = len(g.labels)
    if n == 0:
        return True
    if len(g.edges) != n - 1:
        return False
    adj = _adjacency(n, (1 << i | 1 << j for i, j in g.edges))
    return len(_components((1 << n) - 1, adj)) == 1


def component_graph(
    scene: Union[PlaneScene, Arrangement], members: Sequence[Union[str, Term]]
) -> ComponentGraph:
    """Graph on the connected components of the listed regions (variable
    names or term source text; a term slot lets a partition include the
    unbounded complement region) of a scene, or of an arrangement already
    built from one.  The members must form a partition of the plane."""
    from .parser import parse_term
    from .syntax import term_to_source

    terms: list[Term] = []
    labels: list[str] = []
    for m in members:
        terms.append(m if isinstance(m, Term) else parse_term(m))
        labels.append(term_to_source(terms[-1]))
    if not terms:
        raise ValueError("component_graph needs at least one member")
    arr = scene if isinstance(scene, Arrangement) else build_arrangement(scene)
    fsets = [faceset_of_term(arr, t) for t in terms]
    union, disjoint = 0, True
    for fset in fsets:
        disjoint = disjoint and not union & fset.mask
        union |= fset.mask
    if not disjoint or union != arr.full_set().mask:
        raise ValueError("the listed members do not form a partition")
    nodes: list[FaceSet] = []
    node_labels: list[str] = []
    for label, fset in zip(labels, fsets):
        for k, comp in enumerate(fs_components(fset)):
            nodes.append(comp)
            node_labels.append(f"{label}#{k}")
    edges = set()
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if nodes[i].mask == nodes[j].mask:
                continue
            if fs_contact(nodes[i], nodes[j]):
                edges.add((i, j))
    return ComponentGraph(tuple(node_labels), tuple(nodes), frozenset(edges))


# ---------------------------------------------------------------------------
# Induced quasi-saw model


def induced_quasisaw(arr: Arrangement) -> QsModel:
    """Two-depth Aleksandrov model matching the plane semantics: faces
    become depth-0 points; every edge with two distinct sides and every
    vertex becomes a depth-1 point below its incident faces."""
    w0 = tuple(f"f{f.index}" for f in arr.faces)
    w1: list[tuple[str, frozenset[str]]] = []
    for i, m in enumerate(arr.edge_masks):
        if m & (m - 1):  # two distinct sides
            w1.append((f"e{i}", frozenset(f"f{f}" for f in _bits(m))))
    for i, m in enumerate(arr.vertex_masks):
        w1.append((f"v{i}", frozenset(f"f{f}" for f in _bits(m))))
    frame = make_frame(w0, tuple(w1))
    valuation = {
        name: {f"f{f}" for f in _bits(m)} for name, m in arr.region_masks.items()
    }
    return QsModel.make(frame, valuation)


# ---------------------------------------------------------------------------
# Scene file format


def scene_to_json(scene: PlaneScene) -> dict:
    def coord(x: Rational):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def ring_json(r: Ring):
        return [[coord(x), coord(y)] for x, y in r.vertices]

    return {
        "regions": {
            name: [
                {"outer": ring_json(p.outer), "holes": [ring_json(h) for h in p.holes]}
                for p in polys
            ]
            for name, polys in scene.regions
        }
    }


def scene_from_json(data: dict) -> PlaneScene:
    if not isinstance(data, dict) or "regions" not in data:
        raise SceneError("scene file must be a JSON object with a 'regions' key")
    if not isinstance(data["regions"], dict):
        raise SceneError("'regions' must be an object mapping names to polygon lists")
    regions: dict[str, list[Polygon]] = {}
    for name, polys in data["regions"].items():
        if not isinstance(polys, list):
            raise SceneError(f"region {name}: a list of polygons expected")
        out = []
        for p in polys:
            if not isinstance(p, dict) or "outer" not in p:
                raise SceneError(f"region {name}: polygon without 'outer' ring")
            holes = p.get("holes", [])
            if not isinstance(holes, list) or not all(
                isinstance(r, list) for r in (p["outer"], *holes)
            ):
                raise SceneError(f"region {name}: rings and 'holes' must be lists")
            out.append(Polygon(ring_from(p["outer"]), tuple(ring_from(h) for h in holes)))
        regions[name] = out
    return PlaneScene.make(regions)
