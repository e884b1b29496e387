import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import topoconn.plane as plane_module
import topoconn.quasisaw as qs
from topoconn.parser import parse
from topoconn.constructions import k5m_separator
from topoconn.plane import (
    ArrangementMismatchError,
    ComponentGraph,
    FaceSet,
    PlaneScene,
    Polygon,
    Rcc8Relation,
    Ring,
    SceneError,
    UnboundRegionError,
    build_arrangement,
    component_graph,
    fs_complement,
    fs_components,
    fs_connected,
    fs_contact,
    fs_interior_connected,
    fs_product,
    fs_sum,
    induced_quasisaw,
    is_tree,
    plane_eval,
    point_in_polygon,
    point_in_region,
    rcc8,
    rect,
    ring_from,
    scene_from_json,
    scene_to_json,
)
from topoconn.quasisaw import check as qs_check
from topoconn.render import to_svg
from topoconn.syntax import to_source

from conftest import nested_rings, onion_partition, random_rect_scene

GOLDEN = Path(__file__).resolve().parent / "data" / "plane_golden.json"
THREE_SQUARES = Path(__file__).resolve().parent.parent / "data" / "three_squares.json"


EQ1 = parse(
    "ci(r1)&r1!=0&ci(r2)&r2!=0&ci(r3)&r3!=0&"
    "ci(r1+r2)&r1.r2=0&ci(r1+r3)&r1.r3=0&ci(r2+r3)&r2.r3=0"
)


@pytest.fixture
def three_squares():
    return PlaneScene.make(
        {
            "r1": [rect(0, 0, 1, 1)],
            "r2": [rect(1, 0, 2, 1)],
            "r3": [rect(0, 1, 2, 2)],
        }
    )


def test_edge_sharing_squares_counts():
    scene = PlaneScene.make({"r1": [rect(0, 0, 1, 1)], "r2": [rect(1, 0, 2, 1)]})
    arr = build_arrangement(scene)
    assert sum(1 for f in arr.faces if f.bounded) == 2
    assert sum(1 for f in arr.faces if not f.bounded) == 1
    assert len(arr.edges) == 7


def test_single_square():
    arr = build_arrangement(PlaneScene.make({"r": [rect(0, 0, 1, 1)]}))
    assert sum(1 for f in arr.faces if f.bounded) == 1


def test_overlapping_squares():
    scene = PlaneScene.make({"r1": [rect(0, 0, 2, 2)], "r2": [rect(1, 1, 3, 3)]})
    arr = build_arrangement(scene)
    assert sum(1 for f in arr.faces if f.bounded) == 3
    prod = fs_product(arr.region_sets["r1"], arr.region_sets["r2"])
    assert len(prod.faces) == 1
    rep = arr.faces[next(iter(prod.faces))].rep
    assert 1 < rep[0] < 2 and 1 < rep[1] < 2


def test_degenerate_rings_rejected():
    with pytest.raises(SceneError):
        build_arrangement(
            PlaneScene.make({"r": [Polygon(Ring(((0, 0), (1, 0), (2, 0))))]})
        )
    bow = Ring(((0, 0), (2, 2), (2, 0), (0, 2)))
    with pytest.raises(SceneError):
        build_arrangement(PlaneScene.make({"r": [Polygon(bow)]}))
    # rings with mixed denominators are validated after scaling to
    # integers, with the messages of validation on fractions
    F = Fraction
    hole = Ring(((F(5, 2), F(5, 2)), (F(7, 2), F(10, 3)), (F(7, 2), F(5, 2)), (F(5, 2), F(13, 4))))
    cases = [
        (
            {"r": [Polygon(Ring(((0, 0), (F(1, 3), F(1, 2)), (F(2, 3), 1))))]},
            "region r, polygon 0, outer ring: ring has zero area",
        ),
        (
            {"r": [Polygon(Ring(((0, 0), (F(1, 2), F(1, 3)), (F(5, 7), 0), (F(1, 2), F(1, 3)))))]},
            "region r, polygon 0, outer ring: ring repeats a vertex",
        ),
        (
            {"r": [Polygon(Ring(((0, 0), (F(3, 2), 0), (F(3, 2), F(5, 7)), (F(3, 2), F(2, 7)), (0, F(1, 3)))))]},
            "region r, polygon 0, outer ring: ring folds back on itself at vertex 2",
        ),
        (
            {"r": [Polygon(Ring(((0, 0), (F(5, 3), F(3, 2)), (F(5, 3), 0), (0, F(7, 4)))))]},
            "region r, polygon 0, outer ring: ring self-intersects (edges 0 and 2)",
        ),
        (
            {"a": [rect(0, 0, 1, 1)], "r": [rect(0, 0, 1, 1), Polygon(Ring(((2, 2), (4, 2), (4, 4), (2, 4))), (hole,))]},
            "region r, polygon 1, hole ring 0: ring self-intersects (edges 0 and 2)",
        ),
    ]
    for regions, message in cases:
        with pytest.raises(SceneError) as err:
            build_arrangement(PlaneScene.make(regions))
        assert str(err.value) == message
    # offsets far below the other coordinates still make simple rings
    eps = F(1, 10**12)
    thin = Ring(((0, 0), (1, eps), (1 + eps, 1), (eps, F(6, 7))))
    sliver = Ring(((0, 0), (1, 0), (F(1, 2), F(1, 10**15))))
    scene = PlaneScene.make({"r": [Polygon(thin)], "s": [Polygon(sliver)]})
    arr = build_arrangement(scene)
    for name in ("r", "s"):
        fs = arr.region_sets[name]
        assert fs.mask
        assert all(point_in_region(arr.faces[f].rep, scene.polygons(name)) for f in fs.faces)


def test_boolean_examples():
    scene = PlaneScene.make({"r1": [rect(0, 0, 1, 1)], "r2": [rect(1, 0, 2, 1)]})
    arr = build_arrangement(scene)
    a, b = arr.region_sets["r1"], arr.region_sets["r2"]
    assert not fs_product(a, b).faces  # the shared edge regularizes away
    assert fs_sum(a, fs_complement(a)).faces == frozenset(range(len(arr.faces)))
    assert fs_complement(fs_complement(a)) == a
    other = build_arrangement(scene)
    with pytest.raises(ArrangementMismatchError):
        fs_sum(a, other.region_sets["r1"])


def test_connectivity_examples(three_squares):
    corner = PlaneScene.make({"r1": [rect(0, 0, 1, 1)], "r2": [rect(1, 1, 2, 2)]})
    arr = build_arrangement(corner)
    u = fs_sum(arr.region_sets["r1"], arr.region_sets["r2"])
    assert fs_connected(u)
    assert not fs_interior_connected(u)
    assert fs_contact(arr.region_sets["r1"], arr.region_sets["r2"])
    arr3 = build_arrangement(three_squares)
    for one, two in (("r1", "r2"), ("r1", "r3"), ("r2", "r3")):
        s = fs_sum(arr3.region_sets[one], arr3.region_sets[two])
        assert fs_interior_connected(s)
    assert plane_eval(arr3, EQ1)
    assert fs_connected(build_arrangement(corner).empty_set())


def test_contact_examples():
    apart = PlaneScene.make({"a": [rect(0, 0, 1, 1)], "b": [rect(2, 0, 3, 1)]})
    arr = build_arrangement(apart)
    assert not fs_contact(arr.region_sets["a"], arr.region_sets["b"])
    ec = PlaneScene.make({"a": [rect(0, 0, 1, 1)], "b": [rect(1, 0, 2, 1)]})
    arr2 = build_arrangement(ec)
    assert fs_contact(arr2.region_sets["a"], arr2.region_sets["b"])
    assert not fs_product(arr2.region_sets["a"], arr2.region_sets["b"]).faces
    # squares that meet only at a corner share a vertex and no edge; the
    # larger operand on either side
    corner = PlaneScene.make({"a": [rect(0, 0, 1, 1)], "b": [rect(1, 1, 2, 2)]})
    arr3 = build_arrangement(corner)
    a, b = arr3.region_sets["a"], arr3.region_sets["b"]
    outer = fs_complement(fs_sum(a, b))
    for x, y in ((a, b), (b, a), (a, fs_sum(b, outer)), (fs_sum(b, outer), a)):
        assert fs_contact(x, y)


def test_plane_check_examples(three_squares):
    arr = build_arrangement(three_squares)
    assert plane_eval(arr, EQ1)
    assert plane_eval(arr, parse("1 = r1 + -r1"))
    with pytest.raises(UnboundRegionError):
        plane_eval(arr, parse("missing = 0"))
    row = PlaneScene.make(
        {f"r{i}": [rect(2 * i, 0, 2 * i + 1, 1)] for i in range(1, 6)}
    )
    eq2 = parse(
        "&".join(
            [f"ci(r{i}) & r{i} != 0" for i in range(1, 6)]
            + [
                f"ci(r{i}+r{j}) & r{i}.r{j} = 0"
                for i in range(1, 6)
                for j in range(i + 1, 6)
            ]
        )
    )
    assert not plane_eval(build_arrangement(row), eq2)


def test_rcc8_six_configurations():
    cases = [
        ({"a": [rect(0, 0, 1, 1)], "b": [rect(2, 0, 3, 1)]}, Rcc8Relation.DC),
        ({"a": [rect(0, 0, 1, 1)], "b": [rect(1, 0, 2, 1)]}, Rcc8Relation.EC),
        ({"a": [rect(0, 0, 2, 2)], "b": [rect(1, 1, 3, 3)]}, Rcc8Relation.PO),
        ({"a": [rect(0, 0, 1, 1)], "b": [rect(0, 0, 1, 1)]}, Rcc8Relation.EQ),
        ({"a": [rect(0, 0, 1, 1)], "b": [rect(0, 0, 2, 2)]}, Rcc8Relation.TPP),
        ({"a": [rect(1, 1, 2, 2)], "b": [rect(0, 0, 4, 4)]}, Rcc8Relation.NTPP),
    ]
    for regions, expected in cases:
        assert rcc8(PlaneScene.make(regions), "a", "b") == expected
    assert rcc8(PlaneScene.make(cases[4][0]), "b", "a") == Rcc8Relation.TPPi
    assert rcc8(PlaneScene.make(cases[5][0]), "b", "a") == Rcc8Relation.NTPPi
    with pytest.raises(ValueError):
        rcc8(PlaneScene.make({"a": [rect(0, 0, 1, 1)], "b": []}), "a", "b")


_INVERSE = {
    Rcc8Relation.DC: Rcc8Relation.DC,
    Rcc8Relation.EC: Rcc8Relation.EC,
    Rcc8Relation.PO: Rcc8Relation.PO,
    Rcc8Relation.EQ: Rcc8Relation.EQ,
    Rcc8Relation.TPP: Rcc8Relation.TPPi,
    Rcc8Relation.TPPi: Rcc8Relation.TPP,
    Rcc8Relation.NTPP: Rcc8Relation.NTPPi,
    Rcc8Relation.NTPPi: Rcc8Relation.NTPP,
}


def test_rcc8_inverse_consistency():
    rng = random.Random(77)
    for _ in range(120):
        scene = random_rect_scene(rng, ("a", "b"), span=6, max_rects=2)
        assert rcc8(scene, "a", "b") == _INVERSE[rcc8(scene, "b", "a")]


def test_rcc8_and_component_graph_take_an_arrangement(monkeypatch, three_squares):
    scene, members = onion_partition(random.Random(5151), colours=3, layers=5)
    pairs = [("l0", "l1"), ("l1", "l0"), ("l0", "l2"), ("l2", "l4")]
    expected = [rcc8(scene, a, b) for a, b in pairs]
    expected_graph = component_graph(scene, members)
    arr = build_arrangement(scene)
    builds = []
    original = plane_module.build_arrangement
    monkeypatch.setattr(
        plane_module, "build_arrangement", lambda s: builds.append(s) or original(s)
    )
    assert [rcc8(arr, a, b) for a, b in pairs] == expected
    g = component_graph(arr, members)
    assert g.labels == expected_graph.labels and g.edges == expected_graph.edges
    assert [n.faces for n in g.node_sets] == [n.faces for n in expected_graph.node_sets]
    assert all(n.arr is arr for n in g.node_sets)
    arr3 = build_arrangement(three_squares)
    g3 = component_graph(arr3, ["r1", "r2", "r3", "-(r1 + r2 + r3)"])
    assert len(g3.edges) == 6 and rcc8(arr3, "r1", "r2") == Rcc8Relation.EC
    with pytest.raises(UnboundRegionError):
        rcc8(arr3, "r1", "missing")
    assert builds == []
    # the scene form builds through the counted name
    assert rcc8(three_squares, "r1", "r2") == Rcc8Relation.EC
    assert builds == [three_squares]


def test_component_graph_examples(three_squares):
    # a valid partition that is NOT sub-cyclic: every member touches
    # every other, so the component graph is complete, not a tree
    g = component_graph(three_squares, ["r1", "r2", "r3", "-(r1 + r2 + r3)"])
    assert len(g.labels) == 4 and len(g.edges) == 6 and not is_tree(g)
    one = PlaneScene.make({"r": [rect(0, 0, 1, 1)]})
    g1 = component_graph(one, ["r", "-r"])
    assert len(g1.labels) == 2 and is_tree(g1)
    for members in (["r"], ["r", "1"], ["r", "-r", "r"]):  # a gap, then overlaps
        with pytest.raises(ValueError, match="^the listed members do not form a partition$"):
            component_graph(one, members)
    with pytest.raises(UnboundRegionError):
        component_graph(one, ["r", "-r", "s"])


def test_component_graph_onions():
    rng = random.Random(5150)
    scene, members = onion_partition(rng, colours=4, layers=7)
    g = component_graph(scene, members)
    assert is_tree(g)
    assert len(g.labels) == 8  # 7 layers + the unbounded complement


def test_induced_quasisaw_agreement(three_squares):
    arr = build_arrangement(three_squares)
    model = induced_quasisaw(arr)
    assert qs_check(model, EQ1)
    atoms = [
        "c(r1)", "ci(r1)", "C(r1,r2)", "r1 = r2", "ci(r1+r2)",
        "c(-(r1+r2+r3))", "C(r1+r2, -r3)", "r1 <= r1+r2",
    ]
    for src in atoms:
        f = parse(src)
        assert plane_eval(arr, f) == qs_check(model, f), src


def test_induced_quasisaw_star_shape():
    arr = build_arrangement(PlaneScene.make({"r": [rect(0, 0, 1, 1)]}))
    model = induced_quasisaw(arr)
    # 2 faces; every depth-1 point sees both
    assert len(model.frame.w0) == 2
    assert all(len(succ) == 2 for _, succ in model.frame.w1)


@pytest.mark.parametrize("regions", [{}, {"e": []}], ids=["no-regions", "empty-region"])
def test_empty_scene_is_one_unbounded_face(regions):
    arr = build_arrangement(PlaneScene.make(regions))
    assert [(f.index, f.bounded, f.rep) for f in arr.faces] == [(0, False, None)]
    assert arr.vertices == [] and arr.edges == []
    assert arr.region_masks == {name: 0 for name in regions}
    full = arr.full_set()
    assert full.mask == 1
    assert fs_connected(full) and fs_interior_connected(full)
    # the unbounded face has no vertex here: contact is the shared face
    assert fs_contact(full, full) and not fs_contact(full, arr.empty_set())
    assert plane_eval(arr, parse("c(1) & ci(1) & 1 != 0 & C(1, 1)"))
    model = induced_quasisaw(arr)
    assert model.frame.w0 == ("f0",) and model.frame.w1 == ()
    assert all(not trace for trace in model.traces.values())


def test_scene_json_roundtrip(three_squares):
    data = scene_to_json(three_squares)
    again = scene_from_json(data)
    assert again == three_squares
    half = scene_from_json(
        {"regions": {"r": [{"outer": [["0", "0"], ["1/2", "0"], ["1/2", "1/2"], ["0", "1/2"]]}]}}
    )
    assert half.polygons("r")[0].outer.vertices[1] == (Fraction(1, 2), Fraction(0))
    with pytest.raises(SceneError):
        scene_from_json({"regions": {"r": [{"outer": [[0.25, 0], [1, 0], [1, 1]]}]}})


def test_svg_output(three_squares):
    svg = to_svg(three_squares)
    assert svg.startswith("<?xml")
    assert svg.count("<path") == 3
    assert to_svg(three_squares) == svg  # deterministic
    empty = to_svg(PlaneScene.make({}))
    assert "<svg" in empty and "</svg>" in empty
    # byte for byte: the sample scene file, and a separator gadget, whose
    # offsets are fractions
    loaded = scene_from_json(json.loads(THREE_SQUARES.read_text()))
    assert to_svg(loaded) == svg
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "bd75ce6a1e186282254106e7c2f498d10f6861a5912eee4b1bef827110ef9efb"
    )
    gadget = json.loads(GOLDEN.read_text())["k5m separator"]
    built = k5m_separator(scene_from_json(gadget["base"]), "b1", "b2", gadget["curve"])
    assert hashlib.sha256(to_svg(built).encode()).hexdigest() == (
        "d7dcd5b877fdaf1388049c84e41fc979713886ad23c7f610e4124c1a71c3c794"
    )


def _coords(scene: PlaneScene) -> list:
    return [
        c
        for _, polys in scene.regions
        for poly in polys
        for ring in poly.rings()
        for v in ring.vertices
        for c in v
    ]


@pytest.mark.parametrize(
    "value, expected",
    [(3, 3), ("6/2", 3), (Fraction(4, 2), 2), ("-9/3", -3), ("1/3", Fraction(1, 3)),
     (Fraction(2, 6), Fraction(1, 3)), ("1", 1), ("-9/5", Fraction(-9, 5))],
)
def test_coordinates_are_ints_when_integral(value, expected):
    loaded = scene_from_json(
        {"regions": {"r": [{"outer": [[value, 0], [value, 7], [-5, value]]}]}}
    )
    for coords in (
        rect(value, value, 10, 10).outer.vertices[0],
        ring_from([(value, value)]).vertices[0],
        [loaded.polygons("r")[0].outer.vertices[i][j] for i, j in ((0, 0), (1, 0), (2, 1))],
    ):
        assert [(type(c), c) for c in coords] == [(type(expected), expected)] * len(coords)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "coordinates must be integers or 'p/q' strings, got True"),
        (1.5, "coordinates must be integers or 'p/q' strings, got 1.5"),
        ("1/0", "bad rational literal '1/0'"),
        # a string coordinate is an integer or 'p/q' literal and nothing else
        ("1.5", "bad rational literal '1.5'"),
        ("1e3", "bad rational literal '1e3'"),
        ("1_000", "bad rational literal '1_000'"),
        (" 3/4 ", "bad rational literal ' 3/4 '"),
        ("+3", "bad rational literal '+3'"),
    ],
)
def test_bad_coordinates_are_rejected(value, message):
    for make in (
        lambda: rect(0, 0, value, 1),
        lambda: ring_from([(0, 0), (1, value), (0, 1)]),
        lambda: scene_from_json({"regions": {"r": [{"outer": [[0, 0], [value, 0], [0, 1]]}]}}),
    ):
        with pytest.raises(SceneError) as err:
            make()
        assert str(err.value) == message


def _map_coords(scene: PlaneScene, fn) -> PlaneScene:
    def ring(r: Ring) -> Ring:
        return Ring(tuple((fn(x), fn(y)) for x, y in r.vertices))

    return PlaneScene.make(
        {
            name: [Polygon(ring(p.outer), tuple(ring(h) for h in p.holes)) for p in polys]
            for name, polys in scene.regions
        }
    )


def _arrangement_fields(arr) -> tuple:
    """Everything an arrangement holds, with the type of every coordinate."""

    def typed(p):
        return p and tuple((type(c), c) for c in p)

    return (
        [typed(v) for v in arr.vertices],
        arr.edges,
        [(f.index, f.bounded, typed(f.rep)) for f in arr.faces],
        arr.edge_masks,
        arr.vertex_masks,
        arr.region_masks,
    )


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.booleans())
def test_fraction_coordinates_build_what_normalized_ones_do(seed, onion):
    """A scene whose integral coordinates are Fractions and the same scene
    with every coordinate in canonical form: equal and equally hashed
    scenes, the same arrangement field by field, the same JSON text."""
    rng = random.Random(seed)
    if onion:
        scene, _ = onion_partition(rng, colours=3, layers=rng.randint(2, 6))
    else:
        scene = random_rect_scene(rng, ("p", "q", "w"), span=8)
    fractions = _map_coords(scene, Fraction)
    normal = _map_coords(scene, plane_module._rational)
    assert all(type(c) is Fraction for c in _coords(fractions))
    assert all(type(c) is int or c.denominator > 1 for c in _coords(normal))
    assert fractions == normal and hash(fractions) == hash(normal)
    assert _arrangement_fields(build_arrangement(fractions)) == _arrangement_fields(
        build_arrangement(normal)
    )
    assert json.dumps(scene_to_json(fractions)) == json.dumps(scene_to_json(normal))


def test_boolean_algebra_laws_on_facesets():
    rng = random.Random(42)
    for _ in range(40):
        scene = random_rect_scene(rng, ("p", "q", "w"), span=8)
        arr = build_arrangement(scene)
        one = arr.full_set()
        zero = arr.empty_set()
        for _ in range(6):
            sets = list(arr.region_sets.values()) + [one, zero]
            a, b, c = (rng.choice(sets) for _ in range(3))
            assert fs_sum(a, b) == fs_sum(b, a)
            assert fs_product(a, b) == fs_product(b, a)
            assert fs_sum(fs_sum(a, b), c) == fs_sum(a, fs_sum(b, c))
            assert fs_product(fs_product(a, b), c) == fs_product(a, fs_product(b, c))
            assert fs_sum(a, fs_product(a, b)) == a
            assert fs_product(a, fs_sum(a, b)) == a
            assert fs_product(a, fs_sum(b, c)) == fs_sum(fs_product(a, b), fs_product(a, c))
            assert fs_sum(a, fs_product(b, c)) == fs_product(fs_sum(a, b), fs_sum(a, c))
            assert fs_sum(a, fs_complement(a)) == one
            assert fs_product(a, fs_complement(a)) == zero


def test_interior_connected_implies_connected_on_scenes():
    rng = random.Random(43)
    for _ in range(60):
        scene = random_rect_scene(rng, ("p", "q"), span=6)
        arr = build_arrangement(scene)
        for fs in arr.region_sets.values():
            if fs_interior_connected(fs):
                assert fs_connected(fs)
        u = fs_sum(*arr.region_sets.values())
        if fs_interior_connected(u):
            assert fs_connected(u)


def test_components_partition_facesets():
    rng = random.Random(44)
    for _ in range(40):
        scene = random_rect_scene(rng, ("p", "q"), span=6)
        arr = build_arrangement(scene)
        u = fs_sum(*arr.region_sets.values())
        comps = fs_components(u)
        assert frozenset().union(*(c.faces for c in comps)) == u.faces if comps else not u.faces
        for c in comps:
            assert fs_connected(c)
        for i, c in enumerate(comps):
            for d in comps[i + 1:]:
                assert not fs_contact(c, d)


def test_face_set_predicates_match_induced_quasisaw():
    # random face subsets, not only region terms: each plane search must
    # agree with the quasi-saw semantics of the induced model
    rng = random.Random(45)
    for _ in range(30):
        arr = build_arrangement(random_rect_scene(rng, ("p", "q"), span=6))
        frame = induced_quasisaw(arr).frame
        for _ in range(8):
            fs = FaceSet(arr, sum(1 << f for f in range(len(arr.faces)) if rng.random() < 0.5))
            s = qs.rc_expand(frame, {f"f{f}" for f in fs.faces})
            assert fs_connected(fs) == qs.is_connected(s)
            assert fs_interior_connected(fs) == qs.is_interior_connected(s)
            other = FaceSet(arr, sum(1 << f for f in range(len(arr.faces)) if rng.random() < 0.3))
            t = qs.rc_expand(frame, {f"f{f}" for f in other.faces})
            assert fs_contact(fs, other) == qs.contact(s, t)
            assert fs_contact(other, fs) == qs.contact(s, t)
            expected = [
                {int(x[1:]) for x in comp if x in frame.w0} for comp in qs.components(s)
            ]
            assert sorted(map(sorted, expected)) == sorted(
                sorted(c.faces) for c in fs_components(fs)
            )


def _ci_over_edges_and_vertices(fs) -> bool:
    """Interior-connectedness by definition: faces joined through the
    edges and the vertices that lie wholly inside the set."""
    arr, outside = fs.arr, ~fs.mask
    inner = [m for m in arr.edge_masks + arr.vertex_masks if not m & outside]
    adj = plane_module._adjacency(len(arr.faces), inner)
    return len(plane_module._components(fs.mask, adj)) <= 1


def _checkerboard(n: int) -> PlaneScene:
    cells = {0: [], 1: []}
    for i in range(n):
        for j in range(n):
            cells[(i + j) % 2].append(rect(i, j, i + 1, j + 1))
    return PlaneScene.make({"b": cells[0], "w": cells[1]})


def test_interior_connected_matches_the_vertex_and_edge_definition():
    rng = random.Random(46)
    scenes = [random_rect_scene(rng, ("p", "q", "w"), span=6) for _ in range(25)]
    for arr in map(build_arrangement, scenes + [_checkerboard(3), _checkerboard(4)]):
        n = len(arr.faces)
        sets = list(arr.region_sets.values()) + [arr.full_set(), arr.empty_set()]
        sets += [FaceSet(arr, rng.getrandbits(n)) for _ in range(30)]
        sets += [fs_complement(fs) for fs in sets]
        for fs in sets:
            assert fs_interior_connected(fs) == _ci_over_edges_and_vertices(fs), fs.faces


def test_checkerboard_faces_meet_only_at_vertices():
    arr = build_arrangement(_checkerboard(3))
    black, white = arr.region_sets["b"], arr.region_sets["w"]
    outer = fs_complement(fs_sum(black, white))
    assert fs_connected(black) and not fs_interior_connected(black)
    assert fs_connected(white) and not fs_interior_connected(white)
    assert fs_interior_connected(fs_sum(black, white))
    assert fs_interior_connected(fs_sum(white, outer))
    assert not fs_interior_connected(fs_sum(black, outer))
    assert fs_contact(black, white) and fs_contact(black, outer)
    # the white cells left of and below the centre meet at one corner
    cell = {
        (int(f.rep[0]), int(f.rep[1])): FaceSet(arr, 1 << f.index)
        for f in arr.faces
        if f.bounded
    }
    left, below = cell[0, 1], cell[1, 0]
    assert fs_contact(left, below) and not fs_interior_connected(fs_sum(left, below))
    assert not fs_contact(left, cell[2, 1])


def test_face_sets_and_component_graphs_are_hashable(three_squares):
    arr = build_arrangement(three_squares)
    r1 = arr.region_sets["r1"]
    same = FaceSet(arr, sum(1 << f for f in r1.faces))
    assert hash(r1) == hash(same)
    assert len({r1, same, arr.region_sets["r2"]}) == 2
    # equal faces on another build of the same scene are another set
    assert r1 != build_arrangement(three_squares).region_sets["r1"]
    g = component_graph(three_squares, ["r1", "r2", "r3", "-(r1 + r2 + r3)"])
    assert hash(g) == hash(g)


def test_arrangement_is_freed_without_the_cycle_collector(three_squares):
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for scene in (three_squares, PlaneScene.make({"e": []})):
            arr = build_arrangement(scene)
            sets = arr.region_sets
            ref = weakref.ref(arr)
            del arr
            assert ref() is not None  # the face sets still refer to it
            del sets
            assert ref() is None
    finally:
        if gc_was_enabled:
            gc.enable()


def test_region_sets_are_derived_from_the_masks(three_squares):
    arr = build_arrangement(three_squares)
    sets = arr.region_sets
    assert list(sets) == ["r1", "r2", "r3"]
    assert {n: s.mask for n, s in sets.items()} == arr.region_masks
    assert dict(sets) == dict(arr.region_sets)
    assert [hash(s) for s in sets.values()] == [hash(s) for s in arr.region_sets.values()]
    with pytest.raises(TypeError):
        sets["r1"] = arr.empty_set()


def test_is_tree_edge_cases():
    def graph(n, edges):
        return ComponentGraph(tuple(f"n{i}" for i in range(n)), (), frozenset(edges))

    assert is_tree(graph(0, []))
    assert is_tree(graph(1, []))
    assert is_tree(graph(3, [(0, 1), (1, 2)]))
    assert not is_tree(graph(2, []))
    # n - 1 edges, but a triangle and an isolated node
    assert not is_tree(graph(4, [(0, 1), (1, 2), (0, 2)]))


def test_plane_does_not_use_the_quasisaw_core():
    # the plane predicates are the independent side of the cross-check
    # against induced quasi-saw models, so they must not call into it
    for name in ("mask_components", "term_mask", "holds", "check"):
        fn = getattr(qs, name)
        assert all(v is not fn for v in vars(plane_module).values()), name


def test_geometry_matches_golden():
    """Vertices, face points and region faces of four scenes, recorded
    as exact rationals: a fractional onion with holes, a separator gadget,
    two rectangles whose crossings are off the integer grid, and islands
    in holes (a face whose point probe meets an island first, a face with
    two islands of which one holds a holed island, a region made only of
    a hole's inside)."""
    golden = json.loads(GOLDEN.read_text())
    gadget = golden["k5m separator"]
    built = k5m_separator(scene_from_json(gadget["base"]), "b1", "b2", gadget["curve"])
    assert scene_to_json(built) == gadget["scene"]
    for name, entry in golden.items():
        arr = build_arrangement(scene_from_json(entry["scene"]))
        got = {
            "vertices": [[str(x), str(y)] for x, y in arr.vertices],
            "reps": [f.rep and [str(f.rep[0]), str(f.rep[1])] for f in arr.faces],
            "regions": {n: sorted(fs.faces) for n, fs in arr.region_sets.items()},
        }
        assert got == {key: entry[key] for key in got}, name
        # integral coordinates come out as plain ints
        coords = [c for v in arr.vertices for c in v]
        coords += [c for f in arr.faces if f.rep for c in f.rep]
        assert all(type(c) is int or c.denominator > 1 for c in coords), name


def _random_polygons(rng: random.Random) -> list[Polygon]:
    """Rectangles with fractional corners, holed squares (some with an
    island in the hole) and triangles with rational vertices."""
    x0 = Fraction(rng.randint(0, 30), rng.randint(1, 3))
    y0 = Fraction(rng.randint(0, 30), rng.randint(1, 3))
    kind = rng.choice(["rect", "holed", "triangle"])
    if kind == "rect":
        return [
            rect(
                x0, y0,
                x0 + Fraction(rng.randint(1, 24), rng.randint(1, 3)),
                y0 + Fraction(rng.randint(1, 24), rng.randint(1, 3)),
            )
        ]
    if kind == "holed":
        s, d = rng.randint(6, 24), Fraction(rng.randint(1, 5), rng.randint(2, 3))
        outer = Ring(((x0, y0), (x0 + s, y0), (x0 + s, y0 + s), (x0, y0 + s)))
        hole = Ring(
            ((x0 + d, y0 + d), (x0 + s - d, y0 + d), (x0 + s - d, y0 + s - d), (x0 + d, y0 + s - d))
        )
        polys = [Polygon(outer, (hole,))]
        if rng.random() < 0.5 and s - 2 * d > 2:
            polys.append(rect(x0 + d + 1, y0 + d + 1, x0 + s - d - 1, y0 + s - d - 1))
        return polys
    while True:
        pts = [
            (x0 + Fraction(rng.randint(-15, 15), rng.randint(1, 3)),
             y0 + Fraction(rng.randint(-15, 15), rng.randint(1, 3)))
            for _ in range(3)
        ]
        (ax, ay), (bx, by), (cx, cy) = pts
        if (bx - ax) * (cy - ay) != (by - ay) * (cx - ax):
            return [Polygon(Ring(tuple(pts)))]


def _reference_reps(arr) -> list:
    """The point of every bounded face as a probe against every edge finds
    it, from the arrangement's vertices and edges alone, in rationals.

    The half-edge cycles are rebuilt as the arrangement defines them:
    outgoing edges sorted counterclockwise from +x, the successor of
    (u, v) leaving v clockwise next to (v, u), cycles discovered from the
    vertices in index order.  The cycles of positive area are the bounded
    faces, in that order.  A face's point lies halfway from the midpoint m
    of its cycle's first half-edge to the nearest point where any edge
    meets the ray from m along the half-edge's left normal.  Coordinates
    are scaled to even integers first, so that m is integral too."""
    g = 2 * lcm(*(Fraction(c).denominator for v in arr.vertices for c in v))
    vs = [(int(x * g), int(y * g)) for x, y in arr.vertices]
    out: dict[int, list[int]] = {}
    for u, v in arr.edges:
        out.setdefault(u, []).append(v)
        out.setdefault(v, []).append(u)

    def ccw(u):
        def cmp(v1, v2):
            d1 = (vs[v1][0] - vs[u][0], vs[v1][1] - vs[u][1])
            d2 = (vs[v2][0] - vs[u][0], vs[v2][1] - vs[u][1])
            h1, h2 = (d[1] < 0 or (d[1] == 0 and d[0] < 0) for d in (d1, d2))
            return h1 - h2 or (d2[0] * d1[1] > d1[0] * d2[1]) - (d1[0] * d2[1] > d2[0] * d1[1])

        return cmp

    for u in out:
        out[u].sort(key=cmp_to_key(ccw(u)))
    seen, reps = set(), []
    for u in sorted(out):
        for v in out[u]:
            if (u, v) in seen:
                continue
            cyc, h = [], (u, v)
            while h not in seen:
                seen.add(h)
                cyc.append(h)
                targets = out[h[1]]
                h = (h[1], targets[targets.index(h[0]) - 1])
            ring = [vs[a] for a, _ in cyc]
            if sum(ring[i - 1][0] * y - x * ring[i - 1][1] for i, (x, y) in enumerate(ring)) <= 0:
                continue
            (ax, ay), (bx, by) = vs[cyc[0][0]], vs[cyc[0][1]]
            m = ((ax + bx) // 2, (ay + by) // 2)
            n = (ay - by, bx - ax)
            hits = []
            for p, q in ((vs[i], vs[j]) for i, j in arr.edges):
                s = (q[0] - p[0], q[1] - p[1])
                d = (p[0] - m[0], p[1] - m[1])
                den = n[0] * s[1] - n[1] * s[0]
                if den:
                    # m + t n = p + w s with t = tn / |den| and w = wn / |den|
                    sign = 1 if den > 0 else -1
                    tn = sign * (d[0] * s[1] - d[1] * s[0])
                    wn = sign * (d[0] * n[1] - d[1] * n[0])
                    if tn > 0 and 0 <= wn <= abs(den):
                        hits.append(Fraction(tn, abs(den)))
                elif d[0] * n[1] == d[1] * n[0]:  # the edge lies on the ray's line
                    for c in (p, q):
                        t = Fraction((c[0] - m[0]) * n[0] + (c[1] - m[1]) * n[1], n[0] ** 2 + n[1] ** 2)
                        if t > 0:
                            hits.append(t)
            t = min(hits) / 2
            reps.append(((m[0] + t * n[0]) / g, (m[1] + t * n[1]) / g))
    return reps


def test_face_points_match_an_all_edges_probe():
    for seed in range(200):
        rng = random.Random(seed)
        scene = PlaneScene.make(
            {f"r{i}": [p for _ in range(rng.randint(1, 3)) for p in _random_polygons(rng)]
             for i in range(rng.randint(1, 3))}
        )
        arr = build_arrangement(scene)
        assert [f.rep for f in arr.faces] == _reference_reps(arr) + [None], seed


def _even_odd(p, ring) -> bool:
    """Reference even-odd test on fractions: the parity of the ring edges
    that cross the rightward ray from p, with explicit crossing points."""
    x, y = p
    inside = False
    for (ax, ay), (bx, by) in zip(ring[-1:] + ring[:-1], ring):
        if (ay >= y) != (by >= y) and ax + (y - ay) * (bx - ax) / (by - ay) > x:
            inside = not inside
    return inside


def _on_ring(p, ring) -> bool:
    x, y = p
    for (ax, ay), (bx, by) in zip(ring[-1:] + ring[:-1], ring):
        if (bx - ax) * (y - ay) == (by - ay) * (x - ax) and (
            min(ax, bx) <= x <= max(ax, bx) and min(ay, by) <= y <= max(ay, by)
        ):
            return True
    return False


def _sample_ring(kind: str, rng: random.Random) -> list:
    if kind == "rect":
        scene = random_rect_scene(rng, ("r",), span=9)
        return list(rng.choice(scene.polygons("r")).outer.vertices)
    if kind == "nested":
        x0, y0, x1, y1 = rng.choice(nested_rings(rng, 6, strip=rng.random() < 0.5))
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    # a ring with slanted edges and rational vertices, simple or not
    return [
        (Fraction(rng.randint(-30, 30), rng.randint(1, 6)), Fraction(rng.randint(-30, 30), rng.randint(1, 6)))
        for _ in range(rng.randint(3, 6))
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["rect", "nested", "slanted"]),
    st.integers(0, 2**32),
    st.fractions(Fraction(-1, 4), Fraction(5, 4), max_denominator=9),
    st.fractions(Fraction(-1, 4), Fraction(5, 4), max_denominator=9),
    st.fractions(Fraction(1, 1000), 1000, max_denominator=1000),
    st.integers(1, 5),
)
def test_homogeneous_point_in_ring_matches_fractions(kind, seed, tx, ty, scale, k):
    # a point drawn relative to the ring's bounding box, then ring and
    # point scaled by a positive rational and brought to integers with
    # the point in homogeneous form (X, Y, W), W > 0, not reduced
    ring = _sample_ring(kind, random.Random(seed))
    xs, ys = [v[0] for v in ring], [v[1] for v in ring]
    p = (min(xs) + tx * (max(xs) - min(xs)), min(ys) + ty * (max(ys) - min(ys)))
    assume(not _on_ring(p, ring))
    grid = scale * lcm(*(Fraction(c * scale).denominator for v in ring for c in v))
    int_ring = [(int(x * grid), int(y * grid)) for x, y in ring]
    px, py = p[0] * grid, p[1] * grid
    w = k * lcm(px.denominator, py.denominator)
    expected = _even_odd(p, ring)
    assert plane_module._point_in_ring_h(int(px * w), int(py * w), w, int_ring) == expected
    assert point_in_polygon(p, Polygon(Ring(tuple(ring)))) == expected
