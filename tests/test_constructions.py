import random
import warnings

import pytest

from topoconn.constructions import (
    PcpInstance,
    ThreeRegion,
    colour_comp,
    eq1vs2,
    eq2vs3,
    frame3,
    frame_i,
    k5m,
    k5m_separator,
    not_c,
    partition,
    pcp_from_json,
    phi_inf,
    phi_inf_c,
    phi_inf_i,
    phi_inf_star,
    phi_pcp,
    sc_part,
    stack3,
    stack3_z,
    stack_i,
    wiggly,
)
from topoconn.parser import parse
from topoconn.plane import PlaneScene, SceneError, build_arrangement, plane_eval, rect
from topoconn.quasisaw import check
from topoconn.syntax import (
    AtomF,
    Conn,
    Contact,
    IntConn,
    LanguageId,
    Not,
    Polarity,
    conjuncts,
    language_of,
    polarity,
    to_source,
    variables,
)

from conftest import random_frame, random_model


def lits(f) -> list:
    return list(conjuncts(f))


def count_lits(f) -> int:
    return len(lits(f))


def roundtrip(f) -> bool:
    return parse(to_source(f)) == f


# ---------------------------------------------------------------------------
# Template counts against the display ranges


def test_partition():
    assert to_source(partition(["r0", "r1"])) == "((r0 + r1) = 1 & (r0 . r1) = 0)"
    # k members: 1 sum-to-one atom + C(k,2) disjointness atoms
    for k in (1, 2, 3, 5):
        f = partition([f"r{i}" for i in range(k)])
        assert count_lits(f) == 1 + k * (k - 1) // 2
        assert roundtrip(f)
    with pytest.raises(ValueError):
        partition(["r0", "r0"])


def test_sc_part_counts():
    # k=4: 1 + 6 (partition) + 4 (nonempty) + 2 (distance-2 pairs) = 13
    assert count_lits(sc_part([f"r{i}" for i in range(4)])) == 13
    # general: pairs with 1 < j - i < k - 1
    for k in (1, 2, 3, 5, 6):
        f = sc_part([f"r{i}" for i in range(k)])
        gap_pairs = sum(
            1
            for i in range(k)
            for j in range(i + 1, k)
            if 1 < j - i < k - 1
        )
        assert count_lits(f) == 1 + k * (k - 1) // 2 + k + gap_pairs
        assert roundtrip(f)


def test_colour_comp():
    assert to_source(colour_comp("r", ["s0", "s1"])) == "!(C((r . s0), (r . s1)))"
    assert count_lits(colour_comp("r", [f"s{i}" for i in range(4)])) == 6


def test_not_c_shape():
    f = not_c("r", "s")
    assert f == parse("c(r) & c(s) & !c(r + s)")


def test_k5m_counts():
    f = k5m([f"v{i}" for i in range(1, 6)])
    # 5 interior-connected + 5 nonempty + 10 disjoint + 3 + 6 sums = 29
    assert count_lits(f) == 29
    assert roundtrip(f)
    # the first pair's sum is deliberately unconstrained
    sums = [
        c.atom.arg
        for c in lits(f)
        if isinstance(c, AtomF) and isinstance(c.atom, IntConn)
    ]
    srcs = {to_source(AtomF(IntConn(t))) for t in sums}
    assert "ci((v1 + v2))" not in srcs
    with pytest.raises(ValueError):
        k5m(["a", "a", "b", "c", "d"])


def test_stack_i_counts():
    assert count_lits(stack_i(["r1", "r2"])) == 2 + 1 + 0
    f = stack_i([f"r{i}" for i in range(1, 6)])
    n = 5
    assert count_lits(f) == n + n * (n - 1) // 2 + (n - 1) * (n - 2) // 2
    assert roundtrip(f)


def test_frame_i_counts():
    f = frame_i(["r0", "r1", "r2"])
    assert count_lits(f) == 3 + 3 + 3
    f6 = frame_i([f"r{i}" for i in range(6)])
    assert count_lits(f6) == 6 + 6 + 15


def test_stack3_counts():
    trs = [ThreeRegion(f"a{i}") for i in range(1, 4)]
    f = stack3(trs)
    # chains (2) + last mid (1) + gap pairs (1) + implicit 3 per region
    assert count_lits(f) == 2 + 1 + 1 + 9
    assert roundtrip(f)
    # arity 2: no gap pairs at all
    f2 = stack3(trs[:2])
    assert not any(
        isinstance(c, Not) and isinstance(c.arg, AtomF) and isinstance(c.arg.atom, Contact)
        and "mid" not in to_source(c) and "core" not in to_source(c)
        for c in lits(f2)
    )


def test_stack3_z_diff():
    trs = [ThreeRegion(f"a{i}") for i in range(1, 4)]
    base, switched = lits(stack3(trs)), lits(stack3_z("z", trs))
    assert len(switched) == len(base) + 1
    extra = [c for c in switched if c not in base]
    missing = [c for c in base if c not in switched]
    # one colouring conjunct added, the first chain conjunct rewritten
    assert len(extra) == 2 and len(missing) == 1
    assert any("-z" in to_source(c) for c in extra)


def test_frame3_counts():
    trs = [ThreeRegion(f"a{i}") for i in range(1, 4)]
    f = frame3(trs)
    assert count_lits(f) == (1 + 1 + 0) + 1 + 1 + 2 + 9
    assert roundtrip(f)
    with pytest.raises(ValueError):
        frame3(trs[:2])


# ---------------------------------------------------------------------------
# The infinite-components family


def test_phi_inf_shape():
    f = phi_inf()
    assert len(variables(f)) == 9
    assert count_lits(f) == 13 + 8 + 1 + 4 + 4 + 4
    rep = polarity(f)
    assert rep.conn == Polarity.ALL_POSITIVE
    assert rep.contact == Polarity.ALL_NEGATIVE
    assert language_of(f) == LanguageId.BCc
    assert roundtrip(f)


def test_phi_inf_i_shape():
    f = phi_inf_i()
    rep = polarity(f)
    assert rep.intconn == Polarity.ALL_POSITIVE
    assert rep.conn == Polarity.ABSENT
    assert language_of(f) == LanguageId.BCci
    assert count_lits(f) == count_lits(phi_inf())


def test_phi_inf_c_shape():
    f = phi_inf_c()
    assert language_of(f) == LanguageId.Bc
    assert not any(isinstance(a, Contact) for a in __atoms(f))
    # partition 7 + nonempty 4 + two 4-way splits as 3-literal blocks (24)
    # + subregions 8 + t nonempty 1 + chains 4 + one crossing block 3
    # + four layer blocks 12
    assert count_lits(f) == 7 + 4 + 24 + 8 + 1 + 4 + 3 + 12
    assert roundtrip(f)


def __atoms(f):
    from topoconn.syntax import atoms

    return atoms(f)


def test_phi_inf_star_shape():
    f = phi_inf_star()
    assert language_of(f) == LanguageId.BCci
    assert len(variables(f)) == 18
    # frame (27) + five stacks (21 each) + pairwise disjointness (153)
    assert count_lits(f) == 27 + 5 * 21 + 153
    assert roundtrip(f)


def test_phi_inf_i_entails_phi_inf_on_random_models():
    base, strong = phi_inf(), phi_inf_i()
    rng = random.Random(2024)
    names = variables(base)
    for _ in range(1200):
        frame = random_frame(rng, max_w0=4, max_w1=3)
        model = random_model(rng, frame, names)
        if check(model, strong):
            assert check(model, base)


# ---------------------------------------------------------------------------
# Running examples


def test_eq_formulas():
    assert count_lits(eq1vs2()) == 12
    assert count_lits(eq2vs3()) == 30
    assert count_lits(wiggly()) == 6
    assert language_of(eq1vs2()) == LanguageId.Bci
    assert language_of(wiggly()) == LanguageId.Bci
    for f in (eq1vs2(), eq2vs3(), wiggly()):
        assert roundtrip(f)


def test_eq1_on_three_squares():
    scene = PlaneScene.make(
        {
            "r1": [rect(0, 0, 1, 1)],
            "r2": [rect(1, 0, 2, 1)],
            "r3": [rect(0, 1, 2, 2)],
        }
    )
    assert plane_eval(build_arrangement(scene), eq1vs2())


# ---------------------------------------------------------------------------
# Word-problem encoding


def tiny_instance() -> PcpInstance:
    return PcpInstance.make(["a"], ["u"], {"a": "u"}, {"a": "u"})


def test_pcp_instance_validation():
    with pytest.raises(ValueError):
        PcpInstance.make([], ["u"], {}, {})
    with pytest.raises(ValueError):
        PcpInstance.make(["a"], ["a"], {"a": "a"}, {"a": "a"})
    with pytest.raises(ValueError):
        PcpInstance.make(["a"], ["u"], {"a": ""}, {"a": "u"})
    with pytest.raises(ValueError):
        PcpInstance.make(["a"], ["u"], {"a": "x"}, {"a": "u"})
    with pytest.raises(ValueError):
        PcpInstance.make(["a"], ["u"], {}, {"a": "u"})


def test_pcp_json_roundtrip():
    inst = PcpInstance.make(
        ["g", "h"], ["u", "v"], {"g": "uv", "h": "v"}, {"g": "u", "h": "vv"}
    )
    data = {
        "tiles": ["g", "h"],
        "letters": ["u", "v"],
        "w1": {"g": "uv", "h": "v"},
        "w2": {"g": "u", "h": "vv"},
    }
    assert pcp_from_json(data) == inst


def test_phi_pcp_small_instance_counts():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        f = phi_pcp(tiny_instance())
    assert language_of(f) == LanguageId.BCc
    assert polarity(f).contact == Polarity.ALL_NEGATIVE
    assert polarity(f).conn == Polarity.ALL_POSITIVE
    assert roundtrip(f)
    srcs = [to_source(c) for c in lits(f)]
    # colour-the-tracks family: 2 morphisms x 4 cells x 6 colour atoms
    track_atoms = [
        s for s in srcs
        if s.startswith("!(C(((r") and (". e1)" in s or ". e2)" in s)
    ]
    assert len(track_atoms) == 48
    # position variables: one per morphism letter position
    pos = [v for v in variables(f) if v.startswith("p1_") or v.startswith("p2_")]
    assert pos == ["p1_a_1", "p2_a_1"]
    # morphism subsumption atoms: p <= letter for each position
    assert srcs.count("(p1_a_1 . -u) = 0") == 1
    assert srcs.count("(p2_a_1 . -u) = 0") == 1


def test_phi_pcp_warns_below_hardness_threshold():
    with pytest.warns(UserWarning):
        phi_pcp(tiny_instance())
    big = PcpInstance.make(
        [f"t{i}" for i in range(7)],
        ["u"],
        {f"t{i}": "u" for i in range(7)},
        {f"t{i}": "u" for i in range(7)},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi_pcp(big)


def test_phi_pcp_tile_count_families():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = PcpInstance.make(
            ["g", "h"], ["u", "v"], {"g": "uv", "h": "v"}, {"g": "u", "h": "vv"}
        )
        f = phi_pcp(inst)
    srcs = [to_source(c) for c in lits(f)]
    # morphism subsumption atoms: sum over morphisms and tiles of word
    # length = 3 + 3; they have shape (p... . -letter) = 0
    for k in (1, 2):
        got = [
            s for s in srcs
            if s.startswith(f"(p{k}_") and (". -u)" in s or ". -v)" in s)
        ]
        assert len(got) == 3
    # alphabet symbols clashing with encoding variables are rejected
    clashing = PcpInstance.make(["r0"], ["u"], {"r0": "u"}, {"r0": "u"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            phi_pcp(clashing)


def test_phi_pcp_rejects_alphabet_clash():
    inst = PcpInstance.make(["t"], ["u"], {"t": "u"}, {"t": "u"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError):
            phi_pcp(inst)  # "t" collides with the crossing-region variable


# ---------------------------------------------------------------------------
# Separator gadget


def test_k5m_separator_example():
    scene = PlaneScene.make({"b1": [rect(0, 0, 1, 1)], "b2": [rect(4, 0, 5, 1)]})
    out = k5m_separator(scene, "b1", "b2", [(-1, -1), (2, -1), (2, 2), (-1, 2)])
    arr = build_arrangement(out)
    assert plane_eval(arr, k5m(["a1", "a2", "a3", "a4", "a5"]))
    assert plane_eval(arr, parse("!C(a1, a2) & b1 <= a1 & b2 <= a2"))


def test_k5m_separator_keeps_coordinates_exact():
    # integral coordinates are plain ints, on which '/' would give floats
    scene = PlaneScene.make({"b1": [rect(2, 2, 3, 3)], "b2": [rect(9, 1, 11, 3)]})
    for curve in (
        [(1, 1), (4, 1), (4, 4), (1, 4)],
        [(0, 0), (5, 0), (5, 5), (3, 5), (3, 7), (0, 7)],
    ):
        out = k5m_separator(scene, "b1", "b2", curve)
        coords = [
            c
            for _, polys in out.regions
            for poly in polys
            for ring in poly.rings()
            for v in ring.vertices
            for c in v
        ]
        assert not [c for c in coords if isinstance(c, float)]
        assert all(type(c) is int or c.denominator > 1 for c in coords)


def test_k5m_separator_rejects_touching_curve():
    scene = PlaneScene.make({"b1": [rect(0, 0, 1, 1)], "b2": [rect(4, 0, 5, 1)]})
    with pytest.raises(SceneError):
        k5m_separator(scene, "b1", "b2", [(1, -1), (2, -1), (2, 2), (1, 2)])
    with pytest.raises(SceneError):
        # curve separates nothing: both squares outside
        k5m_separator(scene, "b1", "b2", [(8, 8), (9, 8), (9, 9), (8, 9)])


def test_not_c_on_scenes():
    corner = PlaneScene.make({"r": [rect(0, 0, 1, 1)], "s": [rect(1, 1, 2, 2)]})
    assert not plane_eval(build_arrangement(corner), not_c("r", "s"))
    apart = PlaneScene.make({"r": [rect(0, 0, 1, 1)], "s": [rect(3, 0, 4, 1)]})
    assert plane_eval(build_arrangement(apart), not_c("r", "s"))
