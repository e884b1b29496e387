import random

import pytest

from topoconn.parser import parse
from topoconn.quasisaw import (
    FrameClass,
    FrameError,
    OracleCapExceeded,
    QsModel,
    RcSet,
    UnboundVariableError,
    _oracle_connected,
    check,
    classify_frame,
    components,
    contact,
    full_points,
    is_connected,
    is_interior_connected,
    make_frame,
    model_from_json,
    model_to_json,
    oracle_check,
    oracle_closure,
    oracle_interior,
    rc_complement,
    rc_expand,
    rc_product,
    rc_sum,
)

from conftest import random_frame, random_model, random_formula


@pytest.fixture
def star():
    """Three depth-0 points sharing one depth-1 hub."""
    return make_frame(["x1", "x2", "x3"], [("z", ["x1", "x2", "x3"])])


@pytest.fixture
def star_model(star):
    return QsModel.make(star, {"r1": {"x1"}, "r2": {"x2"}, "r3": {"x3"}})


WIGGLY = parse(
    "ci(r1) & ci(r2) & ci(r3) & ci(r1+r2+r3) & !ci(r1+r2) & !ci(r1+r3)"
)


def test_frame_validation():
    with pytest.raises(FrameError):
        make_frame(["x", "x"], [])
    with pytest.raises(FrameError):
        make_frame(["x"], [("z", [])])
    with pytest.raises(FrameError):
        make_frame(["x"], [("z", ["y"])])
    with pytest.raises(FrameError):
        make_frame(["x"], [("x", ["x"])])


def test_rc_expand_and_full_points(star):
    assert full_points(rc_expand(star, {"x1"})) == {"x1", "z"}
    assert full_points(rc_expand(star, set())) == set()
    assert full_points(rc_expand(star, {"x1", "x2", "x3"})) == {
        "x1",
        "x2",
        "x3",
        "z",
    }
    with pytest.raises(FrameError):
        rc_expand(star, {"nope"})


def test_boolean_ops(star):
    a = rc_expand(star, {"x1"})
    b = rc_expand(star, {"x2"})
    assert rc_product(a, b).trace == frozenset()
    assert rc_sum(a, rc_complement(a)).trace == frozenset(star.w0)
    assert rc_complement(rc_complement(a)) == a


def test_connectivity_examples(star):
    assert is_connected(rc_expand(star, {"x1", "x2"}))
    assert is_connected(rc_expand(star, set()))
    two = make_frame(["x1", "x2", "x3"], [("z12", ["x1", "x2"])])
    assert not is_connected(rc_expand(two, {"x1", "x3"}))


def test_interior_connectivity_examples(star):
    assert not is_interior_connected(rc_expand(star, {"x1", "x2"}))
    assert is_interior_connected(rc_expand(star, {"x1", "x2", "x3"}))
    assert is_interior_connected(rc_expand(star, {"x1"}))


def test_contact_examples(star):
    r1 = rc_expand(star, {"x1"})
    r2 = rc_expand(star, {"x2"})
    assert contact(r1, r2)
    assert contact(r1, r1)
    two = make_frame(["x1", "x2", "x3"], [("z12", ["x1", "x2"])])
    assert not contact(rc_expand(two, {"x1"}), rc_expand(two, {"x3"}))


def test_check_examples(star_model):
    assert check(star_model, WIGGLY)
    assert check(star_model, parse("0 = 0"))
    bullet = parse("c(r1) & c(r2) & c(r3) & c(r1+r2+r3) & !c(r1+r2) & !c(r1+r3)")
    assert not check(star_model, bullet)  # the c-version of the pinched pair holds
    assert check(star_model, parse("c(r1+r2)"))
    with pytest.raises(UnboundVariableError):
        check(star_model, parse("missing = 0"))


def test_oracle_examples(star, star_model):
    assert oracle_check(star_model, WIGGLY)
    assert oracle_closure(frozenset({"z"}), star) == {"z"}
    assert oracle_interior(frozenset({"x1", "z"}), star) == {"x1"}
    big = make_frame([f"x{i}" for i in range(15)], [])
    with pytest.raises(OracleCapExceeded):
        oracle_check(QsModel.make(big, {}), parse("0 = 0"))


def test_classify_examples(star):
    assert classify_frame(star) == {FrameClass.ALL_QS, FrameClass.CON_QS}
    triangle = make_frame(
        ["x1", "x2", "x3"],
        [("z12", ["x1", "x2"]), ("z23", ["x2", "x3"]), ("z13", ["x1", "x3"])],
    )
    assert classify_frame(triangle) == {
        FrameClass.ALL_QS,
        FrameClass.CON_QS,
        FrameClass.CON_2QS,
    }
    stars2 = make_frame(
        ["x1", "x2"], [("z1", ["x1"]), ("z2", ["x2"])]
    )
    assert classify_frame(stars2) == {FrameClass.ALL_QS}


def test_model_json_roundtrip(star_model):
    data = model_to_json(star_model)
    assert model_from_json(data) == star_model
    bad = {"w0": ["x", "x"], "w1": [], "valuation": {}}
    with pytest.raises(FrameError):
        model_from_json(bad)
    bad2 = {"w0": ["x"], "w1": [], "valuation": {"r": ["y"]}}
    with pytest.raises(FrameError):
        model_from_json(bad2)


# ---------------------------------------------------------------------------
# Properties


def _random_rcset(rng, frame) -> RcSet:
    return rc_expand(frame, {x for x in frame.w0 if rng.random() < 0.5})


def test_boolean_algebra_laws_against_oracle():
    rng = random.Random(101)
    for _ in range(400):
        frame = random_frame(rng, max_w0=5, max_w1=5)
        a, b, c = (_random_rcset(rng, frame) for _ in range(3))
        one = rc_expand(frame, frame.w0)
        zero = rc_expand(frame, set())
        assert rc_sum(a, b) == rc_sum(b, a)
        assert rc_product(a, b) == rc_product(b, a)
        assert rc_sum(rc_sum(a, b), c) == rc_sum(a, rc_sum(b, c))
        assert rc_product(rc_product(a, b), c) == rc_product(a, rc_product(b, c))
        assert rc_sum(a, rc_product(a, b)) == a
        assert rc_product(a, rc_sum(a, b)) == a
        assert rc_product(a, rc_sum(b, c)) == rc_sum(rc_product(a, b), rc_product(a, c))
        assert rc_sum(a, rc_product(b, c)) == rc_product(rc_sum(a, b), rc_sum(a, c))
        assert rc_sum(a, rc_complement(a)) == one
        assert rc_product(a, rc_complement(a)) == zero
        # agreement with the literal topological operations
        fa, fb = full_points(a), full_points(b)
        assert full_points(rc_sum(a, b)) == oracle_closure(fa | fb, frame)
        inter = oracle_interior(fa & fb, frame)
        assert full_points(rc_product(a, b)) == oracle_closure(inter, frame)
        assert full_points(rc_complement(a)) == oracle_closure(
            frame.points - fa, frame
        )


def test_regularity():
    rng = random.Random(102)
    for _ in range(300):
        frame = random_frame(rng, max_w0=5, max_w1=5)
        s = _random_rcset(rng, frame)
        pts = full_points(s)
        assert oracle_closure(oracle_interior(pts, frame), frame) == pts


def test_interior_connected_implies_connected():
    rng = random.Random(103)
    for _ in range(500):
        frame = random_frame(rng, max_w0=5, max_w1=5)
        s = _random_rcset(rng, frame)
        if is_interior_connected(s):
            assert is_connected(s)


def test_components_partition_and_depth1_boundaries():
    rng = random.Random(104)
    for _ in range(300):
        frame = random_frame(rng, max_w0=5, max_w1=5)
        s = _random_rcset(rng, frame)
        comps = components(s)
        pts = full_points(s)
        assert frozenset().union(*comps) == pts if comps else not pts
        assert comps == sorted(comps, key=min)
        for i in range(len(comps)):
            assert _oracle_connected(comps[i], frame)
            for j in range(i + 1, len(comps)):
                assert not (comps[i] & comps[j])
                # no two components are connected together
                assert not _oracle_connected(comps[i] | comps[j], frame)


def test_check_agrees_with_oracle_small():
    rng = random.Random(105)
    names = ("a", "b", "cc")
    for _ in range(800):
        frame = random_frame(rng, max_w0=4, max_w1=4)
        model = random_model(rng, frame, names)
        f = random_formula(rng, names, 4)
        assert check(model, f) == oracle_check(model, f)
