import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topoconn.constructions import eq1vs2, eq2vs3, k5m, partition, wiggly
from topoconn.parser import parse
from topoconn.quasisaw import FrameClass, check, classify_frame, model_to_json
from topoconn.solver import (
    Bounds,
    ResourceExhausted,
    Sat,
    UnsatUpTo,
    _Budget,
    _cell_types,
    enumerate_models,
    solve,
    solve_rc3,
    solve_rcp3,
    verify,
)
from topoconn.syntax import (
    ONE,
    ZERO,
    Complement,
    Product,
    Sum,
    Term,
    Variable,
    term_variables,
    to_source,
)

from conftest import random_formula

WIGGLY = wiggly()
GOLDEN = Path(__file__).resolve().parent / "data" / "solver_golden.json"


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds(0, 3)
    with pytest.raises(ValueError):
        Bounds(1, -1)


def test_wiggly_has_minimal_hub_model():
    result = solve(WIGGLY, FrameClass.CON_QS, Bounds(3, 1))
    assert isinstance(result, Sat)
    frame = result.model.frame
    assert len(frame.w0) == 3 and len(frame.w1) == 1
    (_, succ), = frame.w1
    assert succ == frozenset(frame.w0)
    traces = [result.model.traces[f"r{i}"] for i in (1, 2, 3)]
    assert sorted(len(t) for t in traces) == [1, 1, 1]
    assert frozenset().union(*traces) == frozenset(frame.w0)
    assert verify(result, WIGGLY)


def test_wiggly_unsat_over_two_successor_frames():
    result = solve_rcp3(WIGGLY, Bounds(6, 8))
    assert isinstance(result, UnsatUpTo)
    assert result.bounds == Bounds(6, 8)
    assert result.frames_examined > 0


def test_contradiction_unsat():
    result = solve(parse("r1 != 0 & r1 = 0"), FrameClass.ALL_QS, Bounds(4, 4))
    assert isinstance(result, UnsatUpTo)


def test_eq1_witnesses():
    result = solve_rc3(eq1vs2(), Bounds(3, 3))
    assert isinstance(result, Sat)
    assert len(result.model.frame.w0) == 3 and len(result.model.frame.w1) == 3
    result2 = solve_rcp3(eq1vs2(), Bounds(3, 3))
    assert isinstance(result2, Sat)
    assert FrameClass.CON_2QS in classify_frame(result2.model.frame)


def test_eq2_witness_shape():
    result = solve_rc3(eq2vs3(), Bounds(5, 10))
    assert isinstance(result, Sat)
    assert len(result.model.frame.w0) == 5
    assert len(result.model.frame.w1) == 10
    assert verify(result, eq2vs3())


def test_single_cell_model():
    result = solve_rcp3(parse("ci(r1) & r1 != 0"), Bounds(3, 3))
    assert isinstance(result, Sat)
    assert len(result.model.frame.w0) == 1


def test_trivial_formula():
    result = solve(parse("0 = 0"), FrameClass.CON_QS, Bounds(2, 2))
    assert isinstance(result, Sat)
    assert verify(result, parse("0 = 0"))


def test_verify_detects_tampering():
    result = solve(WIGGLY, FrameClass.CON_QS, Bounds(3, 1))
    assert isinstance(result, Sat)
    # drop the hub point: the pinched sums become trivially disconnected
    from topoconn.quasisaw import QsModel, make_frame

    frame = make_frame(result.model.frame.w0, [])
    broken = Sat(QsModel(frame, result.model.valuation), result.witness_class)
    assert not verify(broken, WIGGLY)


def test_verify_requires_sat():
    with pytest.raises(ValueError):
        verify(UnsatUpTo(Bounds(1, 1), 0), parse("0 = 0"))


def test_language_preconditions():
    with pytest.raises(ValueError):
        solve_rc3(parse("c(r1)"))
    with pytest.raises(ValueError):
        solve_rcp3(parse("C(r1,r2)"))


def test_work_limit():
    with pytest.raises(ResourceExhausted):
        solve(eq2vs3(), FrameClass.CON_QS, Bounds(5, 10), work_limit=10)


def test_solver_matches_enumerator_on_random_formulas():
    rng = random.Random(31337)
    bounds = Bounds(3, 3)
    names = ("a", "b", "cc")
    for _ in range(40):
        f = random_formula(rng, names, 3)
        for cls in FrameClass:
            got = solve(f, cls, bounds)
            brute = any(check(m, f) for m in enumerate_models(f, cls, bounds))
            assert isinstance(got, Sat) == brute, to_source(f)
            if isinstance(got, Sat):
                assert verify(got, f)
                assert cls in classify_frame(got.model.frame)


def test_bound_monotonicity():
    rng = random.Random(999)
    names = ("a", "b")
    for _ in range(30):
        f = random_formula(rng, names, 2)
        small = solve(f, FrameClass.ALL_QS, Bounds(2, 2))
        if isinstance(small, Sat):
            bigger = solve(f, FrameClass.ALL_QS, Bounds(3, 4))
            assert isinstance(bigger, Sat)


def test_class_monotonicity():
    rng = random.Random(998)
    names = ("a", "b")
    bounds = Bounds(3, 3)
    for _ in range(30):
        f = random_formula(rng, names, 2)
        sat2 = isinstance(solve(f, FrameClass.CON_2QS, bounds), Sat)
        satc = isinstance(solve(f, FrameClass.CON_QS, bounds), Sat)
        sata = isinstance(solve(f, FrameClass.ALL_QS, bounds), Sat)
        if sat2:
            assert satc
        if satc:
            assert sata


def test_determinism():
    for f in (WIGGLY, eq1vs2(), parse("c(a) | ci(b)")):
        first = solve(f, FrameClass.CON_QS, Bounds(3, 3))
        second = solve(f, FrameClass.CON_QS, Bounds(3, 3))
        if isinstance(first, Sat):
            assert model_to_json(first.model) == model_to_json(second.model)
        else:
            assert first == second


def test_certificates_match_golden():
    """The solver returns the first model in its canonical order; the
    certificates recorded in tests/data/solver_golden.json must not move."""
    formulas = {
        "eq1vs2": eq1vs2(),
        "wiggly": WIGGLY,
        "k5m(v1..v5)": k5m([f"v{i}" for i in range(1, 6)]),
        "partition(m0..m3)": partition([f"m{i}" for i in range(4)]),
    }
    got = {}
    for name, f in formulas.items():
        got[name] = {}
        for cls in FrameClass:
            result = solve(f, cls, Bounds(4, 6))
            got[name][cls.value] = (
                model_to_json(result.model) if isinstance(result, Sat) else "unsat-up-to"
            )
    assert json.loads(json.dumps(got)) == json.loads(GOLDEN.read_text())


NAMES = ("a", "b", "c", "d", "e")

terms = st.recursive(
    st.sampled_from([Variable(n) for n in NAMES] + [ZERO, ONE]),
    lambda sub: st.one_of(
        st.builds(Sum, sub, sub),
        st.builds(Product, sub, sub),
        st.builds(Complement, sub),
    ),
    max_leaves=6,
)


def _holds(t: Term, ct: int, names: tuple[str, ...]) -> bool:
    if isinstance(t, Variable):
        return bool(ct >> names.index(t.name) & 1)
    if isinstance(t, Sum):
        return _holds(t.left, ct, names) or _holds(t.right, ct, names)
    if isinstance(t, Product):
        return _holds(t.left, ct, names) and _holds(t.right, ct, names)
    if isinstance(t, Complement):
        return not _holds(t.arg, ct, names)
    return t == ONE


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(terms, terms), max_size=4))
def test_cell_types_match_brute_force(v, equations):
    names = NAMES[:v]
    equations = [
        (l, r)
        for l, r in equations
        if term_variables(l) | term_variables(r) <= set(names)
    ]
    expected = [
        ct
        for ct in range(1 << v)
        if all(_holds(l, ct, names) == _holds(r, ct, names) for l, r in equations)
    ]
    assert _cell_types(equations, names, _Budget(10**6)) == expected


def test_cell_type_enumeration_is_charged():
    # 18 pairwise disjoint variables keep 19 cell types, and building
    # them stays within a small budget
    names = tuple(f"p{i:02d}" for i in range(18))
    equations = [
        (Product(Variable(a), Variable(b)), ZERO)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    work = _Budget(1000)
    assert _cell_types(equations, names, work) == [0] + [1 << i for i in range(18)]
    assert work.used == 2 * sum(range(1, 19))
    with pytest.raises(ResourceExhausted):
        _cell_types([], names, _Budget(1000))
