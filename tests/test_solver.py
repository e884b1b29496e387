import json
import random
import time
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topoconn.constructions import eq1vs2, eq2vs3, k5m, partition, wiggly
from topoconn.parser import parse
from topoconn.quasisaw import (
    FrameClass,
    QsModel,
    check,
    classify_frame,
    make_frame,
    model_to_json,
)
from topoconn.solver import (
    Bounds,
    ResourceExhausted,
    Sat,
    UnsatUpTo,
    _Budget,
    _cell_types,
    _var_masks,
    as_literal_conjunction,
    enumerate_models,
    solve,
    solve_rc3,
    solve_rcp3,
    verify,
)
from topoconn.syntax import (
    ONE,
    ZERO,
    AtomF,
    Complement,
    Conn,
    Eq,
    IntConn,
    Not,
    Or,
    Product,
    Sum,
    Term,
    Variable,
    conj,
    nnf,
    term_variables,
    to_source,
    variables,
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
    assert result.frames_examined == 501295


def test_negative_connectedness_work_is_pinned():
    """wiggly's negative connectedness literals make the family search
    branch over bipartitions; the work it spends at (5, 8) is pinned, so
    any change to that search's pruning or charging shows here."""
    result = solve_rcp3(WIGGLY, Bounds(5, 8))
    assert isinstance(result, UnsatUpTo)
    assert result.frames_examined == 62320


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
    golden = json.loads(GOLDEN.read_text())["conjunctions at (4,6)"]
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
    assert json.loads(json.dumps(got)) == golden


def test_fallback_certificates_match_golden():
    """Formulas with more than one cube in their disjunctive normal form:
    their certificates and the work spent on a refutation are pinned at
    (3,3) in every class."""
    golden = json.loads(GOLDEN.read_text())["other formulas at (3,3)"]
    got = {}
    for source in golden:
        f = parse(source)
        assert as_literal_conjunction(f) is None, source
        got[source] = {}
        for cls in FrameClass:
            result = solve(f, cls, Bounds(3, 3))
            got[source][cls.value] = (
                model_to_json(result.model)
                if isinstance(result, Sat)
                else {"unsat-up-to": result.frames_examined}
            )
    assert got == golden


def _first_model_in_canonical_order(f, cls, bounds):
    """Reference for the certificate contract: enumerate the candidates
    of every cell type, with no pruning, in the canonical order (n0, n1,
    nondecreasing cell-type tuple, ascending family of distinct successor
    sets of size >= 2), and return the first one whose frame lies in the
    class and that satisfies ``f``."""
    names = variables(f)
    for n0 in range(1, bounds.max_w0 + 1):
        w0 = [f"x{j}" for j in range(n0)]
        sizes = (2,) if cls is FrameClass.CON_2QS else range(2, n0 + 1)
        base = [m for m in range(1 << n0) if m.bit_count() in sizes]
        for n1 in range(bounds.max_w1 + 1):
            frames = []
            for family in combinations(base, n1):
                w1 = [
                    (f"z{i}", [w0[j] for j in range(n0) if m >> j & 1])
                    for i, m in enumerate(family)
                ]
                frame = make_frame(w0, w1)
                if cls in classify_frame(frame):
                    frames.append(frame)
            for cts in combinations_with_replacement(range(1 << len(names)), n0):
                valuation = {
                    name: {w0[j] for j in range(n0) if cts[j] >> i & 1}
                    for i, name in enumerate(names)
                }
                for frame in frames:
                    model = QsModel.make(frame, valuation)
                    if check(model, f):
                        return model
    return None


def test_solve_returns_the_first_model_in_canonical_order():
    # formulas with a disjunction under their polarity, so several cubes
    rng = random.Random(20240611)
    bounds = Bounds(3, 3)
    formulas = []
    while len(formulas) < 200:
        f = random_formula(rng, ("a", "b", "cc"), 3)
        if as_literal_conjunction(f) is None:
            formulas.append(f)
    start = time.perf_counter()
    for f in formulas:
        for cls in FrameClass:
            expected = _first_model_in_canonical_order(f, cls, bounds)
            got = solve(f, cls, bounds)
            if expected is None:
                assert isinstance(got, UnsatUpTo), to_source(f)
            else:
                assert isinstance(got, Sat), to_source(f)
                assert model_to_json(got.model) == model_to_json(expected)
    assert time.perf_counter() - start < 15


def _nnf_literals(f):
    """The literals of ``f`` left to right, or None when its negation
    normal form contains a disjunction."""
    if isinstance(f, AtomF):
        return [(True, f.atom)]
    if isinstance(f, Not):
        return [(False, f.arg.atom)]
    if isinstance(f, Or):
        return None
    left, right = _nnf_literals(f.left), _nnf_literals(f.right)
    return None if left is None or right is None else left + right


def test_as_literal_conjunction_matches_the_negation_normal_form():
    rng = random.Random(4711)
    conjunctions = 0
    for k in range(10_000):
        f = random_formula(rng, ("a", "b"), 1 + k % 5)
        expected = _nnf_literals(nnf(f))
        assert as_literal_conjunction(f) == expected, to_source(f)
        conjunctions += expected is not None
    assert 1000 < conjunctions < 9000


def test_cube_expansion_is_charged():
    # 12 disjunctions under one unsatisfiable literal: 2^12 dead cubes.
    # Each partial cube made at a disjunction costs one unit per literal;
    # the one of depth d holds the spine literal and d more.  Besides,
    # the two cell types of a and the successor-set lists of levels 1-3
    # (2^n0 units each) are charged.
    clause = Or(AtomF(Conn(Variable("a"))), AtomF(IntConn(Variable("a"))))
    never = Not(AtomF(Eq(Variable("a"), Variable("a"))))
    f = conj([never] + [clause] * 12)
    result = solve(f, FrameClass.ALL_QS, Bounds(3, 3))
    expansion = sum(2**d * (d + 1) for d in range(1, 13))
    assert result == UnsatUpTo(Bounds(3, 3), 2 + (2 + 4 + 8) + expansion)
    # 2^20 cubes: the work limit stops the expansion early
    start = time.perf_counter()
    with pytest.raises(ResourceExhausted):
        solve(conj([never] + [clause] * 20), work_limit=1000)
    assert time.perf_counter() - start < 5


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
@given(st.integers(1, 5), st.lists(st.tuples(st.booleans(), terms, terms), max_size=4))
def test_cell_types_match_brute_force(v, equations):
    # only the positive equations shape the list
    names = NAMES[:v]
    literals = [
        (positive, Eq(l, r))
        for positive, l, r in equations
        if term_variables(l) | term_variables(r) <= set(names)
    ]
    expected = [
        ct
        for ct in range(1 << v)
        if all(
            _holds(a.left, ct, names) == _holds(a.right, ct, names)
            for positive, a in literals
            if positive
        )
    ]
    cts, masks = _cell_types(literals, names, _Budget(10**6))
    assert cts == expected
    if cts:
        assert masks == _var_masks(cts, names)


def test_cell_type_enumeration_is_charged():
    # 18 pairwise disjoint variables keep 19 cell types, and building
    # them stays within a small budget
    names = tuple(f"p{i:02d}" for i in range(18))
    literals = [
        (True, Eq(Product(Variable(a), Variable(b)), ZERO))
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    work = _Budget(1000)
    assert _cell_types(literals, names, work)[0] == [0] + [1 << i for i in range(18)]
    assert work.used == 2 * sum(range(1, 19))
    with pytest.raises(ResourceExhausted):
        _cell_types([], names, _Budget(1000))
