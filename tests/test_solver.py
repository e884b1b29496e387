import json
import random
import time
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topoconn.constructions import eq1vs2, eq2vs3, k5m, partition, phi_inf, phi_inf_i, wiggly
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
    DEFAULT_WORK_LIMIT,
    Bounds,
    ResourceExhausted,
    Sat,
    UnsatUpTo,
    _Budget,
    _Cube,
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


LADDER = Path(__file__).resolve().parent / "data" / "work_ladder.json"


def _ladder_corpus():
    """The formulas of tests/data/work_ladder.json, each with its class
    and bounds: ``phi_inf``, three generated conjunctions and 150 seeded
    random formulas, most of them with several cubes."""
    yield "phi_inf", phi_inf(), FrameClass.ALL_QS, Bounds(6, 8)
    yield "eq1vs2", eq1vs2(), FrameClass.CON_QS, Bounds(4, 6)
    yield (
        "partition(m0..m3)",
        partition([f"m{i}" for i in range(4)]),
        FrameClass.ALL_QS,
        Bounds(4, 6),
    )
    yield "k5m(v1..v5)", k5m([f"v{i}" for i in range(1, 6)]), FrameClass.CON_QS, Bounds(4, 6)
    rng = random.Random(2510)
    classes = list(FrameClass)
    for i in range(150):
        f = random_formula(rng, ("a", "b", "cc"), 3)
        yield f"random {i}", f, classes[i % 3], Bounds(3, 3)


def test_tuple_loop_work_is_pinned():
    """The cell-type tuple loop charges one unit per nondecreasing tuple
    of a cube, whether or not it witnesses every disequation, so these
    totals pin it."""
    for f, cls in ((phi_inf(), FrameClass.ALL_QS), (phi_inf_i(), FrameClass.CON_QS)):
        assert solve(f, cls, Bounds(7, 8)).frames_examined == 245496
        assert solve(f, cls, Bounds(6, 8)).frames_examined == 74824


def test_work_ladder_replays():
    """Every outcome of ``solve`` under a ladder of work limits is
    pinned: the exhaustion message, the ``frames_examined`` of a
    refutation or the certificate.  A change to how the search orders or
    charges its work moves some rung."""
    ladder = json.loads(LADDER.read_text())
    limits = ladder["limits"]
    cases = list(_ladder_corpus())
    assert [c["name"] for c in ladder["cases"]] == [name for name, *_ in cases]
    for case, (name, f, cls, bounds) in zip(ladder["cases"], cases):
        assert case["formula"] == to_source(f), name
        assert (case["class"], case["bounds"]) == (cls.value, [bounds.max_w0, bounds.max_w1])
        got = []
        for limit in limits:
            try:
                result = solve(f, cls, bounds, DEFAULT_WORK_LIMIT if limit is None else limit)
            except ResourceExhausted as exc:
                got.append(str(exc))
                continue
            got.append(
                model_to_json(result.model)
                if isinstance(result, Sat)
                else result.frames_examined
            )
        assert got == case["outcomes"], name


class _ScriptedCube(_Cube):
    """A cube with drawn tuple-loop data: the disequations each type
    witnesses, and the dead types, which lie in both terms of a negative
    contact literal; ``_Cube`` marks those with -1.  Its family step
    logs each tuple it is asked about, spends a scripted amount of work
    and gives a scripted answer, both fixed by the tuple alone."""

    def __init__(self, kept, witnessed, all_neq, dead, work, seed):
        self.kept, self.all_neq, self.work = kept, all_neq, work
        self.drawn, self.dead = witnessed, dead
        self.witnessed = [-1 if dead >> j & 1 else w for j, w in enumerate(witnessed)]
        self._suffix = None
        self.seed = seed
        self.calls = []

    def family(self, idx, base, connected, budget_k):
        self.calls.append((idx, budget_k))
        rng = random.Random(f"{self.seed}:{idx}")
        self.work.spend(rng.randrange(4))
        found = tuple(sorted(rng.sample(range(3, 16), rng.choice((0, 0, 1, 2)))))
        return found if rng.random() < 0.6 and len(found) <= budget_k else None


def _flat_search(cube, n0, best):
    """The tuple loop as a flat pass over every nondecreasing tuple: one
    unit per tuple, and the family step only for the tuples that witness
    every disequation and hold no dead type."""
    for idx in combinations_with_replacement(cube.kept, n0):
        if not best[0] and idx > best[1]:
            break
        cube.work.spend()
        seen = 0
        for j in idx:
            seen |= cube.drawn[j]
        if seen != cube.all_neq or any(cube.dead >> j & 1 for j in idx):
            continue
        budget_k = best[0] if idx <= best[1] else best[0] - 1
        family = cube.family(idx, None, False, budget_k)
        if family is not None and (len(family), idx, family) < best:
            best = (len(family), idx, family)
    return best


@st.composite
def _tuple_loops(draw):
    n_types = draw(st.integers(1, 7))
    kept = sorted(draw(st.sets(st.integers(0, n_types - 1), min_size=1)))
    all_neq = (1 << draw(st.integers(0, 4))) - 1
    witnessed = [draw(st.integers(0, all_neq)) for _ in range(n_types)]
    dead = draw(st.integers(0, (1 << n_types) - 1)) if draw(st.booleans()) else 0
    n0 = draw(st.integers(1, 5))
    # the best candidate an earlier cube left: none, or one with or
    # without depth-1 points; without, the loop stops at the first tuple
    # past it, possibly inside a block of tuples that cannot pass
    kind = draw(st.sampled_from(("none", "no depth-1 points", "some depth-1 points")))
    if kind == "none":
        best = (4, (), ())
    else:
        idx = tuple(sorted(draw(st.lists(st.integers(0, n_types - 1), min_size=n0, max_size=n0))))
        best = (0, idx, ()) if kind == "no depth-1 points" else (2, idx, (3, 5))
    return kept, witnessed, all_neq, dead, n0, best, draw(st.integers(0, 99))


@settings(max_examples=300, deadline=None)
@given(_tuple_loops())
def test_prefix_search_matches_the_flat_tuple_loop(loop):
    """The pruned prefix search of ``_Cube.search`` sends the same tuples
    to the family step as the flat loop, in the same order and with the
    same budgets, charges the same total and runs out of work at the
    same point under every limit."""
    kept, witnessed, all_neq, dead, n0, best, seed = loop

    def run(search, limit):
        cube = _ScriptedCube(kept, witnessed, all_neq, dead, _Budget(limit), seed)
        try:
            found = search(cube, n0, best)
        except ResourceExhausted:
            return "exhausted", cube.calls, None
        return found, cube.calls, cube.work.used

    def prefix_search(cube, n0, best):
        return cube.search(n0, [], False, best)

    expected = run(_flat_search, 10**9)
    assert run(prefix_search, 10**9) == expected
    for limit in range(expected[2] + 1):
        assert run(prefix_search, limit) == run(_flat_search, limit), limit
