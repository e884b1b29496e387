import json
import random
import time
from itertools import combinations, combinations_with_replacement, product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from topoconn.constructions import eq1vs2, eq2vs3, k5m, partition, phi_inf, phi_inf_i, wiggly
from topoconn import solver
from topoconn.parser import parse
from topoconn.quasisaw import (
    FrameClass,
    QsModel,
    check,
    classify_frame,
    make_frame,
    mask_components,
    model_to_json,
)
from topoconn.solver import (
    DEFAULT_WORK_LIMIT,
    Bounds,
    ResourceExhausted,
    Sat,
    UnsatUpTo,
    _Budget,
    _ConnConstraint,
    _CoverConstraint,
    _Cube,
    _base_masks,
    _bipartitions,
    _cell_types,
    _meet,
    _minimal_family,
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
    Contact,
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


def _replay_ladder(cases, corpus, limits):
    """Solve each formula of ``corpus`` under every limit and compare
    the outcomes with the recorded ``cases``."""
    corpus = list(corpus)
    assert [c["name"] for c in cases] == [name for name, *_ in corpus]
    for case, (name, f, cls, bounds) in zip(cases, corpus):
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


def test_work_ladder_replays():
    """Every outcome of ``solve`` under a ladder of work limits is
    pinned: the exhaustion message, the ``frames_examined`` of a
    refutation or the certificate.  A change to how the search orders or
    charges its work moves some rung."""
    ladder = json.loads(LADDER.read_text())
    _replay_ladder(ladder["cases"], _ladder_corpus(), ladder["limits"])


NEGATIVES_LADDER = Path(__file__).resolve().parent / "data" / "work_ladder_negatives.json"


def _pair_term(rng, names):
    a, b = (Variable(n) for n in rng.sample(names, 2))
    return rng.choice((a, Sum(a, b), Product(a, b), Complement(a)))


def _negatives_corpus():
    """Forty seeded literal conjunctions, each with two or three negative
    ``c``/``ci`` literals and one or two positive literals, at (4,4) in
    connected quasi-saws and in connected 2-quasi-saws.  At four points
    a trace has up to seven bipartitions, so the family search branches
    over hundreds of bipartition choices at once; the random formulas of
    the main ladder are at (3,3), where a trace has at most three."""
    rng = random.Random(2611)
    names = ("a", "b", "cc")
    for i in range(40):
        literals = [
            Not(AtomF(rng.choice((Conn, IntConn))(_pair_term(rng, names))))
            for _ in range(rng.randint(2, 3))
        ]
        for _ in range(rng.randint(1, 2)):
            kind = rng.randrange(4)
            if kind == 2:
                literals.append(AtomF(Contact(_pair_term(rng, names), _pair_term(rng, names))))
            elif kind == 3:
                literals.append(Not(AtomF(Eq(_pair_term(rng, names), ZERO))))
            else:
                literals.append(AtomF((Conn, IntConn)[kind](_pair_term(rng, names))))
        rng.shuffle(literals)
        f = conj(literals)
        for cls in (FrameClass.CON_QS, FrameClass.CON_2QS):
            yield f"negatives {i} in {cls.value}", f, cls, Bounds(4, 4)


def test_work_ladder_with_several_negatives_replays():
    """The ladder of work limits on formulas whose family search
    branches over the bipartitions of two or three negative traces; the
    outcomes were recorded before the bipartition choices were searched
    as prefixes, so a pruned block charged differently moves a rung."""
    limits = json.loads(LADDER.read_text())["limits"]
    cases = json.loads(NEGATIVES_LADDER.read_text())["cases"]
    _replay_ladder(cases, _negatives_corpus(), limits)


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

    def family(self, idx, base, hits, connected, budget_k):
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
        family = cube.family(idx, None, None, False, budget_k)
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
        return cube.search(n0, [], [], False, best)

    expected = run(_flat_search, 10**9)
    assert run(prefix_search, 10**9) == expected
    for limit in range(expected[2] + 1):
        assert run(prefix_search, limit) == run(_flat_search, limit), limit


# The family search over bitsets: successor sets of a level are
# positions in ``base``, and the tests below rebuild every mask with a
# comprehension over ``base``.


def _hits(base, n0):
    return [sum(1 << i for i, m in enumerate(base) if m >> j & 1) for j in range(n0)]


def _positions(base, allowed, keep):
    """The positions in ``base``, among ``allowed``, of the sets that
    ``keep`` accepts."""
    return sum(1 << i for i, m in enumerate(base) if allowed >> i & 1 and keep(m))


@st.composite
def _family_literals(draw):
    n0 = draw(st.integers(1, 6))
    cls = draw(st.sampled_from(list(FrameClass)))
    traces = st.integers(0, (1 << n0) - 1)
    contact = draw(st.lists(st.tuples(st.booleans(), traces, traces), max_size=3))
    conn = draw(st.lists(st.tuples(st.booleans(), st.booleans(), traces), max_size=3))
    return n0, cls, contact, conn


@settings(max_examples=300, deadline=None)
@given(_family_literals())
def test_family_masks_match_comprehensions(literals):
    """``_meet``, the negative-contact filter, the cover candidates, the
    two-counter candidates of ``c``/``ci`` with the inside mask of
    ``ci``, and the crossing masks of each negative trace, each against
    a comprehension over ``base``.  With one cell type per point, a
    term's trace is its mask."""
    n0, cls, contact, conn = literals
    base = _base_masks(n0, cls)
    hits = _hits(base, n0)
    everything = (1 << len(base)) - 1
    for t in range(1 << n0):
        assert _meet(hits, t) == _positions(base, everything, lambda m: m & t)
        assert _meet(hits, ~t) == _positions(base, everything, lambda m: m & ~t)

    # the reference: the list comprehensions of the family step
    expected = None
    forbidden = [(t1, t2) for positive, t1, t2 in contact if not positive]
    covers = [(t1, t2) for positive, t1, t2 in contact if positive and not t1 & t2]
    pos_conn = [(i, t) for positive, i, t in conn if positive and t.bit_count() > 1]
    connected = n0 > 1 and cls is not FrameClass.ALL_QS
    if connected:
        pos_conn.append((False, (1 << n0) - 1))
    allowed = _positions(
        base, everything, lambda m: not any(m & t1 and m & t2 for t1, t2 in forbidden)
    )
    cands = [_positions(base, allowed, lambda m: m & t1 and m & t2) for t1, t2 in covers]
    for interior, t in pos_conn:
        cands.append(
            _positions(
                base,
                allowed,
                lambda m: (m & t).bit_count() > 1 and not (interior and m & ~t),
            )
        )
    links = [[m for i, m in enumerate(base) if c >> i & 1] for c in cands[len(covers) :]]
    if (
        not any(not p and t1 & t2 for p, t1, t2 in contact)
        and not any(not p and t.bit_count() < 2 for p, _, t in conn)
        and all(t1 and t2 for t1, t2 in covers)
        and all(cands[: len(covers)])
        and all(
            len(mask_components(t, sets, interior)) < 2
            for (interior, t), sets in zip(pos_conn, links)
        )
    ):
        negatives = [(t, i) for positive, i, t in conn if not positive]
        expected = (allowed, cands, negatives)

    cube = object.__new__(_Cube)
    cube.contact_lits, cube.conn_lits, cube.work = contact, conn, _Budget(10**9)
    got = []

    def capture(base_, hits_, allowed, positives, negatives, budget_k, work):
        got.append((allowed, [c.cand for c in positives], negatives))
        return ()

    with mock.patch.object(solver, "_minimal_family", capture):
        result = cube.family(tuple(range(n0)), base, hits, connected, 2)
    assert got == ([] if expected is None else [expected])
    assert result == (None if expected is None else ())

    # each negative trace's crossing masks: with no positive to satisfy
    # and a family step that finds nothing, every distinct crossing mask
    # is removed from ``allowed`` once, in bipartition order
    for positive, interior, t in conn:
        if positive or t.bit_count() < 2:
            continue
        parts = list(_bipartitions(t))
        low = t & -t
        assert sorted(parts) == [
            (a, t & ~a) for a in range(1 << n0) if a & low and a & t == a and a != t
        ]
        crossings = []
        for a, b in parts:
            crossing = _positions(
                base,
                allowed,
                lambda m: m & a and m & b and not (interior and m & ~t),
            )
            if crossing not in crossings:
                crossings.append(crossing)
        steps = []

        def step(base_, allowed_, positives, budget, work):
            steps.append(allowed_)
            return None

        with mock.patch.object(solver, "_minimal_positive_family", step):
            _minimal_family(base, hits, allowed, [], [(t, interior)], 2, _Budget(10**9))
        assert steps == [allowed & ~c for c in crossings]


def _crossing_mask(allowed, trace, interior, part_a, part_b):
    """The positions in the list ``allowed`` of the links joining the
    two parts of a bipartition of ``trace``."""
    mask = 0
    for i, m in enumerate(allowed):
        if interior and m & ~trace:
            continue
        if m & part_a and m & part_b:
            mask |= 1 << i
    return mask


def _product_loop(allowed, positives, negatives, budget_k, work, step):
    """The bipartition search as a flat pass over the product of the
    negatives' bipartition lists, over successor sets kept in lists: one
    unit per choice, a choice whose removed links repeat an earlier one
    skipped, the positives re-checked on the filtered list, and the
    family step for every choice that passes."""
    crossings = [
        [_crossing_mask(allowed, t, interior, pa, pb) for pa, pb in _bipartitions(t)]
        for t, interior in negatives
    ]
    best = None
    seen_filters = set()
    for choice in product(*crossings):
        work.spend()
        removed = 0
        for mask in choice:
            removed |= mask
        if removed in seen_filters:
            continue
        seen_filters.add(removed)
        filtered = allowed
        if removed:
            filtered = [m for i, m in enumerate(allowed) if not removed >> i & 1]
            if any(need(filtered) for need in positives):
                continue
        budget = budget_k if best is None else len(best)
        found = step(filtered, budget, work)
        if found is not None and (best is None or (len(found), found) < (len(best), best)):
            best = found
            if not best:
                break
    return best


@st.composite
def _bipartition_searches(draw):
    n0 = draw(st.integers(2, 4))
    base = _base_masks(n0, draw(st.sampled_from(list(FrameClass))))
    # most sets allowed, so that most positives are satisfiable
    everything = (1 << len(base)) - 1
    dropped = draw(st.integers(0, everything)) & draw(st.integers(0, everything))
    allowed = everything & ~dropped
    points = st.integers(1, (1 << n0) - 1)
    traces = points.filter(lambda t: t.bit_count() > 1)
    negatives = draw(st.lists(st.tuples(traces, st.booleans()), min_size=1, max_size=3))
    covers = draw(st.lists(st.tuples(points, points), max_size=2))
    conns = draw(st.lists(st.tuples(st.booleans(), traces), max_size=2))
    if draw(st.booleans()):
        conns.append((False, (1 << n0) - 1))  # the frame is connected
    budget_k, seed = draw(st.integers(0, 3)), draw(st.integers(0, 99))
    return n0, base, allowed, negatives, covers, conns, budget_k, seed


@settings(max_examples=150, deadline=None)
@given(_bipartition_searches())
def test_bipartition_prefix_search_matches_the_product_loop(search):
    """``_minimal_family`` sends the same filtered sets to the family
    step as the flat product loop, in the same order and with the same
    budgets, charges the same total and runs out of work before the same
    call under every limit.  The family step is scripted: it logs its
    call, spends work and answers, sometimes with the empty family, all
    fixed by its sets."""
    n0, base, allowed, negatives, covers, conns, budget_k, seed = search
    hits = _hits(base, n0)
    allowed_sets = [m for i, m in enumerate(base) if allowed >> i & 1]
    # the positives, each as a constraint of the solver and as the
    # reference's test on a list of sets; only those satisfiable under
    # ``allowed``, as the caller guarantees
    positives, needs = [], []
    for t1, t2 in covers:
        if t1 & t2:
            continue
        cand = _positions(base, allowed, lambda m: m & t1 and m & t2)
        if cand:
            positives.append(_CoverConstraint(cand))
            needs.append(
                lambda sets, t1=t1, t2=t2: not any(m & t1 and m & t2 for m in sets)
            )
    for interior, t in conns:
        cand = _positions(
            base, allowed, lambda m: (m & t).bit_count() > 1 and not (interior and m & ~t)
        )
        sets = [m for i, m in enumerate(base) if cand >> i & 1]
        if len(mask_components(t, sets, interior)) < 2:
            merge = max((m & t).bit_count() - 1 for m in sets) if sets else 1
            positives.append(_ConnConstraint(t, base, cand, merge))
            needs.append(
                lambda sets, t=t, i=interior: len(mask_components(t, sets, i)) > 1
            )

    def script(sets, budget, work, calls):
        calls.append((sets, budget))
        rng = random.Random(f"{seed}:{sets}")
        work.spend(rng.randrange(4))
        answer = rng.random()
        if answer < 0.1:
            return ()
        if answer < 0.5 or not sets:
            return None
        found = tuple(sorted(rng.sample(sets, min(len(sets), rng.randint(1, 3)))))
        return found if len(found) <= budget else None

    def run(limit, flat):
        calls, work = [], _Budget(limit)
        try:
            if flat:
                step = lambda sets, budget, work: script(tuple(sets), budget, work, calls)
                found = _product_loop(allowed_sets, needs, negatives, budget_k, work, step)
            else:

                def step(base_, allowed_, positives_, budget, work):
                    sets = tuple(m for i, m in enumerate(base) if allowed_ >> i & 1)
                    return script(sets, budget, work, calls)

                with mock.patch.object(solver, "_minimal_positive_family", step):
                    found = _minimal_family(
                        base, hits, allowed, positives, negatives, budget_k, work
                    )
        except ResourceExhausted:
            return "exhausted", calls, None
        return found, calls, work.used

    expected = run(10**9, True)
    assert run(10**9, False) == expected
    for limit in range(expected[2] + 1):
        assert run(limit, False) == run(limit, True), limit
