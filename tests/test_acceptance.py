"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured runtime.  Budgets are asserted as stated; the logical
content of every criterion is asserted exactly (no tolerances anywhere,
all checks are discrete)."""

import json
import random
import time
import warnings
from pathlib import Path

import pytest

from topoconn.cli import main as cli_main
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
    partition,
    phi_inf,
    phi_inf_c,
    phi_inf_i,
    phi_inf_star,
    phi_pcp,
    sc_part,
    stack3,
    stack_i,
    wiggly,
)
from topoconn.parser import parse
from topoconn.plane import (
    PlaneScene,
    build_arrangement,
    component_graph,
    fs_complement,
    fs_product,
    fs_sum,
    induced_quasisaw,
    is_tree,
    plane_eval,
    rcc8,
    rect,
    Rcc8Relation,
)
from topoconn.quasisaw import (
    FrameClass,
    check,
    oracle_check,
    oracle_closure,
    oracle_interior,
    full_points,
    rc_complement,
    rc_expand,
    rc_product,
    rc_sum,
)
from topoconn.solver import Bounds, Sat, UnsatUpTo, enumerate_models, solve, solve_rc3, solve_rcp3
from topoconn.syntax import (
    Polarity,
    conjuncts,
    polarity,
    to_bullet,
    variables,
)

from conftest import (
    onion_partition,
    random_formula,
    random_frame,
    random_model,
    random_rect_scene,
)

DATA = Path(__file__).resolve().parent.parent / "data"


class Criterion:
    def __init__(self, capsys, number: int, label: str, budget_s: float):
        self.capsys = capsys
        self.number = number
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        with self.capsys.disabled():
            print(
                f"[acceptance {self.number:>2}] {status} {self.label} "
                f"({elapsed:.2f}s / budget {self.budget:.0f}s)"
            )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its budget: {elapsed:.1f}s"
            )
        return False


def test_01_minimal_hub_witness(capsys):
    with Criterion(capsys, 1, "pinched-sums witness model and its rediscovery", 1.0):
        assert cli_main(
            ["eval", "--model", str(DATA / "eq3_model.json"), str(DATA / "eq3.fml")]
        ) == 0
        capsys.readouterr()
        result = solve(wiggly(), FrameClass.CON_QS, Bounds(3, 1))
        assert isinstance(result, Sat)
        frame = result.model.frame
        # isomorphic to the bundled model: three cells under one hub,
        # each region a distinct singleton
        assert len(frame.w0) == 3 and len(frame.w1) == 1
        assert frame.w1[0][1] == frozenset(frame.w0)
        traces = [result.model.traces[f"r{i}"] for i in (1, 2, 3)]
        assert all(len(t) == 1 for t in traces)
        assert frozenset().union(*traces) == frozenset(frame.w0)


def test_02_two_successor_refutation(capsys):
    with Criterion(capsys, 2, "no two-successor model for the pinched sums", 300.0):
        result = solve_rcp3(wiggly(), Bounds(6, 8))
        assert isinstance(result, UnsatUpTo)
        assert result.bounds == Bounds(6, 8)
        # independent exhaustive cross-check at (4, 4)
        bullet = to_bullet(wiggly())
        hits = sum(
            1
            for m in enumerate_models(bullet, FrameClass.CON_2QS, Bounds(4, 4))
            if check(m, bullet)
        )
        assert hits == 0


def test_03_three_regions_dual_witnesses(capsys):
    with Criterion(capsys, 3, "three mutual neighbours: frame and plane witnesses", 1.0):
        result = solve(eq1vs2(), FrameClass.CON_QS, Bounds(3, 3))
        assert isinstance(result, Sat)
        scene = PlaneScene.make(
            {
                "r1": [rect(0, 0, 1, 1)],
                "r2": [rect(1, 0, 2, 1)],
                "r3": [rect(0, 1, 2, 2)],
            }
        )
        assert plane_eval(build_arrangement(scene), eq1vs2())


def test_04_five_regions(capsys):
    with Criterion(capsys, 4, "five mutual neighbours: spatial model, no plane scene", 120.0):
        result = solve(eq2vs3(), FrameClass.CON_QS, Bounds(5, 10))
        assert isinstance(result, Sat)
        rng = random.Random(41)
        f = eq2vs3()
        names = ("r1", "r2", "r3", "r4", "r5")
        for _ in range(10_000):
            scene = random_rect_scene(rng, names, span=9, max_rects=2)
            assert not plane_eval(build_arrangement(scene), f)


def test_05_semantics_oracle_equivalence(capsys):
    with Criterion(capsys, 5, "trace semantics equals brute-force topology", 120.0):
        rng = random.Random(51)
        names = ("a", "b", "cc")
        for _ in range(10_000):
            frame = random_frame(rng, max_w0=5, max_w1=5)
            model = random_model(rng, frame, names)
            f = random_formula(rng, names, 6)
            assert check(model, f) == oracle_check(model, f)


def _law_case_frame(rng):
    frame = random_frame(rng, max_w0=5, max_w1=5)
    pick = lambda: rc_expand(frame, {x for x in frame.w0 if rng.random() < 0.5})
    return frame, pick(), pick(), pick()


def test_06_boolean_algebra_laws(capsys):
    with Criterion(capsys, 6, "Boolean algebra laws on both backends", 30.0):
        rng = random.Random(61)
        for _ in range(1000):
            frame, a, b, c = _law_case_frame(rng)
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
            # cross-checked against the literal topological operations
            fa, fb = full_points(a), full_points(b)
            assert full_points(rc_sum(a, b)) == oracle_closure(fa | fb, frame)
            assert full_points(rc_product(a, b)) == oracle_closure(
                oracle_interior(fa & fb, frame), frame
            )
        rng2 = random.Random(62)
        cases = 0
        while cases < 1000:
            scene = random_rect_scene(rng2, ("p", "q", "w"), span=8)
            arr = build_arrangement(scene)
            one = arr.full_set()
            zero = arr.empty_set()
            pool = list(arr.region_sets.values()) + [one, zero]
            for _ in range(10):
                a, b, c = (rng2.choice(pool) for _ in range(3))
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
                cases += 1
        # regularization, exactly: edge-sharing squares multiply to zero
        scene = PlaneScene.make({"a": [rect(0, 0, 1, 1)], "b": [rect(1, 0, 2, 1)]})
        arr = build_arrangement(scene)
        assert not fs_product(arr.region_sets["a"], arr.region_sets["b"]).faces


def test_07_plane_frame_agreement(capsys):
    with Criterion(capsys, 7, "plane semantics equals induced frame semantics", 120.0):
        rng = random.Random(71)
        names = ("p", "q", "w")
        atom_sources = [
            "c({0})", "ci({0})", "c(-{0})", "ci({0}+{1})", "C({0},{1})",
            "{0} = {1}", "{0} <= {1}", "C({0}, -{1})", "ci(-({0}+{1}))",
        ]
        for _ in range(500):
            scene = random_rect_scene(rng, names, span=7, max_rects=2)
            arr = build_arrangement(scene)
            model = induced_quasisaw(arr)
            for i, a in enumerate(names):
                for b in names[i:]:
                    for template in atom_sources:
                        f = parse(template.format(a, b))
                        assert plane_eval(arr, f) == check(model, f), (
                            template, a, b, scene)


def test_08_rcc8(capsys):
    with Criterion(capsys, 8, "the eight base relations, jointly exhaustive and disjoint", 30.0):
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
        inverse = {
            Rcc8Relation.DC: Rcc8Relation.DC, Rcc8Relation.EC: Rcc8Relation.EC,
            Rcc8Relation.PO: Rcc8Relation.PO, Rcc8Relation.EQ: Rcc8Relation.EQ,
            Rcc8Relation.TPP: Rcc8Relation.TPPi, Rcc8Relation.TPPi: Rcc8Relation.TPP,
            Rcc8Relation.NTPP: Rcc8Relation.NTPPi, Rcc8Relation.NTPPi: Rcc8Relation.NTPP,
        }
        rng = random.Random(81)
        for _ in range(1000):
            scene = random_rect_scene(rng, ("a", "b"), span=6, max_rects=2)
            # rcc8 itself asserts that exactly one relation holds
            rel = rcc8(scene, "a", "b")
            assert rcc8(scene, "b", "a") == inverse[rel]


def test_09_subcyclic_partitions_are_trees(capsys):
    with Criterion(capsys, 9, "component graphs of sub-cyclic partitions are trees", 60.0):
        rng = random.Random(91)
        for case in range(200):
            colours = rng.choice((3, 4, 5, 6))
            layers = rng.randint(colours, colours + 4)
            strip = case % 2 == 1
            scene, members = onion_partition(rng, colours, layers, strip=strip)
            arr = build_arrangement(scene)
            assert plane_eval(arr, sc_part([m for m in _parse_members(members)]))
            g = component_graph(arr, members)
            assert is_tree(g)


def _parse_members(members):
    from topoconn.parser import parse_term

    return [parse_term(m) for m in members]


def test_10_separator_gadget(capsys):
    with Criterion(capsys, 10, "separation gadget always realizes the five-region pattern", 60.0):
        rng = random.Random(105)
        gadget = k5m(["a1", "a2", "a3", "a4", "a5"])
        side_conditions = parse("!C(a1, a2) & b1 <= a1 & b2 <= a2")
        for case in range(100):
            bx, by = rng.randint(0, 6), rng.randint(0, 6)
            s = rng.randint(1, 3)
            b1 = rect(bx, by, bx + s, by + s)
            x0, y0 = bx - 2, by - 2
            x1, y1 = bx + s + 2, by + s + 2
            if case % 3 == 0:
                # notched hexagonal ring, still rectilinear and separating
                curve = [
                    (x0, y0), (x1, y0), (x1, y1),
                    (bx + s, y1), (bx + s, y1 + 2), (x0, y1 + 2),
                ]
                top = y1 + 2
            else:
                curve = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
                top = y1
            b2x = x1 + rng.randint(2, 5)
            b2y = rng.randint(y0 - 3, top + 3)
            b2 = rect(b2x, b2y, b2x + rng.randint(1, 3), b2y + rng.randint(1, 3))
            scene = PlaneScene.make({"b1": [b1], "b2": [b2]})
            out = k5m_separator(scene, "b1", "b2", curve)
            arr = build_arrangement(out)
            assert plane_eval(arr, gadget), (case, curve)
            assert plane_eval(arr, side_conditions), (case, curve)


def test_11_generator_fidelity(capsys):
    with Criterion(capsys, 11, "conjunct counts match the display ranges", 5.0):
        def n(f):
            return sum(1 for _ in conjuncts(f))

        for k in (1, 2, 3, 4, 6):
            names = [f"r{i}" for i in range(k)]
            assert n(partition(names)) == 1 + k * (k - 1) // 2
            gaps = sum(
                1 for i in range(k) for j in range(i + 1, k) if 1 < j - i < k - 1
            )
            assert n(sc_part(names)) == 1 + k * (k - 1) // 2 + k + gaps
            if k >= 2:
                assert n(colour_comp("r", names)) == k * (k - 1) // 2
                assert n(stack_i(names)) == k + k * (k - 1) // 2 + (k - 1) * (k - 2) // 2
            if k >= 3:
                assert n(frame_i(names)) == 2 * k + k * (k - 1) // 2
        assert n(k5m(["v1", "v2", "v3", "v4", "v5"])) == 5 + 5 + 10 + 3 + 6
        for m in (2, 3, 5):
            trs = [ThreeRegion(f"a{i}") for i in range(m)]
            gaps = (m - 1) * (m - 2) // 2
            assert n(stack3(trs)) == (m - 1) + 1 + gaps + 3 * m
            if m >= 3:
                inner_gaps = (m - 2) * (m - 3) // 2
                assert n(frame3(trs)) == (m - 2) + 1 + inner_gaps + 1 + 1 + 2 + 3 * m
        assert n(phi_inf()) == 13 + 8 + 1 + 4 + 4 + 4
        assert n(phi_inf_i()) == n(phi_inf())
        assert n(phi_inf_c()) == 7 + 4 + 24 + 8 + 1 + 4 + 3 + 12
        assert n(phi_inf_star()) == 27 + 5 * 21 + 153
        assert len(variables(phi_inf())) == 9
        rep = polarity(phi_inf())
        assert rep.conn == Polarity.ALL_POSITIVE
        assert rep.contact == Polarity.ALL_NEGATIVE
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = PcpInstance.make(["a"], ["u"], {"a": "u"}, {"a": "u"})
            f = phi_pcp(inst)
        # hand counts for the one-tile, one-letter instance, family by
        # family in display order:
        #   two sub-cyclic 4-partitions           13 + 13
        #   track colourings       2 * 4 * C(4,2) = 48
        #   terminal region: connected + nonempty  2
        #   terminal colourings  6 + 4*1 + 6 + 4*1 = 20
        #   seed: connected + two bounds + apart    4
        #   marked subregions                       4
        #   seed and crossing meet tracks       2 + 2
        #   track chains                            8
        #   marked regions avoid crossing           4
        #   marked regions meet the next shell      4
        #   no backward colour step    2 * 4 * 4 = 32
        #   tile partition + colouring          1 + 0
        #   letter partition + colouring        1 + 0
        #   position partitions + colourings    2 * 1
        #   tiles within their positions            2
        #   non-initial positions (words length 1)  0
        #   succession rules (all pairs allowed)    0
        #   no same-block restart       2*4*4*1 = 32
        #   final position before terminal          0
        #   positions subsumed by letters           2
        assert n(f) == 26 + 48 + 2 + 20 + 4 + 4 + 4 + 8 + 4 + 4 + 32 + 2 + 2 + 2 + 0 + 0 + 32 + 0 + 2
        assert polarity(f).contact == Polarity.ALL_NEGATIVE


def test_12_entailment_properties(capsys):
    with Criterion(capsys, 12, "entailments hold on random small models", 60.0):
        rng = random.Random(121)
        base, strong = phi_inf(), phi_inf_i()
        names = variables(base)
        for _ in range(1000):
            frame = random_frame(rng, max_w0=4, max_w1=3)
            model = random_model(rng, frame, names)
            if check(model, strong):
                assert check(model, base)
        # strengthening plain connectedness also holds literally for the
        # general pattern: any positive-c formula is entailed by its
        # interior-connected image
        from topoconn.syntax import AtomF, Conn, IntConn, Sum, Variable, conj
        from conftest import random_term

        hits = 0
        for _ in range(1000):
            terms = [random_term(rng, ("a", "b"), 1) for _ in range(2)]
            g = conj([AtomF(Conn(t)) for t in terms])
            g_i = conj([AtomF(IntConn(t)) for t in terms])
            frame = random_frame(rng, max_w0=4, max_w1=3)
            model = random_model(rng, frame, ("a", "b"))
            if check(model, g_i):
                hits += 1
                assert check(model, g)
        assert hits > 100
        # contact elimination soundness
        from topoconn.syntax import Contact, Not, eliminate_contact

        fired = 0
        for _ in range(1000):
            f = Not(AtomF(Contact(Variable("a"), Variable("b"))))
            g = eliminate_contact(f)
            frame = random_frame(rng, max_w0=3, max_w1=2)
            model = random_model(rng, frame, variables(g))
            if check(model, g):
                fired += 1
                assert check(model, f)
        assert fired > 10
