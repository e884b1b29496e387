"""The benchmark's workloads: seeded input generators, the measured
query loop of each workload, and the verdict checks made outside the
timed phase.

Inputs are formula source text and scene JSON text, so ``parse`` and
``scene_from_json`` stay on the measured path as they are for the CLI
verbs ``solve``, ``solve-rc3``, ``solve-rcp3`` and ``eval --scene``.

Every workload is a list of rounds.  A round is generated from
(seed, round index) before it is timed, and every round of a workload
has the same composition, so a run that completes whole rounds measures
the same mix whatever its seed.  No query repeats within a run.
"""

from __future__ import annotations

import json
import random
import re
import signal
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

# Wall-clock cap per solver query.  The slowest query that decides,
# phi_inf_i at (7, 8), takes about 2 s on a 2-core x86-64 VM; the
# queries that hit the --work-limit defect never return, so the cap
# sets how much of a round they cost.
QUERY_CAP_S = 4.0


class QueryCapped(Exception):
    """Raised by the SIGALRM handler when a query exceeds its cap."""


def raise_capped(signum, frame):
    raise QueryCapped()


def run_capped(fn: Callable, *args):
    signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# The layer entry points used on the measured path


class Api:
    """The program's public functions that a query calls.  With a
    tracer, each call records a span named after its layer."""

    ENTRIES = {
        "parse": ("parser", "parse", "parser.parse"),
        "solve": ("solver", "solve", "solver.solve"),
        "solve_rc3": ("solver", "solve_rc3", "solver.solve"),
        "solve_rcp3": ("solver", "solve_rcp3", "solver.solve"),
        "scene_from_json": ("plane", "scene_from_json", "plane.scene_from_json"),
        "build_arrangement": ("plane", "build_arrangement", "plane.build_arrangement"),
        "plane_eval": ("plane", "plane_eval", "plane.plane_eval"),
        "rcc8": ("plane", "rcc8", "plane.rcc8"),
        "component_graph": ("plane", "component_graph", "plane.component_graph"),
    }

    def __init__(self, tc: "Topoconn", tracer=None):
        self.tracer = tracer
        for attr, (mod, name, span) in self.ENTRIES.items():
            fn = getattr(tc.modules[mod], name)
            setattr(self, attr, tracer.wrap(span, fn) if tracer else fn)
        if tracer:
            parse = self.parse

            def counted_parse(text):
                tracer.count("parser.chars", len(text))
                return parse(text)

            self.parse = counted_parse

    def set_query(self, qid: int) -> None:
        if self.tracer:
            self.tracer.query = qid


class Topoconn:
    """The imported package modules, by short name."""

    def __init__(self, modules: dict):
        self.modules = modules
        for name, mod in modules.items():
            setattr(self, name, mod)


# ---------------------------------------------------------------------------
# Outcomes and the tally of a run


UNDECIDED = ("exhausted", "recursion-error", "capped")


@dataclass
class Outcome:
    qid: int
    name: str
    verdict: str  # a verdict, one of UNDECIDED, or "error:<type>"
    detail: str = ""  # certificate or counts, for the digest
    payload: object = None  # what the checks need; dropped after them


@dataclass
class Tally:
    attempted: int = 0
    decided: int = 0
    wrong: int = 0
    failed: int = 0
    checked: int = 0  # verdicts compared with an independent reference
    pinned: int = 0  # verdicts with no independent reference
    latencies: list = field(default_factory=list)
    undecided_names: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add(self, out: Outcome, latency: float) -> None:
        self.attempted += 1
        self.latencies.append(latency)
        if out.verdict in UNDECIDED:
            key = f"{out.name} ({out.verdict})"
            self.undecided_names[key] = self.undecided_names.get(key, 0) + 1
        elif out.verdict.startswith("error:"):
            self.failed += 1
            self.problems.append(f"{out.name}: {out.verdict}")
        else:
            self.decided += 1

    def bad(self, out: Outcome, why: str) -> None:
        self.wrong += 1
        self.problems.append(f"wrong verdict on {out.name}: {why}")


def digest_update(h, outcomes: list[Outcome]) -> None:
    for out in outcomes:
        h.update(f"{out.qid}|{out.name}|{out.verdict}|{out.detail}\n".encode())


# ---------------------------------------------------------------------------
# Formula text helpers


def _leaves(f, tc: Topoconn) -> list:
    """Top-level conjuncts, left to right, without recursion: some
    generated families are deeper than the interpreter's stack."""
    And = tc.syntax.And
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if isinstance(g, And):
            stack.append(g.right)
            stack.append(g.left)
        else:
            out.append(g)
    return out


def conjunction_text(f, tc: Topoconn) -> str:
    """Source text of a conjunction as one flat ``&`` chain.  It parses
    to a left-nested chain with the same literals in the same order, so
    the solver sees the same literal list as for ``to_source(f)``."""
    return " & ".join(tc.syntax.to_source(g) for g in _leaves(f, tc))


def _identifier_renamer(prefix: str):
    ident = re.compile(r"[A-Za-z_][A-Za-z0-9_']*(?![A-Za-z0-9_'(])")
    return lambda text: ident.sub(lambda m: prefix + m.group(0), text)


def _prefix(rng: random.Random) -> str:
    # a shared prefix keeps the sorted order of the variables, so the
    # solver does identical work on every renaming
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3)) + "_"


# ---------------------------------------------------------------------------
# Solver workloads


@dataclass
class SolveQuery:
    qid: int
    name: str
    entry: str  # "solve", "solve_rc3" or "solve_rcp3"
    cls: object  # FrameClass for "solve", None otherwise
    bounds: object
    work_limit: int
    text: str
    expected: Optional[str] = None  # "sat", "unsat-up-to" or None
    reference: Optional[str] = None  # names the independent reference
    stratum: str = ""  # solve-random only: see SolveRandom.strata


def run_solve_query(api: Api, q: SolveQuery, tc: Topoconn) -> Outcome:
    def go():
        f = api.parse(q.text)
        if q.entry == "solve":
            return api.solve(f, q.cls, q.bounds, work_limit=q.work_limit)
        fn = api.solve_rc3 if q.entry == "solve_rc3" else api.solve_rcp3
        return fn(f, q.bounds, work_limit=q.work_limit)

    try:
        result = run_capped(go)
    except tc.solver.ResourceExhausted:
        return Outcome(q.qid, q.name, "exhausted")
    except RecursionError:
        return Outcome(q.qid, q.name, "recursion-error")
    except QueryCapped:
        return Outcome(q.qid, q.name, "capped")
    except Exception as exc:  # reported as a failed query, never hidden
        return Outcome(q.qid, q.name, f"error:{type(exc).__name__}")
    if isinstance(result, tc.solver.Sat):
        cert = json.dumps(tc.quasisaw.model_to_json(result.model), sort_keys=True)
        return Outcome(q.qid, q.name, "sat", cert, result)
    return Outcome(
        q.qid, q.name, "unsat-up-to", str(result.frames_examined), result
    )


def solver_counts(outcomes: list[Outcome]) -> dict:
    """Counts that must repeat exactly for a given seed."""
    c = {
        "solver.sat": 0,
        "solver.unsat_up_to": 0,
        "solver.exhausted": 0,
        "solver.capped": 0,
        "solver.recursion_errors": 0,
        "solver.frames_examined": 0,
        "solver.cert_w0": 0,
        "solver.cert_w1": 0,
    }
    for out in outcomes:
        if out.verdict == "sat":
            c["solver.sat"] += 1
            c["solver.cert_w0"] += len(out.payload.model.frame.w0)
            c["solver.cert_w1"] += len(out.payload.model.frame.w1)
        elif out.verdict == "unsat-up-to":
            c["solver.unsat_up_to"] += 1
            c["solver.frames_examined"] += out.payload.frames_examined
        elif out.verdict == "exhausted":
            c["solver.exhausted"] += 1
        elif out.verdict == "capped":
            c["solver.capped"] += 1
        elif out.verdict == "recursion-error":
            c["solver.recursion_errors"] += 1
    return c


class Workload:
    warm_queries = 10

    def warm(self, seed: int) -> list:
        """Warm-up queries, from a round of their own."""
        return self.make_round(seed, "warm")[: self.warm_queries]


class SolveWorkload(Workload):
    """Shared query loop and checks of the two solver workloads."""

    def __init__(self, tc: Topoconn):
        self.tc = tc

    def run(self, api: Api, queries: list, record) -> None:
        for q in queries:
            api.set_query(q.qid)
            record(q, lambda q=q: run_solve_query(api, q, self.tc))

    def counts(self, outcomes: list[Outcome]) -> dict:
        return solver_counts(outcomes)

    def _expected_class(self, q: SolveQuery):
        FC = self.tc.quasisaw.FrameClass
        return {"solve": q.cls, "solve_rc3": FC.CON_QS, "solve_rcp3": FC.CON_2QS}[
            q.entry
        ]

    def _solved_formula(self, q: SolveQuery):
        f = self.tc.parser.parse(q.text)
        return self.tc.syntax.to_bullet(f) if q.entry == "solve_rcp3" else f

    def check_sat(self, q: SolveQuery, out: Outcome, tally: Tally) -> None:
        """Re-check a certificate with the trace semantics and the
        brute-force oracle, and its frame against the class and bounds."""
        qs = self.tc.quasisaw
        model = out.payload.model
        f = self._solved_formula(q)
        frame = model.frame
        if q.expected == "unsat-up-to":
            tally.bad(out, "a model where none is expected")
        elif self._expected_class(q) not in qs.classify_frame(frame):
            tally.bad(out, "certificate outside the frame class")
        elif len(frame.w0) > q.bounds.max_w0 or len(frame.w1) > q.bounds.max_w1:
            tally.bad(out, "certificate outside the bounds")
        elif not qs.check(model, f):
            tally.bad(out, "certificate fails check")
        elif (
            len(frame.w0) + len(frame.w1) <= qs.DEFAULT_ORACLE_CAP
            and not qs.oracle_check(model, f)
        ):
            tally.bad(out, "certificate fails oracle_check")
        else:
            tally.checked += 1

    def check_unsat(self, q: SolveQuery, out: Outcome, tally: Tally) -> bool:
        """Common part of the unsat-up-to checks; True when the verdict
        still needs a reference."""
        if out.payload.bounds != q.bounds:
            tally.bad(out, "bounds differ from the requested ones")
            return False
        if q.expected == "sat":
            tally.bad(out, "no model where one is known")
            return False
        return True

    def has_model_by_enumeration(self, q: SolveQuery) -> bool:
        """Independent reference: the unoptimized enumerator plus the
        trace semantics."""
        f = self._solved_formula(q)
        solver, qs = self.tc.solver, self.tc.quasisaw
        return any(
            qs.check(m, f)
            for m in solver.enumerate_models(f, self._expected_class(q), q.bounds)
        )


class SolveFamilies(SolveWorkload):
    """Literal conjunctions from the formula generators, plus the four
    queries that hit known defects."""

    name = "solve-families"
    trace_rounds = 1

    def warm(self, seed: int) -> list:
        # the cheap queries only: the slow and the capped ones would
        # make set-up as long as a round
        return [
            q for q in self.make_round(seed, "warm")
            if q.name.startswith(("eq1/", "partition", "k5m"))
        ]

    def make_round(self, seed: int, index, tracer=None) -> list[SolveQuery]:
        tc = self.tc
        C, FC, Bounds = tc.constructions, tc.quasisaw.FrameClass, tc.solver.Bounds
        gen = tracer.wrap("constructions.gen", _call) if tracer else _call
        rng = random.Random(f"{self.name}:{seed}:{index}")
        rename = _identifier_renamer(_prefix(rng))
        specs = []  # (name, entry, class, bounds, work limit, formula, expected, ref)

        def text_of(builder, *args):
            return rename(conjunction_text(gen(builder, *args), tc))

        entries = [
            ("rc3", "solve_rc3", None, FC.CON_QS),
            ("rcp3", "solve_rcp3", None, FC.CON_2QS),
            ("all", "solve", FC.ALL_QS, FC.ALL_QS),
            ("con", "solve", FC.CON_QS, FC.CON_QS),
            ("con2", "solve", FC.CON_2QS, FC.CON_2QS),
        ]
        # eq3 in two-successor frames takes about 0.1 s at every (4, n1)
        # bound: with three such bounds the slowest tenth of the queries
        # ends in a band of alike ones, which keeps the 90th percentile
        # steady from run to run
        eqs = [("eq1", C.eq1vs2), ("eq2", C.eq2vs3), ("eq3", C.wiggly)]
        for fname, builder in eqs:
            text = text_of(builder)
            for b in ((3, 3), (4, 4), (4, 6), (4, 8), (5, 8)):
                for label, entry, cls, effective in entries:
                    expected, ref = "sat", None
                    if fname == "eq2":
                        expected = "unsat-up-to"
                    elif fname == "eq3" and effective is FC.CON_2QS:
                        expected = "unsat-up-to"
                        # criterion 2: the exhaustive enumerator finds no
                        # model of eq3 in this class within (4, 4)
                        if b[0] <= 4 and b[1] <= 4:
                            ref = "criterion 2"
                    specs.append(
                        (f"{fname}/{label}{b}", entry, cls, Bounds(*b), None,
                         text, expected, ref)
                    )
        for fname, builder, cls in (
            ("phi_inf", C.phi_inf, FC.ALL_QS),
            ("phi_inf_i", C.phi_inf_i, FC.CON_QS),
        ):
            text = text_of(builder)
            for b in ((6, 8), (7, 8)):
                specs.append(
                    (f"{fname}/{cls.value}{b}", "solve", cls, Bounds(*b), None,
                     text, "unsat-up-to", None)
                )
        # the templates for k = 3..6 take one class each, in turn; the
        # gadgets are solved in every class
        templates = []
        for k in range(3, 7):
            names = [f"m{i}" for i in range(k)]
            # k nonempty, pairwise disjoint members need k depth-0 points
            tight = "unsat-up-to" if k > 5 else "sat"
            templates += [
                (f"partition{k}", C.partition, (names,), "sat"),
                (f"sc_part{k}", C.sc_part, (names,), tight),
                (f"stack_i{k}", C.stack_i, (names,), "sat"),
                (f"frame_i{k}", C.frame_i, (names,), tight),
                (f"colour_comp{k}", C.colour_comp, ("q", names), "sat"),
            ]
        gadgets = [
            ("k5m", C.k5m, ([f"v{i}" for i in range(1, 6)],), "sat"),
            ("not_c", C.not_c, ("a", "b"), "sat"),
            ("stack3", C.stack3, ([C.ThreeRegion(f"a{i}") for i in range(2)],), "sat"),
            ("frame3", C.frame3, ([C.ThreeRegion(f"a{i}") for i in range(3)],), "sat"),
        ]
        classes = list(FC)
        jobs = [(t, [classes[j % 3]]) for j, t in enumerate(templates)]
        jobs += [(g, classes) for g in gadgets]
        for (fname, builder, args, expected), job_classes in jobs:
            text = text_of(builder, *args)
            for cls in job_classes:
                specs.append(
                    (f"{fname}/{cls.value}", "solve", cls, Bounds(5, 10), None,
                     text, expected, None)
                )

        # Known defects, kept so that decided_share shows them: the
        # work limit is not honoured on many variables (first two), the
        # syntax layer recurses once per conjunct (third), and the fast
        # path enumerates every cell-type tuple of nine variables (fourth).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # phi_pcp warns below 7 tiles
            pcp_small = gen(C.load_pcp, "data/pcp_small.json")
            tiles = [f"g{i}" for i in range(1, 8)]

            def word():
                return "".join(rng.choice("uv") for _ in range(rng.randint(1, 2)))

            pcp7 = C.PcpInstance.make(
                tiles, ["u", "v"], {t: word() for t in tiles}, {t: word() for t in tiles}
            )
            defects = [
                ("phi_inf_star/limit1000", text_of(C.phi_inf_star), 1000),
                ("phi_pcp(pcp_small)/limit1000", text_of(C.phi_pcp, pcp_small), 1000),
                ("phi_pcp(7 tiles)/limit1000", text_of(C.phi_pcp, pcp7), 1000),
                (
                    "stack3(3 regions)/limit50",
                    text_of(C.stack3, [C.ThreeRegion(f"a{i}") for i in range(3)]),
                    50,
                ),
            ]
        for fname, text, limit in defects:
            specs.append(
                (fname, "solve", FC.ALL_QS, Bounds(5, 10), limit, text, None, None)
            )

        rng.shuffle(specs)
        default_limit = tc.solver.DEFAULT_WORK_LIMIT
        return [
            SolveQuery(i, name, entry, cls, b, limit or default_limit, text, exp, ref)
            for i, (name, entry, cls, b, limit, text, exp, ref) in enumerate(specs)
        ]

    def check(self, queries: list, outcomes: list[Outcome], tally: Tally) -> None:
        for q, out in zip(queries, outcomes):
            if out.verdict == "sat":
                self.check_sat(q, out, tally)
            elif out.verdict == "unsat-up-to" and self.check_unsat(q, out, tally):
                if q.reference:
                    tally.checked += 1
                else:
                    tally.pinned += 1


def _call(fn, *args):
    return fn(*args)


class SolveRandom(SolveWorkload):
    """Seeded random formulas over the three variables p, q, r at depth
    3, with ``|`` and ``!``, solved at (3, 3) in every frame class.

    Most queries take the fast path or find a model early, but formulas
    that are not literal conjunctions and have no model make the
    fallback enumerate every candidate: about 6% of the queries take
    about 85% of the time.  Left to chance, their number swings a run's
    throughput by 20% from seed to seed.  So every round holds a fixed
    number of queries of each stratum, per class, at about the rates the
    generator produces them.  A stratum is the search path (``lit`` for
    literal conjunctions, ``fb`` for the fallback) and the number of
    depth-0 points of the smallest model that satisfies the formula
    among a fixed set of random ones (``-`` when none does); the
    solver's work grows with that number.
    """

    name = "solve-random"
    strata = ("lit1", "lit2", "lit3", "lit-", "fb1", "fb2", "fb3", "fb-")
    # queries of each stratum per class in a round, close to the rates
    # measured on 1500 generated formulas.  The "3" strata are set a
    # little above them, so that the 90th percentile falls inside the
    # band of their latencies rather than on the edge of a stratum.
    quota = {
        "all": (18, 6, 1, 7, 54, 8, 2, 4),
        "con": (18, 3, 3, 8, 54, 3, 5, 6),
        "con2": (20, 1, 2, 8, 57, 1, 5, 6),
    }
    screen_models = 64
    trace_rounds = 8
    names = ("p", "q", "r")

    def __init__(self, tc: Topoconn):
        super().__init__(tc)
        self.enumerated: set = set()
        rng = random.Random(f"{self.name}:screen")
        self.screen = {
            cls: sorted(
                (self._model(rng, cls) for _ in range(self.screen_models)),
                key=lambda m: len(m.frame.w0),
            )
            for cls in tc.quasisaw.FrameClass
        }

    def _model(self, rng, cls):
        """A random model of the class within (3, 3)."""
        qs = self.tc.quasisaw
        while True:
            n0, n1 = rng.randint(1, 3), rng.randint(0, 3)
            w0 = [f"x{i}" for i in range(n0)]
            sizes = [2 if cls is qs.FrameClass.CON_2QS else rng.randint(2, 3)
                     for _ in range(n1)]
            if any(k > n0 for k in sizes):
                continue
            frame = qs.make_frame(w0, [(f"z{j}", rng.sample(w0, k)) for j, k in enumerate(sizes)])
            if cls in qs.classify_frame(frame):
                return qs.QsModel.make(
                    frame, {n: {x for x in w0 if rng.random() < 0.5} for n in self.names}
                )

    def _stratum(self, f, path: str, cls) -> str:
        check = self.tc.quasisaw.check
        for m in self.screen[cls]:
            if check(m, f):
                return f"{path}{len(m.frame.w0)}"
        return f"{path}-"

    def warm(self, seed: int) -> list:
        """Forty-five queries in class ``all`` from the two cheapest
        strata; a stratified round would take a random number of draws
        to fill its rarest strata, and so a random time."""
        tc = self.tc
        rng = random.Random(f"{self.name}:{seed}:warm")
        cls = tc.quasisaw.FrameClass.ALL_QS
        queries = []
        while len(queries) < 45:
            f = self._formula(rng, 3)
            path = "fb" if tc.solver.as_literal_conjunction(f) is None else "lit"
            if self._stratum(f, path, cls) in ("lit1", "fb1"):
                queries.append(
                    SolveQuery(len(queries), f"warm{len(queries)}", "solve", cls,
                               tc.solver.Bounds(3, 3), tc.solver.DEFAULT_WORK_LIMIT,
                               tc.syntax.to_source(f))
                )
        return queries

    def _term(self, rng, depth):
        s = self.tc.syntax
        choice = rng.random()
        if depth <= 0 or choice < 0.45:
            r = rng.random()
            if r < 0.75:
                return s.Variable(rng.choice(self.names))
            return s.ZERO if r < 0.875 else s.ONE
        if choice < 0.65:
            return s.Sum(self._term(rng, depth - 1), self._term(rng, depth - 1))
        if choice < 0.85:
            return s.Product(self._term(rng, depth - 1), self._term(rng, depth - 1))
        return s.Complement(self._term(rng, depth - 1))

    def _atom(self, rng):
        s = self.tc.syntax
        r = rng.random()
        if r < 0.3:
            return s.Eq(self._term(rng, 2), self._term(rng, 2))
        if r < 0.55:
            return s.Contact(self._term(rng, 2), self._term(rng, 2))
        if r < 0.8:
            return s.Conn(self._term(rng, 2))
        return s.IntConn(self._term(rng, 2))

    def _formula(self, rng, depth):
        s = self.tc.syntax
        choice = rng.random()
        if depth <= 0 or choice < 0.4:
            return s.AtomF(self._atom(rng))
        if choice < 0.6:
            return s.And(self._formula(rng, depth - 1), self._formula(rng, depth - 1))
        if choice < 0.8:
            return s.Or(self._formula(rng, depth - 1), self._formula(rng, depth - 1))
        return s.Not(self._formula(rng, depth - 1))

    def make_round(self, seed: int, index, tracer=None) -> list[SolveQuery]:
        tc = self.tc
        rng = random.Random(f"{self.name}:{seed}:{index}")
        bounds = tc.solver.Bounds(3, 3)
        room = {
            (cls, st): self.quota[cls.value][i]
            for cls in tc.quasisaw.FrameClass for i, st in enumerate(self.strata)
        }
        picked = []
        while any(room.values()):
            f = self._formula(rng, 3)
            if len(tc.syntax.variables(f)) < len(self.names):
                continue
            path = "fb" if tc.solver.as_literal_conjunction(f) is None else "lit"
            text = tc.syntax.to_source(f)
            for cls in tc.quasisaw.FrameClass:
                if not any(n for (c, st), n in room.items() if c is cls and st.startswith(path)):
                    continue
                st = self._stratum(f, path, cls)
                if room[cls, st]:
                    room[cls, st] -= 1
                    picked.append((f"{st}/{cls.value}", cls, text, st))
        rng.shuffle(picked)
        limit = tc.solver.DEFAULT_WORK_LIMIT
        return [
            SolveQuery(i, f"random{i}:{name}", "solve", cls, bounds, limit, text, stratum=st)
            for i, (name, cls, text, st) in enumerate(picked)
        ]

    def check(self, queries: list, outcomes: list[Outcome], tally: Tally) -> None:
        for q, out in zip(queries, outcomes):
            if out.verdict == "sat":
                self.check_sat(q, out, tally)
            elif out.verdict == "unsat-up-to" and self.check_unsat(q, out, tally):
                # the enumerator takes up to about 1.5 s a query, so the
                # first unsat-up-to verdict of each class in a run is
                # compared with it and the rest are pinned
                if q.cls in self.enumerated:
                    tally.pinned += 1
                    continue
                self.enumerated.add(q.cls)
                if self.has_model_by_enumeration(q):
                    tally.bad(out, "the enumerator finds a model")
                else:
                    tally.checked += 1


# ---------------------------------------------------------------------------
# Plane workloads


def rect_region(rng: random.Random, tc: Topoconn, span: int, count: int) -> list:
    out = []
    for _ in range(count):
        x0 = rng.randint(0, span - 1)
        y0 = rng.randint(0, span - 1)
        out.append(
            tc.plane.rect(
                x0, y0, x0 + rng.randint(1, span - x0), y0 + rng.randint(1, span - y0)
            )
        )
    return out


def scene_text(scene, tc: Topoconn) -> str:
    return json.dumps(tc.plane.scene_to_json(scene))


def arrangement_counts(scene, arr) -> dict:
    segments = sum(
        len(ring.vertices)
        for _, polys in scene.regions
        for poly in polys
        for ring in poly.rings()
    )
    return {
        "plane.segments": segments,
        "plane.vertices": len(arr.vertices),
        "plane.edges": len(arr.edges),
        "plane.faces": len(arr.faces),
    }


def plane_counts(outcomes: list[Outcome]) -> dict:
    """Sizes of the scenes and arrangements the queries built."""
    c = {"plane.segments": 0, "plane.vertices": 0, "plane.edges": 0, "plane.faces": 0}
    for out in outcomes:
        for k, v in (out.payload or {}).get("counts", {}).items():
            c[k] += v
    return c


ATOM_TEMPLATES = (
    "c({0})", "ci({0})", "c(-{0})", "ci({0} + {1})", "C({0}, {1})",
    "{0} = {1}", "{0} <= {1}", "C({0}, -{1})", "ci(-({0} + {1}))", "c({0} . {1})",
)


@dataclass
class SceneQuery:
    qid: int
    name: str
    kind: str  # "rect", "onion" or "separator"
    text: str  # scene JSON
    battery: list  # (label, formula text, expected value or None)
    pair: tuple
    members: Optional[list] = None  # onion partitions: component graph members


class PlaneSweep(Workload):
    """Thousands of small scenes, each loaded, built and evaluated like
    one ``eval --scene`` call.

    The parameters that set a scene's cost (rectangles per region,
    colours and layers of an onion, the shape of a separator curve)
    follow the same schedule in every round; only the coordinates are
    drawn from the seed, so the slowest tenth of the scenes is alike
    from run to run.
    """

    name = "plane-sweep"
    per_round = {"rect": 30, "onion": 10, "separator": 10}
    # (colours, layers) of the onions in a round
    onions = ((3, 5), (3, 7), (4, 5), (4, 8), (5, 6), (5, 9), (6, 6), (6, 10),
              (4, 6), (5, 7))
    trace_rounds = 4
    warm_queries = 6

    def __init__(self, tc: Topoconn):
        self.tc = tc
        self.fixed: Optional[dict] = None

    def _fixed_texts(self, gen) -> dict:
        tc = self.tc
        C, to_source = tc.constructions, tc.syntax.to_source
        r = [f"r{i}" for i in range(1, 6)]
        return {
            # criterion 4: no plane scene satisfies eq2vs3
            "eq1vs2": to_source(gen(C.eq1vs2)),
            "eq2vs3": to_source(gen(C.eq2vs3)),
            # criterion 10: the separator scenes realize the gadget
            "k5m": to_source(gen(C.k5m, r)),
            "sides": "!C(r1, r2) & b1 <= r1 & b2 <= r2",
        }

    def _atoms(self, rng, names) -> list:
        out = []
        for k in range(10):
            a, b = rng.sample(names, 2)
            out.append((f"atom{k}", ATOM_TEMPLATES[k].format(a, b), None))
        return out

    def _rect_scene(self, rng, j: int):
        """Criterion 4's scenes: five regions of one or two rectangles
        in a 9 x 9 box."""
        tc = self.tc
        names = [f"r{i}" for i in range(1, 6)]
        scene = tc.plane.PlaneScene.make(
            {n: rect_region(rng, tc, 9, 1 + (i + j) % 2) for i, n in enumerate(names)}
        )
        return scene, names, None

    def _onion_scene(self, rng, j: int):
        """Nested rectangular layers with holes and fractional offsets,
        plus the members of a sub-cyclic partition of the plane."""
        P = self.tc.plane
        colours, layers = self.onions[j % len(self.onions)]
        boxes = []
        x0, y0 = Fraction(0), Fraction(0)
        x1, y1 = Fraction(40 + rng.randint(0, 20)), Fraction(40 + rng.randint(0, 20))
        for _ in range(layers):
            boxes.append((x0, y0, x1, y1))
            dx, dy = Fraction(1, rng.randint(1, 3)), Fraction(1, rng.randint(1, 3))
            x0, y0, x1, y1 = x0 + dx, y0 + dy, x1 - dx, y1 - dy

        def ring(b):
            return P.Ring(((b[0], b[1]), (b[2], b[1]), (b[2], b[3]), (b[0], b[3])))

        names = [f"r{j}" for j in range(1, layers + 1)]
        regions = {}
        for j in range(layers):
            holes = (ring(boxes[j + 1]),) if j + 1 < layers else ()
            regions[names[j]] = [P.Polygon(ring(boxes[j]), holes)]
        groups: dict[int, list[str]] = {c: [] for c in range(colours)}
        groups[0].append("-(" + " + ".join(names) + ")")
        for j, n in enumerate(names):
            groups[(j + 1) % colours].append(n)
        members = [" + ".join(g) for g in groups.values() if g]
        return P.PlaneScene.make(regions), names, members

    def _separator_scene(self, rng, j: int, gen):
        """Criterion 10's construction: a rectilinear curve separating
        b1 from b2, thickened into the five-region gadget r1..r5."""
        P, C = self.tc.plane, self.tc.constructions
        bx, by, s = rng.randint(0, 6), rng.randint(0, 6), rng.randint(1, 3)
        x0, y0, x1, y1 = bx - 2, by - 2, bx + s + 2, by + s + 2
        if j % 3 == 0:
            curve = [(x0, y0), (x1, y0), (x1, y1), (bx + s, y1),
                     (bx + s, y1 + 2), (x0, y1 + 2)]
            top = y1 + 2
        else:
            curve = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
            top = y1
        b2x, b2y = x1 + rng.randint(2, 5), rng.randint(y0 - 3, top + 3)
        base = P.PlaneScene.make(
            {
                "b1": [P.rect(bx, by, bx + s, by + s)],
                "b2": [P.rect(b2x, b2y, b2x + rng.randint(1, 3), b2y + rng.randint(1, 3))],
            }
        )
        out = gen(C.k5m_separator, base, "b1", "b2", curve)
        rename = {f"a{i}": f"r{i}" for i in range(1, 6)}
        scene = P.PlaneScene.make(
            {rename.get(n, n): polys for n, polys in out.regions}
        )
        return scene, [f"r{i}" for i in range(1, 6)], None

    def make_round(self, seed: int, index, tracer=None) -> list[SceneQuery]:
        tc = self.tc
        gen = tracer.wrap("constructions.gen", _call) if tracer else _call
        if self.fixed is None:
            self.fixed = self._fixed_texts(gen)
        fx = self.fixed
        rng = random.Random(f"{self.name}:{seed}:{index}")
        queries = []
        kinds = [(k, j) for k, n in self.per_round.items() for j in range(n)]
        rng.shuffle(kinds)
        for kind, j in kinds:
            if kind == "rect":
                scene, names, members = self._rect_scene(rng, j)
            elif kind == "onion":
                scene, names, members = self._onion_scene(rng, j)
            else:
                scene, names, members = self._separator_scene(rng, j, gen)
            battery = [("eq1vs2", fx["eq1vs2"], None), ("eq2vs3", fx["eq2vs3"], False)]
            if kind == "onion":
                sc = gen(tc.constructions.sc_part, [tc.parser.parse_term(m) for m in members])
                battery.append(("sc_part", tc.syntax.to_source(sc), True))
            if kind == "separator":
                battery.append(("k5m", fx["k5m"], True))
                battery.append(("sides", fx["sides"], True))
            battery += self._atoms(rng, names)
            queries.append(
                SceneQuery(
                    len(queries), f"{kind}{len(queries)}", kind, scene_text(scene, tc),
                    battery, ("r1", "r2"), members,
                )
            )
        return queries

    def run(self, api: Api, queries: list, record) -> None:
        for q in queries:
            api.set_query(q.qid)
            record(q, lambda q=q: self._one(api, q))

    def _one(self, api: Api, q: SceneQuery) -> Outcome:
        try:
            scene = api.scene_from_json(json.loads(q.text))
            arr = api.build_arrangement(scene)
            values = [api.plane_eval(arr, api.parse(text)) for _, text, _ in q.battery]
            rel = api.rcc8(scene, *q.pair)
            graph = api.component_graph(scene, q.members) if q.members else None
        except Exception as exc:  # reported as a failed query, never hidden
            return Outcome(q.qid, q.name, f"error:{type(exc).__name__}")
        counts = arrangement_counts(scene, arr)
        detail = "".join("1" if v else "0" for v in values) + f"|{rel.value}"
        if graph is not None:
            detail += f"|{len(graph.labels)}:{sorted(graph.edges)}"
        detail += "|" + ",".join(str(v) for v in counts.values())
        payload = {"values": values, "rel": rel, "graph": graph, "counts": counts, "arr": arr}
        return Outcome(q.qid, q.name, "evaluated", detail, payload)

    def counts(self, outcomes: list[Outcome]) -> dict:
        return plane_counts(outcomes)

    def check(self, queries: list, outcomes: list[Outcome], tally: Tally) -> None:
        tc = self.tc
        P = tc.plane
        sampled = False
        for q, out in zip(queries, outcomes):
            if out.verdict != "evaluated":
                continue
            p = out.payload
            for (label, _, expected), value in zip(q.battery, p["values"]):
                if expected is None:
                    tally.pinned += 1
                elif value != expected:
                    tally.bad(out, f"{label} is {value}")
                else:
                    tally.checked += 1
            # the reverse pair, on the arrangement the query built
            sets = p["arr"].region_sets
            back = P.rcc8_of_sets(sets[q.pair[1]], sets[q.pair[0]])
            if back.value != INVERSE[p["rel"].value]:
                tally.bad(out, f"rcc8 {p['rel'].value} but inverse {back.value}")
            else:
                tally.checked += 1
            if p["graph"] is not None:
                if not P.is_tree(p["graph"]):
                    tally.bad(out, "component graph of a sub-cyclic partition is no tree")
                else:
                    tally.checked += 1
            if not sampled:
                # the first scene of each round is also evaluated in its
                # induced quasi-saw model, which matches the plane
                sampled = True
                model = P.induced_quasisaw(p["arr"])
                for (label, text, _), value in zip(q.battery, p["values"]):
                    if tc.quasisaw.check(model, tc.parser.parse(text)) != value:
                        tally.bad(out, f"{label} differs from the induced model")
            out.payload = {"counts": p["counts"]}


INVERSE = {
    "DC": "DC", "EC": "EC", "PO": "PO", "EQ": "EQ",
    "TPP": "TPPi", "TPPi": "TPP", "NTPP": "NTPPi", "NTPPi": "NTPP",
}


@dataclass
class AtomQuery:
    qid: int
    name: str
    scene_text: Optional[str]  # set on the first query of each scene
    text: str


class PlaneLarge(Workload):
    """A few dense scenes, each built once by its first query and then
    queried with many connectedness and contact atoms."""

    name = "plane-large"
    regions = 12
    rects = (3, 5)
    span = 150
    # of this many random scenes, the one whose rectangle sides cross
    # each other closest to the target number of times is used, so that
    # every round builds an arrangement of about the same size (about
    # 500 faces and 1200 edges) at the same generation cost
    candidates = 12
    target_crossings = 590
    atoms_per_scene = 150
    trace_rounds = 3
    warm_queries = 20

    def __init__(self, tc: Topoconn):
        self.tc = tc

    def _crossings(self, rects: list) -> int:
        hs, vs = [], []
        for poly in rects:
            (x0, y0), _, (x1, y1), _ = poly.outer.vertices
            hs += [(y0, x0, x1), (y1, x0, x1)]
            vs += [(x0, y0, y1), (x1, y0, y1)]
        return sum(
            1 for y, hx0, hx1 in hs for x, vy0, vy1 in vs
            if hx0 < x < hx1 and vy0 < y < vy1
        )

    def make_round(self, seed: int, index, tracer=None) -> list[AtomQuery]:
        tc = self.tc
        rng = random.Random(f"{self.name}:{seed}:{index}")
        names = [f"r{i}" for i in range(1, self.regions + 1)]
        best = None
        for _ in range(self.candidates):
            regions = {
                n: rect_region(rng, tc, self.span, rng.randint(*self.rects))
                for n in names
            }
            crossings = self._crossings([p for ps in regions.values() for p in ps])
            off = abs(crossings - self.target_crossings)
            if best is None or off < best[0]:
                best = (off, regions)
        regions = best[1]
        text = scene_text(tc.plane.PlaneScene.make(regions), tc)
        templates = ("c({0} + {1})", "ci({0} + {1})", "C({0}, {1})",
                     "c({0} . -{1})", "ci(-({0} + {1}))", "C({0}, -{1})")
        queries = []
        for i in range(self.atoms_per_scene):
            a, b = rng.sample(names, 2)
            queries.append(
                AtomQuery(i, f"atom{i}", text if i == 0 else None,
                          templates[i % len(templates)].format(a, b))
            )
        return queries

    def run(self, api: Api, queries: list, record) -> None:
        state = {}
        for q in queries:
            api.set_query(q.qid)
            record(q, lambda q=q: self._one(api, q, state))

    def _one(self, api: Api, q: AtomQuery, state: dict) -> Outcome:
        try:
            if q.scene_text is not None:
                scene = api.scene_from_json(json.loads(q.scene_text))
                state["arr"] = api.build_arrangement(scene)
                state["counts"] = arrangement_counts(scene, state["arr"])
            value = api.plane_eval(state["arr"], api.parse(q.text))
        except Exception as exc:  # reported as a failed query, never hidden
            return Outcome(q.qid, q.name, f"error:{type(exc).__name__}")
        payload = {"arr": state["arr"]}
        if q.scene_text is not None:
            payload["counts"] = state["counts"]
        return Outcome(q.qid, q.name, str(value), "", payload)

    def counts(self, outcomes: list[Outcome]) -> dict:
        return plane_counts(outcomes)

    def check(self, queries: list, outcomes: list[Outcome], tally: Tally) -> None:
        tc = self.tc
        model = None
        for q, out in zip(queries, outcomes):
            if out.verdict not in ("True", "False"):
                continue
            if q.qid < 5:
                # the first atoms of each scene are also evaluated in the
                # induced quasi-saw model, which matches the plane
                if model is None:
                    model = tc.plane.induced_quasisaw(out.payload["arr"])
                value = tc.quasisaw.check(model, tc.parser.parse(q.text))
                if str(value) != out.verdict:
                    tally.bad(out, "differs from the induced model")
                else:
                    tally.checked += 1
            else:
                tally.pinned += 1
            out.payload = {"counts": out.payload["counts"]} if "counts" in out.payload else None


WORKLOADS = {
    w.name: w for w in (SolveFamilies, SolveRandom, PlaneSweep, PlaneLarge)
}
