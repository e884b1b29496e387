"""Bounded satisfiability search over quasi-saw frame classes.

The search space at level (n0, n1) consists of frames with depth-0
points x0..x{n0-1} and n1 depth-1 points, together with a valuation
assigning each depth-0 point a cell type (the set of formula variables
whose region contains it).  Candidates are enumerated canonically:
levels in lexicographic (n0, n1) order, cell-type tuples sorted
nondecreasing, successor-set families as ascending tuples of distinct
bitmasks.  The first satisfying candidate in this order is returned.

Two semantic reductions shrink the space without losing any verdict:
duplicate depth-1 points (identical successor sets) and depth-1 points
with a single successor never change the value of any atom, nor can
their removal disconnect the frame, so only families of distinct
successor sets of size >= 2 are enumerated.

Every formula is searched as the cubes (conjunctions of literals) of
its disjunctive normal form, drawn lazily.  A model satisfies the
formula exactly when it satisfies some cube, so the least candidate of
a level over all cubes is the first model.  Within a cube, equality
atoms are decided pointwise by cell types, negative contact literals
forbid individual successor sets, and the positive literals, which
extra depth-1 points never falsify, are satisfied by a minimal
successor-set family found with iterative deepening.

The cell types allowed by the positive equations that every cube
contains are built one variable at a time, dropping a partial type as
soon as an equation over the variables assigned so far rules it out, so
the pairwise disjoint regions of ``phi_inf_star`` keep 19 of 2^18
types.  The list is kept in ascending numeric order, every term becomes
a bitmask over it, and each cube keeps the types that its other
equations allow.

``work_limit`` bounds the work units spent before the bounds are
exhausted; ``ResourceExhausted`` is raised when it is exceeded.  One
unit is one partial cell type built, one literal of a partial cube made
at a disjunction, one subset of the depth-0 points looked at when a
level lists its successor sets, one cell-type tuple tried for a cube,
one branch of the family search (one bipartition choice; one branch
when there is no negative connectedness literal), or one search node of
the minimal-family search.  ``UnsatUpTo`` reports the units spent as
``frames_examined``.  The tuples of a cube are searched as prefixes,
and a prefix that no completion can extend to a tuple satisfying the
cube's disequations and negative contact literals is skipped whole; its
tuples are charged as if tried, so ``frames_examined`` and the point
where the limit is hit do not depend on that pruning.

Results are certificates: ``Sat`` carries a model that has been
re-checked (also against the brute-force oracle when small enough),
``UnsatUpTo`` only claims exhaustion of the given bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations_with_replacement, product, tee
from math import ceil, comb
from typing import Callable, Iterator, Optional, Sequence, Union

from .quasisaw import (
    DEFAULT_ORACLE_CAP,
    FrameClass,
    QsModel,
    check,
    classify_frame,
    make_frame,
    mask_components,
    oracle_check,
    term_mask,
)
from .syntax import (
    And,
    Atom,
    AtomF,
    Conn,
    Contact,
    Eq,
    Formula,
    IntConn,
    LanguageId,
    Not,
    Or,
    Term,
    language_leq,
    language_of,
    term_variables,
    to_bullet,
    variables,
)

DEFAULT_WORK_LIMIT = 10_000_000


class ResourceExhausted(RuntimeError):
    """Raised when the configured work limit is hit before the bounds
    are exhausted; distinct from an UnsatUpTo verdict."""


@dataclass(frozen=True)
class Bounds:
    max_w0: int
    max_w1: int

    def __post_init__(self) -> None:
        if self.max_w0 < 1:
            raise ValueError("max_w0 must be at least 1")
        if self.max_w1 < 0:
            raise ValueError("max_w1 must be nonnegative")


@dataclass(frozen=True)
class Sat:
    model: QsModel
    witness_class: FrameClass


@dataclass(frozen=True)
class UnsatUpTo:
    bounds: Bounds
    frames_examined: int


SolveResult = Union[Sat, UnsatUpTo]


# ---------------------------------------------------------------------------
# Work budget


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceExhausted(
                f"work limit of {self.limit} work units exceeded"
            )


# ---------------------------------------------------------------------------
# Literals and cubes


# a literal is a pair (positive, atom), a fork a pair (disjunction, sign)
_Literal = tuple[bool, Atom]
_Fork = tuple[Formula, bool]


def _split(f: Formula, sign: bool, cube: list[_Literal], forks: list[_Fork]) -> None:
    """Conjoin ``f`` (negated when ``sign`` is False) to a partial cube:
    append the literals reached from ``f`` through conjunctions only to
    ``cube``, left to right, and the disjunctions met on the way to
    ``forks``.  Under a negation ``Or`` conjoins and ``And`` branches."""
    stack = [(f, sign)]
    while stack:
        g, sign = stack.pop()
        if isinstance(g, AtomF):
            cube.append((sign, g.atom))
        elif isinstance(g, Not):
            stack.append((g.arg, not sign))
        elif isinstance(g, And if sign else Or):
            stack += ((g.right, sign), (g.left, sign))
        elif isinstance(g, (And, Or)):
            forks.append((g, sign))
        else:
            raise TypeError(f"not a formula: {g!r}")


def as_literal_conjunction(f: Formula) -> Optional[list[_Literal]]:
    """The literals of ``f``, left to right, when ``f`` is a conjunction
    of literals (its disjunctive normal form has one cube); None when a
    disjunction occurs under the polarity of ``f``."""
    literals: list[_Literal] = []
    forks: list[_Fork] = []
    _split(f, True, literals, forks)
    return None if forks else literals


def _cubes(
    spine: list[_Literal], forks: list[_Fork], work: _Budget
) -> Iterator[list[_Literal]]:
    """The cubes of the disjunctive normal form of ``spine`` conjoined
    with ``forks``, one at a time.  Every cube starts with the literals
    of ``spine`` and adds those of one branch of each fork, left branches
    first.  Each partial cube made at a fork costs one unit of work per
    literal, so the work limit bounds the time and memory of the
    expansion."""
    stack: list = [(spine, forks, None)]
    while stack:
        cube, forks, branch = stack.pop()
        if branch is not None:
            cube, forks = cube.copy(), forks.copy()
            _split(*branch, cube, forks)
            work.spend(len(cube))
        if not forks:
            yield cube
            continue
        (g, sign), rest = forks[0], forks[1:]
        stack += ((cube, rest, (g.right, sign)), (cube, rest, (g.left, sign)))


# ---------------------------------------------------------------------------
# Cell types

# A cell type is a bitmask over the formula's variables: the set of
# variables whose regions contain a depth-0 point.  Only the types that
# satisfy every positive equation can occur in a model.  They are listed
# once, in ascending numeric order, and from then on a cell type is an
# index into that list.  Every term denotes, per depth-0 point, a Boolean
# function of the point's cell type, encoded as a bitmask over the list.


def _var_masks(cts: Sequence[int], var_names: tuple[str, ...]) -> dict[str, int]:
    """Per variable, the bitmask of the positions in ``cts`` whose cell
    type contains it."""
    return {
        name: int("".join("1" if ct >> i & 1 else "0" for ct in reversed(cts)), 2)
        for i, name in enumerate(var_names)
    }


def _cell_types(
    literals: list[_Literal], var_names: tuple[str, ...], work: _Budget
) -> tuple[list[int], dict[str, int]]:
    """The cell types satisfying every positive equation among
    ``literals``, in ascending numeric order, and the variables' masks
    over that list (see ``_var_masks``).

    Types are built one variable at a time, in the order of
    ``var_names``.  Once all variables of an equation are assigned, the
    partial types violating it are dropped, so each level holds at most
    twice the partial types that survived the level before.  Each
    partial type built costs one unit of work."""
    due: dict[int, list[tuple[Term, Term]]] = {}
    for positive, a in literals:
        if positive and isinstance(a, Eq):
            names = term_variables(a.left) | term_variables(a.right)
            k = max((var_names.index(n) + 1 for n in names), default=0)
            due.setdefault(k, []).append((a.left, a.right))
    cts = [0]
    masks: dict[str, int] = {}
    for k in range(len(var_names) + 1):
        if k:
            work.spend(2 * len(cts))
            # appending the types with the new, highest bit keeps the
            # list in ascending order
            n = len(cts)
            cts += [ct | 1 << (k - 1) for ct in cts]
            for name, m in masks.items():
                masks[name] = m | m << n
            masks[var_names[k - 1]] = ((1 << n) - 1) << n
        if k in due:
            full = (1 << len(cts)) - 1
            keep = full
            for left, right in due[k]:
                keep &= ~(term_mask(left, masks, full) ^ term_mask(right, masks, full))
            cts = [ct for j, ct in enumerate(cts) if keep >> j & 1]
            if not cts:
                break
            masks = _var_masks(cts, var_names[:k])
    return cts, masks


def _trace_of(tt: int, idx: tuple[int, ...]) -> int:
    """The depth-0 points, given by their cell-type indices, at which the
    term with mask ``tt`` holds."""
    mask = 0
    for j, ct in enumerate(idx):
        if tt >> ct & 1:
            mask |= 1 << j
    return mask


# ---------------------------------------------------------------------------
# Search over the cubes of the disjunctive normal form


@dataclass
class _ConnConstraint:
    trace: int
    interior: bool  # interior connectivity uses only links inside the trace
    cand: frozenset[int]
    max_merge: int

    def need(self, family: list[int]) -> int:
        """A lower bound on the links still missing; 0 when satisfied."""
        comps = len(mask_components(self.trace, family, self.interior))
        return ceil((comps - 1) / self.max_merge) if comps > 1 else 0


@dataclass
class _CoverConstraint:
    cand: frozenset[int]

    def need(self, family: list[int]) -> int:
        return 0 if any(m in self.cand for m in family) else 1


def _base_masks(n0: int, cls: FrameClass) -> list[int]:
    # Successor sets with fewer than two members never influence any
    # atom or the frame's connectivity, so they are not searched.
    if cls is FrameClass.CON_2QS:
        return [m for m in range(1 << n0) if m.bit_count() == 2]
    return [m for m in range(1 << n0) if m.bit_count() >= 2]


def _minimal_positive_family(
    allowed: list[int],
    positives: list[_ConnConstraint | _CoverConstraint],
    budget_k: int,
    work: _Budget,
) -> Optional[tuple[int, ...]]:
    """Lexicographically least family of at most ``budget_k`` masks from
    ``allowed`` satisfying all (upward-monotone) positive constraints;
    None when none exists.  Callers must have established feasibility
    under the full allowed family."""
    if not positives:
        return ()
    useful = frozenset().union(*(c.cand for c in positives))
    allowed = [m for m in allowed if m in useful]

    def unsatisfied(family: list[int]) -> list[tuple[int, frozenset[int]]]:
        return [(n, c.cand) for c in positives if (n := c.need(family))]

    def lower_bound(unsat: list[tuple[int, frozenset[int]]]) -> int:
        best = max((n for n, _ in unsat), default=0)
        packed = 0
        used: set[int] = set()
        for n, cand in sorted(unsat, key=lambda item: len(item[1])):
            if used.isdisjoint(cand):
                packed += n
                used |= cand
        return max(best, packed)

    def dfs(family: list[int], start: int, k: int) -> Optional[tuple[int, ...]]:
        work.spend()
        unsat = unsatisfied(family)
        if not unsat:
            return tuple(family)
        if len(family) + lower_bound(unsat) > k:
            return None
        cand_now = frozenset().union(*(cand for _, cand in unsat))
        for i in range(start, len(allowed)):
            m = allowed[i]
            if m not in cand_now:
                continue
            family.append(m)
            found = dfs(family, i + 1, k)
            if found is not None:
                return found
            family.pop()
        return None

    lb0 = lower_bound(unsatisfied([]))
    if lb0 > budget_k:
        return None
    for k in range(max(lb0, 1), budget_k + 1):
        found = dfs([], 0, k)
        if found is not None:
            return found
    return None


def _bipartitions(trace: int) -> Iterator[tuple[int, int]]:
    """All unordered splits of the trace bits into two nonempty parts;
    the part containing the lowest bit comes first."""
    low = trace & -trace
    rest = trace & ~low
    sub = rest
    while True:
        part_a = low | (rest & ~sub)
        part_b = trace & ~part_a
        if part_b:
            yield part_a, part_b
        if sub == 0:
            break
        sub = (sub - 1) & rest


def _crossing_mask(
    allowed: list[int], trace: int, interior: bool, part_a: int, part_b: int
) -> int:
    """The positions in ``allowed`` of the links joining the two parts
    of a bipartition of ``trace``; interior connectedness uses only the
    links inside the trace."""
    mask = 0
    for i, m in enumerate(allowed):
        if interior and m & ~trace:
            continue
        if m & part_a and m & part_b:
            mask |= 1 << i
    return mask


def _minimal_family(
    allowed: list[int],
    positives: list[_ConnConstraint | _CoverConstraint],
    negatives: list[tuple[int, bool]],
    budget_k: int,
    work: _Budget,
) -> Optional[tuple[int, ...]]:
    """Smallest family satisfying the positives while keeping every
    negative trace, given as ``(trace, interior)``, disconnected; ties
    broken lexicographically.

    A family keeps a negative trace disconnected exactly when some
    bipartition of that trace has no crossing link in the family, so the
    negatives are eliminated by branching over one bipartition witness
    per negative and filtering the crossing masks out of ``allowed``.
    Without negatives there is one branch, which filters nothing.  Each
    branch costs one unit of work.  The caller has established the
    positives' feasibility under ``allowed`` itself.
    """
    crossings = [
        [_crossing_mask(allowed, t, interior, pa, pb) for pa, pb in _bipartitions(t)]
        for t, interior in negatives
    ]
    best: Optional[tuple[int, ...]] = None
    seen_filters: set[int] = set()
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
            if any(c.need(filtered) for c in positives):
                continue
        budget = budget_k if best is None else len(best)
        found = _minimal_positive_family(filtered, positives, budget, work)
        if found is not None and (
            best is None or (len(found), found) < (len(best), best)
        ):
            best = found
            if not best:
                break
    return best


def _build_model(
    var_names: tuple[str, ...], n0: int, cts: tuple[int, ...], family: tuple[int, ...]
) -> QsModel:
    w0 = tuple(f"x{j}" for j in range(n0))
    w1 = tuple(
        (f"z{i}", frozenset(w0[j] for j in range(n0) if m >> j & 1))
        for i, m in enumerate(family)
    )
    frame = make_frame(w0, w1)
    valuation = {
        name: {w0[j] for j in range(n0) if cts[j] >> i & 1}
        for i, name in enumerate(var_names)
    }
    return QsModel.make(frame, valuation)


# a candidate of a level: (number of depth-1 points, cell-type tuple, family)
_Candidate = tuple[int, tuple[int, ...], tuple[int, ...]]


class _Cube:
    """One cube of the formula, prepared over the shared cell-type list:
    the types its own equations keep, and its other literals as term
    masks over that list."""

    def __init__(
        self,
        literals: list[_Literal],
        shared: int,
        tt: Callable[[Term], int],
        n_types: int,
        work: _Budget,
    ):
        self.work = work
        keep = (1 << n_types) - 1
        neq_diffs: list[int] = []
        dead = 0  # the types in both terms of a negative contact literal
        self.contact_lits: list[tuple[bool, int, int]] = []
        self.conn_lits: list[tuple[bool, bool, int]] = []  # (positive, interior, tt)
        for k, (positive, a) in enumerate(literals):
            if isinstance(a, Eq):
                if not positive:
                    neq_diffs.append(tt(a.left) ^ tt(a.right))
                elif k >= shared:  # the list obeys the first ``shared`` literals
                    keep &= ~(tt(a.left) ^ tt(a.right))
            elif isinstance(a, Contact):
                t1_tt, t2_tt = tt(a.left), tt(a.right)
                self.contact_lits.append((positive, t1_tt, t2_tt))
                if not positive:
                    dead |= t1_tt & t2_tt
            elif isinstance(a, Conn):
                self.conn_lits.append((positive, False, tt(a.arg)))
            elif isinstance(a, IntConn):
                self.conn_lits.append((positive, True, tt(a.arg)))
            else:
                raise TypeError(f"not an atom: {a!r}")
        neq_diffs = [d & keep for d in neq_diffs]
        if not all(neq_diffs):
            keep = 0  # a disequation that no kept type witnesses: no model
        self.kept = [j for j in range(n_types) if keep >> j & 1]
        # per cell type, the disequations a point of that type witnesses:
        # a tuple of types satisfies them all when their union is full.
        # A dead type gets -1, which no union completes: ``family``
        # rejects every tuple holding one before it spends work
        self.witnessed = [0] * n_types
        for k, d in enumerate(neq_diffs):
            for j in self.kept:
                if d >> j & 1:
                    self.witnessed[j] |= 1 << k
        self.all_neq = (1 << len(neq_diffs)) - 1
        if dead:
            for j in self.kept:
                if dead >> j & 1:
                    self.witnessed[j] = -1
        self._suffix = None  # built by the first search with n0 >= 2

    def _suffix_tables(self) -> tuple[list[int], list[int]]:
        """Per position ``p`` into ``kept``: the disequations that the
        types of ``kept[p:]`` other than the dead ones witness
        together, and the most that one of them witnesses."""
        nk = len(self.kept)
        union, most = [0] * (nk + 1), [0] * (nk + 1)
        for p in range(nk - 1, -1, -1):
            union[p], most[p] = union[p + 1], most[p + 1]
            w = self.witnessed[self.kept[p]]
            if w >= 0:
                union[p] |= w
                most[p] = max(most[p], w.bit_count())
        return union, most

    def search(
        self,
        n0: int,
        base: list[int],
        connected: bool,
        best: _Candidate,
    ) -> _Candidate:
        """Try the nondecreasing cell-type tuples of length ``n0`` over
        ``kept`` in lexicographic order (the indices ascend with the
        types) and return the least candidate found that beats ``best``,
        else ``best``.

        Each tuple costs one unit of work.  Only the tuples that witness
        every disequation and hold no dead type reach ``family``.  The
        tuples are searched depth first over their prefixes, on an
        explicit stack, and a prefix none of whose completions can pass
        is charged for all of them in one step.  The units are spent
        before each call of ``family`` and at the end: the spends are
        those of trying every tuple in turn, with the spends between two
        calls merged, so the work runs out before the same call."""
        kept, witnessed, all_neq, work = self.kept, self.witnessed, self.all_neq, self.work
        nk = len(kept)
        if not nk:
            return best
        if n0 > 1:
            if self._suffix is None:
                self._suffix = self._suffix_tables()
            union, most = self._suffix
        # a prefix: its types, the position in ``kept`` of its last type
        # (the types from there on may follow) and the disequations it
        # witnesses, -1 once it holds a dead type
        stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]
        pending = 0  # units charged since the last spend
        while stack:
            prefix, p, seen = stack.pop()
            r = n0 - len(prefix)
            if r > 1:
                if (
                    seen | union[p] != all_neq
                    or (all_neq & ~seen).bit_count() > r * most[p]
                ):
                    # no completion passes: charge the block whole, unless
                    # the cut after a model without depth-1 points falls
                    # inside it; such a model comes from an earlier cube
                    if best[0] or prefix + (kept[-1],) * r <= best[1]:
                        pending += comb(nk - p + r - 1, r)
                        continue
                    if prefix + (kept[p],) * r > best[1]:
                        break
                stack += [
                    (prefix + (kept[q],), q, seen | witnessed[kept[q]])
                    for q in range(nk - 1, p - 1, -1)
                ]
                continue
            for t in kept[p:]:
                if not best[0] and prefix + (t,) > best[1]:
                    stack.clear()  # no later tuple beats a model without depth-1 points
                    break
                pending += 1
                if seen | witnessed[t] != all_neq:
                    continue
                work.spend(pending)
                pending = 0
                idx = prefix + (t,)
                budget_k = best[0] if idx <= best[1] else best[0] - 1
                family = self.family(idx, base, connected, budget_k)
                if family is not None and (len(family), idx, family) < best:
                    best = (len(family), idx, family)
        work.spend(pending)
        return best

    def family(
        self, idx: tuple[int, ...], base: list[int], connected: bool, budget_k: int
    ) -> Optional[tuple[int, ...]]:
        """The least family of at most ``budget_k`` successor sets from
        ``base`` under which the depth-0 points of cell types ``idx``
        satisfy the cube's contact and connectedness literals; None when
        there is none."""
        pos_contact: list[tuple[int, int]] = []
        neg_contact: list[tuple[int, int]] = []
        for positive, t1_tt, t2_tt in self.contact_lits:
            t1, t2 = _trace_of(t1_tt, idx), _trace_of(t2_tt, idx)
            if t1 & t2:
                if not positive:
                    return None
            elif positive:
                if t1 == 0 or t2 == 0:
                    return None
                pos_contact.append((t1, t2))  # the traces must be linked
            else:
                neg_contact.append((t1, t2))

        pos_conn: list[tuple[bool, int]] = []
        negatives: list[tuple[int, bool]] = []
        for positive, interior, a_tt in self.conn_lits:
            t = _trace_of(a_tt, idx)
            if t.bit_count() <= 1:
                if not positive:
                    return None
            elif positive:
                pos_conn.append((interior, t))
            else:
                negatives.append((t, interior))
        if connected:
            pos_conn.append((False, (1 << len(idx)) - 1))

        allowed = base
        if neg_contact:
            allowed = [
                m
                for m in base
                if not any(m & t1 and m & t2 for t1, t2 in neg_contact)
            ]
        positives: list[_ConnConstraint | _CoverConstraint] = []
        for t1, t2 in pos_contact:
            cand = frozenset(m for m in allowed if m & t1 and m & t2)
            if not cand:
                return None
            positives.append(_CoverConstraint(cand))
        for interior, t in pos_conn:
            # interior connectedness uses only the links inside the trace
            cand = frozenset(
                m
                for m in allowed
                if (m & t).bit_count() >= 2 and not (interior and m & ~t)
            )
            max_merge = max(((m & t).bit_count() - 1 for m in cand), default=1)
            constraint = _ConnConstraint(t, interior, cand, max_merge)
            if constraint.need(list(cand)):
                return None
            positives.append(constraint)
        return _minimal_family(allowed, positives, negatives, budget_k, self.work)


# ---------------------------------------------------------------------------
# Public entry points


def solve(
    f: Formula,
    cls: FrameClass = FrameClass.ALL_QS,
    bounds: Bounds = Bounds(5, 10),
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> SolveResult:
    """Search for a quasi-saw model of ``f`` in the given frame class,
    up to the given bounds.  UnsatUpTo never claims unsatisfiability
    beyond the searched bounds."""
    work = _Budget(work_limit)
    var_names = variables(f)
    spine: list[_Literal] = []
    forks: list[_Fork] = []
    _split(f, True, spine, forks)
    # every cube contains the spine, so its equations alone shape the
    # cell-type list that all cubes share
    cts, var_masks = _cell_types(spine, var_names, work)
    if not cts:
        # every point violates some equation: no model at any bounds
        return UnsatUpTo(bounds, work.used)
    tt = partial(term_mask, masks=var_masks, full=(1 << len(cts)) - 1)
    cubes = (
        _Cube(c, len(spine), tt, len(cts), work) for c in _cubes(spine, forks, work)
    )
    for n0 in range(1, bounds.max_w0 + 1):
        work.spend(1 << n0)  # charged before the list is built
        base = _base_masks(n0, cls)
        connected = n0 > 1 and cls is not FrameClass.ALL_QS
        # the least candidate (n1, cell-type tuple, family) so far; the
        # initial one is beaten by every candidate within the bounds
        best: _Candidate = (bounds.max_w1 + 1, (), ())
        # replay the cubes drawn so far; draw more only when reached
        cubes, level = tee(cubes)
        for cube in level:
            best = cube.search(n0, base, connected, best)
            if best == (0, (0,) * n0, ()):
                break  # no candidate of the level precedes it
        if best[1]:
            break
    else:
        return UnsatUpTo(bounds, work.used)
    model = _build_model(var_names, n0, tuple(cts[j] for j in best[1]), best[2])
    if cls not in classify_frame(model.frame):
        raise RuntimeError("internal error: model leaves the requested frame class")
    result = Sat(model, cls)
    if not verify(result, f):
        raise RuntimeError("internal error: candidate model failed verification")
    return result


def solve_rc3(
    f: Formula,
    bounds: Bounds = Bounds(5, 10),
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> SolveResult:
    """Satisfiability over the regular closed sets of R^n for n >= 3,
    which coincides with satisfiability over connected quasi-saws for
    interior-connectedness formulas."""
    if not language_leq(language_of(f), LanguageId.Bci):
        raise ValueError("solve_rc3 requires a Bci formula")
    return solve(f, FrameClass.CON_QS, bounds, work_limit)


def solve_rcp3(
    f: Formula,
    bounds: Bounds = Bounds(5, 10),
    work_limit: int = DEFAULT_WORK_LIMIT,
) -> SolveResult:
    """Satisfiability over the regular closed polyhedra of R^n, n >= 3:
    rewrite interior-connectedness to plain connectedness and search
    connected 2-quasi-saws."""
    if not language_leq(language_of(f), LanguageId.Bci):
        raise ValueError("solve_rcp3 requires a Bci formula")
    return solve(to_bullet(f), FrameClass.CON_2QS, bounds, work_limit)


def verify(result: SolveResult, f: Formula) -> bool:
    """Re-evaluate a Sat certificate with the trace semantics and, when
    the frame is small enough, the brute-force oracle."""
    if not isinstance(result, Sat):
        raise ValueError("verify expects a Sat result")
    model = result.model
    ok = check(model, f)
    if len(model.frame.w0) + len(model.frame.w1) <= DEFAULT_ORACLE_CAP:
        ok = ok and oracle_check(model, f)
    return ok


def enumerate_models(
    f: Formula, cls: FrameClass, bounds: Bounds
) -> Iterator[QsModel]:
    """Unoptimized, independent enumerator of every candidate model at
    the given bounds: successor multisets may repeat and may have any
    nonempty size, valuations run over the full product of cell types.
    Used to cross-check the solver; deliberately shares none of its
    pruning."""
    var_names = variables(f)
    v = len(var_names)
    for n0 in range(1, bounds.max_w0 + 1):
        w0 = tuple(f"x{j}" for j in range(n0))
        if cls is FrameClass.CON_2QS:
            masks = [m for m in range(1, 1 << n0) if m.bit_count() == 2]
        else:
            masks = [m for m in range(1, 1 << n0)]
        for n1 in range(0, bounds.max_w1 + 1):
            for fam in combinations_with_replacement(masks, n1):
                w1 = tuple(
                    (f"z{i}", frozenset(w0[j] for j in range(n0) if m >> j & 1))
                    for i, m in enumerate(fam)
                )
                frame = make_frame(w0, w1)
                if cls not in classify_frame(frame):
                    continue
                for cts in product(range(1 << v), repeat=n0):
                    valuation = {
                        name: {w0[j] for j in range(n0) if cts[j] >> i & 1}
                        for i, name in enumerate(var_names)
                    }
                    yield QsModel.make(frame, valuation)
