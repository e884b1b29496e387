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

For conjunctions of literals (every formula this package generates) a
fast path exploits monotonicity: adding a depth-1 point can only make
regions more connected and more in contact, never less.  Equality atoms
are decided pointwise by cell types, negative contact literals forbid
individual successor sets, and the remaining positive literals are
satisfied by a minimal successor-set family found with iterative
deepening.  Arbitrary formulas fall back to direct enumeration, which
evaluates each candidate on bitmasks (the variables' traces are built
once per cell-type tuple, the successor sets are the links) with the
shared evaluator of :mod:`quasisaw` and builds a model only for the
first candidate that satisfies the formula.

The fast path never builds all 2^v cell types of v variables.  It
enumerates the cell types allowed by the positive equations one variable
at a time, dropping a partial type as soon as an equation over the
variables assigned so far rules it out; the allowed types are kept in
ascending numeric order, and every term becomes a bitmask over that
list.  So formulas whose equations make most cell types impossible (the
pairwise disjoint regions of ``phi_inf_star`` keep 19 of 2^18 types)
stay small.

``work_limit`` bounds the work units spent before the bounds are
exhausted; ``ResourceExhausted`` is raised when it is exceeded.  One
unit is one partial cell type built, one cell-type tuple, one
bipartition choice for the negative connectedness literals, or one
search node of the minimal-family search on the fast path, and one
candidate model in the fallback enumeration.  ``UnsatUpTo`` reports the
units spent as ``frames_examined``.

Results are certificates: ``Sat`` carries a model that has been
re-checked (also against the brute-force oracle when small enough),
``UnsatUpTo`` only claims exhaustion of the given bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product
from math import ceil
from typing import Iterator, Optional, Sequence, Union

from .quasisaw import (
    DEFAULT_ORACLE_CAP,
    FrameClass,
    QsModel,
    check,
    classify_frame,
    holds,
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
# Literal extraction


@dataclass(frozen=True)
class _Literal:
    positive: bool
    atom: Atom


def _flatten_literals(f: Formula, sign: bool, out: list[_Literal]) -> bool:
    """Collect literals if ``f`` (under ``sign``) is a conjunction of
    literals; returns False when it is not."""
    if isinstance(f, AtomF):
        out.append(_Literal(sign, f.atom))
        return True
    if isinstance(f, Not):
        return _flatten_literals(f.arg, not sign, out)
    if isinstance(f, And) and sign:
        return _flatten_literals(f.left, sign, out) and _flatten_literals(
            f.right, sign, out
        )
    if isinstance(f, Or) and not sign:
        return _flatten_literals(f.left, sign, out) and _flatten_literals(
            f.right, sign, out
        )
    return False


def as_literal_conjunction(f: Formula) -> Optional[list[_Literal]]:
    out: list[_Literal] = []
    return out if _flatten_literals(f, True, out) else None


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
    equations: list[tuple[Term, Term]], var_names: tuple[str, ...], work: _Budget
) -> list[int]:
    """The cell types satisfying every equation ``left = right``, in
    ascending numeric order.

    Types are built one variable at a time, in the order of
    ``var_names``.  Once all variables of an equation are assigned, the
    partial types violating it are dropped, so each level holds at most
    twice the partial types that survived the level before.  Each
    partial type built costs one unit of work."""
    index = {name: i for i, name in enumerate(var_names)}
    due: list[list[tuple[Term, Term]]] = [[] for _ in range(len(var_names) + 1)]
    for left, right in equations:
        names = term_variables(left) | term_variables(right)
        due[max((index[n] + 1 for n in names), default=0)].append((left, right))
    cts = [0]
    for k, eqs in enumerate(due):
        if k:
            work.spend(2 * len(cts))
            # appending the types with the new, highest bit keeps the
            # list in ascending order
            cts += [ct | 1 << (k - 1) for ct in cts]
        if eqs:
            full = (1 << len(cts)) - 1
            masks = _var_masks(cts, var_names[:k])
            keep = full
            for left, right in eqs:
                keep &= ~(term_mask(left, masks, full) ^ term_mask(right, masks, full))
            cts = [ct for j, ct in enumerate(cts) if keep >> j & 1]
            if not cts:
                break
    return cts


def _trace_of(tt: int, idx: tuple[int, ...]) -> int:
    """The depth-0 points, given by their cell-type indices, at which the
    term with mask ``tt`` holds."""
    mask = 0
    for j, ct in enumerate(idx):
        if tt >> ct & 1:
            mask |= 1 << j
    return mask


# ---------------------------------------------------------------------------
# Fast path for conjunctions of literals


@dataclass
class _ConnConstraint:
    trace: int
    subset_only: bool  # interior connectivity uses only links inside the trace
    cand: frozenset[int]
    max_merge: int

    def satisfied(self, family: list[int]) -> bool:
        return len(mask_components(self.trace, family, self.subset_only)) <= 1

    def need(self, family: list[int]) -> int:
        comps = len(mask_components(self.trace, family, self.subset_only))
        if comps <= 1:
            return 0
        return ceil((comps - 1) / self.max_merge)


@dataclass
class _CoverConstraint:
    cand: frozenset[int]

    def satisfied(self, family: list[int]) -> bool:
        return any(m in self.cand for m in family)

    def need(self, family: list[int]) -> int:
        return 0 if self.satisfied(family) else 1


_PosConstraint = Union[_ConnConstraint, _CoverConstraint]


def _base_masks(n0: int, cls: FrameClass) -> list[int]:
    # Successor sets with fewer than two members never influence any
    # atom or the frame's connectivity, so they are not searched.
    if cls is FrameClass.CON_2QS:
        return [m for m in range(1 << n0) if m.bit_count() == 2]
    return [m for m in range(1 << n0) if m.bit_count() >= 2]


def _minimal_positive_family(
    allowed: list[int],
    positives: list[_PosConstraint],
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

    def lower_bound(family: list[int]) -> int:
        unsat = [(c.need(family), c.cand) for c in positives if not c.satisfied(family)]
        unsat = [(n, cand) for n, cand in unsat if n > 0]
        if not unsat:
            return 0
        best = max(n for n, _ in unsat)
        packed = 0
        used: set[int] = set()
        for n, cand in sorted(unsat, key=lambda item: len(item[1])):
            if used.isdisjoint(cand):
                packed += n
                used |= cand
        return max(best, packed)

    def dfs(family: list[int], start: int, k: int) -> Optional[tuple[int, ...]]:
        work.spend()
        unsat = [c for c in positives if not c.satisfied(family)]
        if not unsat:
            return tuple(family)
        if len(family) + lower_bound(family) > k:
            return None
        cand_now = frozenset().union(*(c.cand for c in unsat))
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

    lb0 = lower_bound([])
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
    allowed: list[int], neg: _ConnConstraint, part_a: int, part_b: int
) -> int:
    """The positions in ``allowed`` of the links joining the two parts
    of a bipartition of ``neg``'s trace."""
    mask = 0
    for i, m in enumerate(allowed):
        if neg.subset_only and m & ~neg.trace:
            continue
        if m & part_a and m & part_b:
            mask |= 1 << i
    return mask


def _minimal_family(
    allowed: list[int],
    positives: list[_PosConstraint],
    negatives: list[_ConnConstraint],
    budget_k: int,
    work: _Budget,
) -> Optional[tuple[int, ...]]:
    """Smallest family satisfying the positives while keeping every
    negative trace disconnected; ties broken lexicographically.

    A family keeps a negative trace disconnected exactly when some
    bipartition of that trace has no crossing link in the family, so the
    negatives are eliminated by branching over one bipartition witness
    per negative and filtering the crossing masks out of ``allowed``.
    Each branch costs one unit of work.
    """
    if budget_k < 0:
        return None
    crossings = [
        [_crossing_mask(allowed, neg, pa, pb) for pa, pb in _bipartitions(neg.trace)]
        for neg in negatives
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
        filtered = [m for i, m in enumerate(allowed) if not removed >> i & 1]
        if any(not c.satisfied(filtered) for c in positives):
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


def _solve_conjunction(
    literals: list[_Literal],
    var_names: tuple[str, ...],
    cls: FrameClass,
    bounds: Bounds,
    work: _Budget,
) -> Optional[QsModel]:
    equations = [
        (lit.atom.left, lit.atom.right)
        for lit in literals
        if lit.positive and isinstance(lit.atom, Eq)
    ]
    allowed_cts = _cell_types(equations, var_names, work)
    if not allowed_cts:
        # every point violates some equation: no model at any bounds
        return None
    ct_full = (1 << len(allowed_cts)) - 1
    var_masks = _var_masks(allowed_cts, var_names)

    def tt(t: Term) -> int:
        return term_mask(t, var_masks, ct_full)

    neq_diffs: list[int] = []
    contact_lits: list[tuple[bool, int, int]] = []
    conn_lits: list[tuple[bool, bool, int]] = []  # (positive, interior, tt)
    for lit in literals:
        a = lit.atom
        if isinstance(a, Eq):
            if not lit.positive:
                neq_diffs.append(tt(a.left) ^ tt(a.right))
        elif isinstance(a, Contact):
            contact_lits.append((lit.positive, tt(a.left), tt(a.right)))
        elif isinstance(a, Conn):
            conn_lits.append((lit.positive, False, tt(a.arg)))
        elif isinstance(a, IntConn):
            conn_lits.append((lit.positive, True, tt(a.arg)))
        else:
            raise TypeError(f"not an atom: {a!r}")

    if any(d == 0 for d in neq_diffs):
        # some disequation can never be witnessed: no model at any bounds
        return None
    # per cell type, the bitmask of the disequations a point of that type
    # witnesses; a tuple of types satisfies them all when the union of
    # its masks is full
    witnessed = [
        sum(1 << k for k, d in enumerate(neq_diffs) if d >> j & 1)
        for j in range(len(allowed_cts))
    ]
    all_neq = (1 << len(neq_diffs)) - 1

    for n0 in range(1, bounds.max_w0 + 1):
        full_trace = (1 << n0) - 1
        base = _base_masks(n0, cls)
        best: Optional[tuple[int, tuple[int, ...], tuple[int, ...]]] = None
        # indices into the ascending list enumerate the cell-type tuples
        # in the same order as the types themselves
        for idx in combinations_with_replacement(range(len(allowed_cts)), n0):
            work.spend()
            seen = 0
            for j in idx:
                seen |= witnessed[j]
            if seen != all_neq:
                continue

            dead = False
            pos_contact: list[tuple[int, int]] = []
            neg_contact: list[tuple[int, int]] = []
            for positive, t1_tt, t2_tt in contact_lits:
                t1, t2 = _trace_of(t1_tt, idx), _trace_of(t2_tt, idx)
                if positive:
                    if t1 & t2:
                        continue  # traces already meet
                    if t1 == 0 or t2 == 0:
                        dead = True
                        break
                    pos_contact.append((t1, t2))
                else:
                    if t1 & t2:
                        dead = True
                        break
                    neg_contact.append((t1, t2))
            if dead:
                continue

            pos_conn: list[tuple[bool, int]] = []
            neg_conn: list[tuple[bool, int]] = []
            for positive, interior, a_tt in conn_lits:
                t = _trace_of(a_tt, idx)
                if t.bit_count() <= 1:
                    if not positive:
                        dead = True
                        break
                    continue
                (pos_conn if positive else neg_conn).append((interior, t))
            if dead:
                continue
            if cls in (FrameClass.CON_QS, FrameClass.CON_2QS) and n0 > 1:
                pos_conn.append((False, full_trace))

            allowed = [
                m
                for m in base
                if not any(m & t1 and m & t2 for t1, t2 in neg_contact)
            ]

            positives: list[_PosConstraint] = []
            feasible = True
            for t1, t2 in pos_contact:
                cand = frozenset(m for m in allowed if m & t1 and m & t2)
                if not cand:
                    feasible = False
                    break
                positives.append(_CoverConstraint(cand))
            if feasible:
                for interior, t in pos_conn:
                    if interior:
                        cand = frozenset(
                            m for m in allowed if not m & ~t and (m & t).bit_count() >= 2
                        )
                    else:
                        cand = frozenset(m for m in allowed if (m & t).bit_count() >= 2)
                    max_merge = max(((m & t).bit_count() - 1 for m in cand), default=0)
                    constraint = _ConnConstraint(t, interior, cand, max(max_merge, 1))
                    if not constraint.satisfied(list(cand)):
                        feasible = False
                        break
                    positives.append(constraint)
            if not feasible:
                continue

            negatives = [
                _ConnConstraint(t, interior, frozenset(), 1)
                for interior, t in neg_conn
            ]

            budget_k = bounds.max_w1 if best is None else best[0] - 1
            if budget_k < 0:
                continue
            family = _minimal_family(allowed, positives, negatives, budget_k, work)
            if family is not None and (best is None or len(family) < best[0]):
                best = (len(family), idx, family)
                if best[0] == 0:
                    break
        if best is not None:
            cts = tuple(allowed_cts[j] for j in best[1])
            return _build_model(var_names, n0, cts, best[2])
    return None


# ---------------------------------------------------------------------------
# Fallback enumeration for arbitrary formulas


def _solve_fallback(
    f: Formula,
    var_names: tuple[str, ...],
    cls: FrameClass,
    bounds: Bounds,
    work: _Budget,
) -> Optional[QsModel]:
    n_ct = 1 << len(var_names)
    # the base masks already give every link two successors for con2
    connected_only = cls is not FrameClass.ALL_QS
    for n0 in range(1, bounds.max_w0 + 1):
        full = (1 << n0) - 1
        base = _base_masks(n0, cls)
        for n1 in range(0, bounds.max_w1 + 1):
            for cts in combinations_with_replacement(range(n_ct), n0):
                masks = _var_masks(cts, var_names)
                for family in combinations(base, n1):
                    work.spend()
                    if connected_only and len(mask_components(full, family)) > 1:
                        continue
                    if holds(f, masks, family, full):
                        return _build_model(var_names, n0, cts, family)
    return None


# ---------------------------------------------------------------------------
# Public entry points


def solve(
    f: Formula,
    cls: FrameClass = FrameClass.ALL_QS,
    bounds: Bounds = Bounds(5, 10),
    work_limit: int = DEFAULT_WORK_LIMIT,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SolveResult:
    """Search for a quasi-saw model of ``f`` in the given frame class,
    up to the given bounds.  UnsatUpTo never claims unsatisfiability
    beyond the searched bounds."""
    var_names = variables(f)
    work = _Budget(work_limit)
    literals = as_literal_conjunction(f)
    if literals is not None:
        model = _solve_conjunction(literals, var_names, cls, bounds, work)
    else:
        model = _solve_fallback(f, var_names, cls, bounds, work)
    if model is None:
        return UnsatUpTo(bounds, work.used)
    if cls not in classify_frame(model.frame):
        raise RuntimeError("internal error: model leaves the requested frame class")
    result = Sat(model, cls)
    if not verify(result, f, oracle_cap=oracle_cap):
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


def verify(
    result: SolveResult, f: Formula, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> bool:
    """Re-evaluate a Sat certificate with the trace semantics and, when
    the frame is small enough, the brute-force oracle."""
    if not isinstance(result, Sat):
        raise ValueError("verify expects a Sat result")
    model = result.model
    ok = check(model, f)
    if len(model.frame.w0) + len(model.frame.w1) <= oracle_cap:
        ok = ok and oracle_check(model, f, cap=oracle_cap)
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
