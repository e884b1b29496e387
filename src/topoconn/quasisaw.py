"""Finite two-depth Aleksandrov frames and their regular closed algebra.

A quasi-saw is a quasi-order on W0 (depth 0) and W1 (depth 1) where the
relation goes from each depth-1 point to a nonempty set of depth-0
successors.  Read as an Aleksandrov topology (opens are up-closed sets),
a regular closed set is determined by its depth-0 trace: a depth-1 point
belongs to it exactly when one of its successors does.  All Boolean
operations therefore reduce to set operations on traces.

Each frame is compiled into bitmasks over W0 when it is built: depth-0
point j is bit j, every depth-1 point becomes the mask of its successors
(a *link*), and a trace is the mask of its points.  A set is connected
exactly when its trace is connected under the links that meet it, each
of which joins its members inside the trace (a depth-1 point of the set
touches the trace and so never forms a component of its own); the
interior is connected exactly when the trace is connected under the
links lying wholly inside it.  One routine, :func:`mask_components`,
answers every such question, for ``check``, ``classify_frame``,
``components`` and the solver alike.  One evaluator, :func:`term_mask`,
gives every term as a trace mask, for ``check`` and for the solver's
cell-type masks, and :func:`holds` evaluates formulas on masks;
``check`` is ``holds`` on a model's masks.

Two evaluators are provided: :func:`check` uses the trace-level
characterizations of the predicates, while :func:`oracle_check`
recomputes everything from the literal topology (closure and interior as
down- and up-closures, connectedness by exhaustive two-partition search)
and serves as an independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .syntax import (
    AtomF,
    And,
    Complement,
    Conn,
    Contact,
    Eq,
    Formula,
    IntConn,
    Not,
    One,
    Or,
    Product,
    Sum,
    Term,
    Variable,
    Zero,
)

DEFAULT_ORACLE_CAP = 14


class FrameError(ValueError):
    pass


class FrameMismatchError(ValueError):
    pass


class UnboundVariableError(KeyError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


class OracleCapExceeded(ValueError):
    pass


class FrameClass(enum.Enum):
    """Frame classes the solver can target.

    CON_2QS (every depth-1 point has exactly two successors, frame
    connected) is contained in CON_QS (frame connected), which is
    contained in ALL_QS.
    """

    ALL_QS = "all"
    CON_QS = "con"
    CON_2QS = "con2"


@dataclass(frozen=True)
class QuasiSaw:
    """Ordered depth-0 ids plus (id, successor set) pairs for depth 1.

    The frame is compiled on construction: ``bits`` maps each depth-0 id
    to its bit (in the order of ``w0``), ``links`` holds each depth-1
    point's successor set as a mask over w0, and ``full`` is the mask of
    all of w0."""

    w0: tuple[str, ...]
    w1: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self) -> None:
        ids = list(self.w0) + [z for z, _ in self.w1]
        if len(set(ids)) != len(ids):
            raise FrameError("duplicate point ids")
        bits = {x: 1 << j for j, x in enumerate(self.w0)}
        links = []
        for z, succ in self.w1:
            if not succ:
                raise FrameError(f"depth-1 point {z} has no successors")
            unknown = [x for x in succ if x not in bits]
            if unknown:
                raise FrameError(
                    f"depth-1 point {z} has unknown successors: {sorted(unknown)}"
                )
            links.append(sum(bits[x] for x in succ))
        # plain attributes, not cached properties: every evaluation reads
        # them, and a cached property takes a lock on its first read
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "links", tuple(links))
        object.__setattr__(self, "full", (1 << len(self.w0)) - 1)

    @cached_property
    def successors(self) -> dict[str, frozenset[str]]:
        return {z: succ for z, succ in self.w1}

    @cached_property
    def points(self) -> frozenset[str]:
        return frozenset(self.w0) | frozenset(self.successors)

    def mask(self, ids: Iterable[str]) -> int:
        bits = self.bits
        return sum(bits[x] for x in ids)


def make_frame(w0: Iterable[str], w1: Iterable[tuple[str, Iterable[str]]]) -> QuasiSaw:
    return QuasiSaw(tuple(w0), tuple((z, frozenset(s)) for z, s in w1))


@dataclass(frozen=True)
class RcSet:
    """A regular closed set, stored as its depth-0 trace."""

    frame: QuasiSaw
    trace: frozenset[str]

    def __post_init__(self) -> None:
        unknown = self.trace - set(self.frame.w0)
        if unknown:
            raise FrameError(f"unknown point ids in trace: {sorted(unknown)}")


def rc_expand(frame: QuasiSaw, trace: Iterable[str]) -> RcSet:
    return RcSet(frame, frozenset(trace))


def full_points(s: RcSet) -> frozenset[str]:
    """Every point of the set: the trace plus each depth-1 point with a
    successor in the trace."""
    extra = {z for z, succ in s.frame.w1 if succ & s.trace}
    return s.trace | extra


def _require_same_frame(a: RcSet, b: RcSet) -> None:
    if a.frame != b.frame:
        raise FrameMismatchError("operands live on different frames")


def rc_sum(a: RcSet, b: RcSet) -> RcSet:
    _require_same_frame(a, b)
    return RcSet(a.frame, a.trace | b.trace)


def rc_product(a: RcSet, b: RcSet) -> RcSet:
    _require_same_frame(a, b)
    return RcSet(a.frame, a.trace & b.trace)


def rc_complement(a: RcSet) -> RcSet:
    return RcSet(a.frame, frozenset(a.frame.w0) - a.trace)


def mask_components(
    points: int, links: Iterable[int], interior: bool = False
) -> list[int]:
    """The connected components of the depth-0 points in ``points``,
    ascending by lowest bit, where each link joins its members inside
    ``points``; with ``interior`` a link counts only if it lies wholly
    inside ``points``."""
    if interior:
        joins = [l for l in links if not l & ~points]
    else:
        joins = [l & points for l in links]
    joins = [l for l in joins if l & (l - 1)]
    out = []
    while points:
        comp = points & -points
        grew = True
        while grew:
            grew = False
            rest = []
            for l in joins:
                if not l & comp:
                    rest.append(l)
                elif l & ~comp:
                    comp |= l
                    grew = True
            joins = rest
        out.append(comp)
        points &= ~comp
    return out


def is_connected(s: RcSet) -> bool:
    """Connectedness of the set; the empty set counts as connected."""
    frame = s.frame
    return len(mask_components(frame.mask(s.trace), frame.links)) <= 1


def is_interior_connected(s: RcSet) -> bool:
    frame = s.frame
    return len(mask_components(frame.mask(s.trace), frame.links, True)) <= 1


def _touch(a: int, b: int, links: Iterable[int]) -> bool:
    """Contact of the sets with traces ``a`` and ``b``."""
    return bool(a & b) or any(l & a and l & b for l in links)


def contact(a: RcSet, b: RcSet) -> bool:
    _require_same_frame(a, b)
    frame = a.frame
    return _touch(frame.mask(a.trace), frame.mask(b.trace), frame.links)


def components(s: RcSet) -> list[frozenset[str]]:
    """Connected components of the set's full point set, as point sets,
    ordered by their smallest member."""
    frame = s.frame
    out = []
    for comp in mask_components(frame.mask(s.trace), frame.links):
        ids = {x for x in frame.w0 if frame.bits[x] & comp}
        ids.update(z for (z, _), l in zip(frame.w1, frame.links) if l & comp)
        out.append(frozenset(ids))
    out.sort(key=min)
    return out


def classify_frame(frame: QuasiSaw) -> frozenset[FrameClass]:
    out = {FrameClass.ALL_QS}
    # every depth-1 point has a successor, so the frame is connected
    # exactly when w0 is connected under all links
    if len(mask_components(frame.full, frame.links)) <= 1:
        out.add(FrameClass.CON_QS)
        if all(len(succ) == 2 for _, succ in frame.w1):
            out.add(FrameClass.CON_2QS)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Models and evaluation


@dataclass(frozen=True)
class QsModel:
    frame: QuasiSaw
    valuation: tuple[tuple[str, frozenset[str]], ...]

    @staticmethod
    def make(frame: QuasiSaw, valuation: Mapping[str, Iterable[str]]) -> "QsModel":
        items = tuple(
            (name, frozenset(trace)) for name, trace in sorted(valuation.items())
        )
        for name, trace in items:
            unknown = trace - set(frame.w0)
            if unknown:
                raise FrameError(
                    f"valuation of {name} uses unknown ids: {sorted(unknown)}"
                )
        return QsModel(frame, items)

    @cached_property
    def traces(self) -> dict[str, frozenset[str]]:
        return dict(self.valuation)

    @cached_property
    def masks(self) -> dict[str, int]:
        return {name: self.frame.mask(trace) for name, trace in self.valuation}

    def region(self, name: str) -> RcSet:
        if name not in self.traces:
            raise UnboundVariableError(name)
        return RcSet(self.frame, self.traces[name])


def term_mask(t: Term, masks: Mapping[str, int], full: int) -> int:
    """The trace of ``t`` as a mask, given each variable's trace mask
    and the mask ``full`` of all depth-0 points."""
    if isinstance(t, Variable):
        if t.name not in masks:
            raise UnboundVariableError(t.name)
        return masks[t.name]
    if isinstance(t, Zero):
        return 0
    if isinstance(t, One):
        return full
    if isinstance(t, Sum):
        return term_mask(t.left, masks, full) | term_mask(t.right, masks, full)
    if isinstance(t, Product):
        return term_mask(t.left, masks, full) & term_mask(t.right, masks, full)
    if isinstance(t, Complement):
        return full & ~term_mask(t.arg, masks, full)
    raise TypeError(f"not a term: {t!r}")


def holds(
    f: Formula, masks: Mapping[str, int], links: tuple[int, ...], full: int
) -> bool:
    """Evaluate ``f`` on a frame given by its ``links`` and ``full`` mask,
    with variable traces ``masks``."""
    if isinstance(f, AtomF):
        a = f.atom
        if isinstance(a, Eq):
            return term_mask(a.left, masks, full) == term_mask(a.right, masks, full)
        if isinstance(a, Contact):
            return _touch(
                term_mask(a.left, masks, full), term_mask(a.right, masks, full), links
            )
        if isinstance(a, (Conn, IntConn)):
            trace = term_mask(a.arg, masks, full)
            return len(mask_components(trace, links, isinstance(a, IntConn))) <= 1
        raise TypeError(f"not an atom: {a!r}")
    if isinstance(f, And):
        return holds(f.left, masks, links, full) and holds(f.right, masks, links, full)
    if isinstance(f, Or):
        return holds(f.left, masks, links, full) or holds(f.right, masks, links, full)
    if isinstance(f, Not):
        return not holds(f.arg, masks, links, full)
    raise TypeError(f"not a formula: {f!r}")


def check(model: QsModel, f: Formula) -> bool:
    """Evaluate ``f`` in ``model`` via the trace-level semantics."""
    frame = model.frame
    return holds(f, model.masks, frame.links, frame.full)


# ---------------------------------------------------------------------------
# Brute-force topological oracle

# The oracle works with full point sets and the literal Aleksandrov
# topology: a set is open iff up-closed, closed iff down-closed, where a
# depth-1 point sits below each of its successors.


def _up(w: str, frame: QuasiSaw) -> frozenset[str]:
    succ = frame.successors.get(w)
    return frozenset({w}) if succ is None else frozenset({w}) | succ


def oracle_closure(points: frozenset[str], frame: QuasiSaw) -> frozenset[str]:
    below = {z for z, succ in frame.w1 if succ & points}
    return points | below


def oracle_interior(points: frozenset[str], frame: QuasiSaw) -> frozenset[str]:
    return frozenset(w for w in points if _up(w, frame) <= points)


def _oracle_connected(points: frozenset[str], frame: QuasiSaw) -> bool:
    """Exhaustive search for a decomposition into two disjoint nonempty
    relatively closed parts; connected iff none exists."""
    items = sorted(points)
    if len(items) <= 1:
        return True
    pinned, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            part_a = frozenset({pinned, *extra})
            part_b = points - part_a
            if not part_b:
                continue
            closed_a = oracle_closure(part_a, frame) & points == part_a
            closed_b = oracle_closure(part_b, frame) & points == part_b
            if closed_a and closed_b:
                return False
    return True


def _oracle_term(t: Term, model: QsModel, universe: frozenset[str]) -> frozenset[str]:
    frame = model.frame
    if isinstance(t, Variable):
        if t.name not in model.traces:
            raise UnboundVariableError(t.name)
        return oracle_closure(model.traces[t.name], frame)
    if isinstance(t, Zero):
        return frozenset()
    if isinstance(t, One):
        return universe
    if isinstance(t, Sum):
        x = _oracle_term(t.left, model, universe)
        y = _oracle_term(t.right, model, universe)
        return oracle_closure(x | y, frame)
    if isinstance(t, Product):
        x = _oracle_term(t.left, model, universe)
        y = _oracle_term(t.right, model, universe)
        return oracle_closure(oracle_interior(x & y, frame), frame)
    if isinstance(t, Complement):
        x = _oracle_term(t.arg, model, universe)
        return oracle_closure(universe - x, frame)
    raise TypeError(f"not a term: {t!r}")


def oracle_check(model: QsModel, f: Formula, cap: int = DEFAULT_ORACLE_CAP) -> bool:
    """Evaluate ``f`` by literal closure/interior computations and
    exhaustive connectivity search.  Refuses frames with more than
    ``cap`` points, since the connectivity search is exponential."""
    frame = model.frame
    size = len(frame.w0) + len(frame.w1)
    if size > cap:
        raise OracleCapExceeded(f"frame has {size} points, oracle cap is {cap}")
    universe = frozenset(frame.points)

    def go(g: Formula) -> bool:
        if isinstance(g, AtomF):
            a = g.atom
            if isinstance(a, Eq):
                return _oracle_term(a.left, model, universe) == _oracle_term(
                    a.right, model, universe
                )
            if isinstance(a, Contact):
                return bool(
                    _oracle_term(a.left, model, universe)
                    & _oracle_term(a.right, model, universe)
                )
            if isinstance(a, Conn):
                return _oracle_connected(
                    _oracle_term(a.arg, model, universe), frame
                )
            if isinstance(a, IntConn):
                pts = _oracle_term(a.arg, model, universe)
                return _oracle_connected(oracle_interior(pts, frame), frame)
            raise TypeError(f"not an atom: {a!r}")
        if isinstance(g, And):
            return go(g.left) and go(g.right)
        if isinstance(g, Or):
            return go(g.left) or go(g.right)
        if isinstance(g, Not):
            return not go(g.arg)
        raise TypeError(f"not a formula: {g!r}")

    return go(f)


# ---------------------------------------------------------------------------
# Model file format


def model_to_json(model: QsModel) -> dict:
    return {
        "w0": list(model.frame.w0),
        "w1": [
            {"id": z, "succ": sorted(succ)} for z, succ in model.frame.w1
        ],
        "valuation": {
            name: sorted(trace) for name, trace in model.valuation
        },
    }


def _json_ids(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FrameError(f"malformed model file: {what} must be a list of ids")
    return value


def model_from_json(data: dict) -> QsModel:
    if not isinstance(data, dict):
        raise FrameError("model file must be a JSON object")
    for key in ("w0", "w1"):
        if key not in data:
            raise FrameError(f"malformed model file: missing {key!r}")
    w0 = _json_ids(data["w0"], "w0")
    entries = data["w1"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("id"), str) and "succ" in e
        for e in entries
    ):
        raise FrameError(
            "malformed model file: w1 must be a list of objects with 'id' and 'succ'"
        )
    w1 = [(e["id"], _json_ids(e["succ"], f"succ of {e['id']}")) for e in entries]
    valuation = data.get("valuation", {})
    if not isinstance(valuation, dict):
        raise FrameError("malformed model file: valuation must be an object")
    valuation = {
        name: _json_ids(trace, f"trace of {name}") for name, trace in valuation.items()
    }
    return QsModel.make(make_frame(w0, w1), valuation)
