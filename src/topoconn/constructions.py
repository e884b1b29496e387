"""Programmatic builders for the formula families used throughout the
package: partition and colouring templates, connectedness gadgets, the
infinite-components family, the word-problem encoding, the running
example formulas, and the annulus separator scene builder.

Builders assemble abstract syntax verbatim from their defining displays,
in display order, with no simplification, so conjunct counts and shapes
can be audited structurally.  Variable naming for generated formulas is
fixed and documented on each builder.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Mapping, Sequence, Union

from .plane import (
    PlaneScene,
    Point,
    Polygon,
    Rational,
    Ring,
    SceneError,
    _rational,
    _segments_share_point,
    _validate_ring,
    point_in_polygon,
    point_in_region,
    ring_from,
)
from .syntax import (
    AtomF,
    Complement,
    Conn,
    Contact,
    Eq,
    Formula,
    IDENT_RE,
    IntConn,
    Not,
    ONE,
    Product,
    Sum,
    Term,
    Variable,
    ZERO,
    conj,
    fold,
    leq,
    nonempty,
    rebuild,
    term_sum,
)

TermLike = Union[Term, str]


def _term(t: TermLike) -> Term:
    return t if isinstance(t, Term) else Variable(t)


def _terms(ts: Sequence[TermLike]) -> list[Term]:
    return [_term(t) for t in ts]


def _require_distinct(names: Sequence[TermLike], what: str) -> None:
    keys = [_term(n) for n in names]
    if len(set(keys)) != len(keys):
        raise ValueError(f"{what} requires distinct arguments")


def _disjoint(ts: Sequence[Term]) -> list[Formula]:
    """The pairwise disjointness equations ``ti . tj = 0`` for i < j, in
    lexicographic order of (i, j)."""
    return [
        AtomF(Eq(Product(ts[i], ts[j]), ZERO))
        for i in range(len(ts))
        for j in range(i + 1, len(ts))
    ]


# ---------------------------------------------------------------------------
# Partition and colouring templates


def partition(members: Sequence[TermLike]) -> Formula:
    """The members sum to the whole space and pairwise overlap nowhere."""
    ts = _terms(members)
    if not ts:
        raise ValueError("partition needs at least one member")
    _require_distinct(members, "partition")
    return conj([AtomF(Eq(term_sum(ts), ONE))] + _disjoint(ts))


def sc_part(members: Sequence[TermLike]) -> Formula:
    """Partition into nonempty members whose contact pattern is a
    subgraph of a cycle: members at cyclic distance beyond one must not
    touch."""
    ts = _terms(members)
    if not ts:
        raise ValueError("sc_part needs at least one member")
    _require_distinct(members, "sc_part")
    k = len(ts)
    parts: list[Formula] = [partition(members)]
    for t in ts:
        parts.append(nonempty(t))
    for i in range(k):
        for j in range(i + 1, k):
            if 1 < j - i < k - 1:
                parts.append(Not(AtomF(Contact(ts[i], ts[j]))))
    return conj(parts)


def colour_comp(region: TermLike, colours: Sequence[TermLike]) -> Formula:
    """Given a partition of colours, forces every component of the
    region to lie inside a single colour."""
    r = _term(region)
    cs = _terms(colours)
    if len(cs) < 2:
        raise ValueError("colour_comp needs at least two colours")
    parts = [
        Not(AtomF(Contact(Product(r, cs[i]), Product(r, cs[j]))))
        for i in range(len(cs))
        for j in range(i + 1, len(cs))
    ]
    return conj(parts)


# ---------------------------------------------------------------------------
# Connectedness gadgets


def not_c(t1: TermLike, t2: TermLike) -> Formula:
    """Two connected pieces whose sum is disconnected are not in
    contact; this is the contact-free stand-in for a negative contact
    literal."""
    a, b = _term(t1), _term(t2)
    return conj(
        [
            AtomF(Conn(a)),
            AtomF(Conn(b)),
            Not(AtomF(Conn(Sum(a, b)))),
        ]
    )


def k5m(v: Sequence[TermLike]) -> Formula:
    """Five nonempty, interior-connected, pairwise disjoint regions with
    interior-connected pairwise sums except that the first pair is left
    unconstrained; any satisfying planar tuple keeps the first two
    regions out of contact."""
    if len(v) != 5:
        raise ValueError("k5m takes exactly five regions")
    _require_distinct(v, "k5m")
    r = _terms(v)
    parts: list[Formula] = []
    for t in r:
        parts.append(AtomF(IntConn(t)))
        parts.append(nonempty(t))
    parts += _disjoint(r)
    for j in (2, 3, 4):
        parts.append(AtomF(IntConn(Sum(r[0], r[j]))))
    for i in range(1, 5):
        for j in range(i + 1, 5):
            parts.append(AtomF(IntConn(Sum(r[i], r[j]))))
    return conj(parts)


def stack_i(members: Sequence[TermLike]) -> Formula:
    """Interior-connected suffix sums, pairwise disjointness, and no
    contact at distance above one; satisfying planar tuples admit an arc
    threading the members in order."""
    ts = _terms(members)
    n = len(ts)
    if n < 2:
        raise ValueError("stack_i needs at least two members")
    _require_distinct(members, "stack_i")
    parts: list[Formula] = []
    for i in range(n):
        parts.append(AtomF(IntConn(term_sum(ts[i:]))))
    parts += _disjoint(ts)
    for i in range(n):
        for j in range(i + 2, n):
            parts.append(Not(AtomF(Contact(ts[i], ts[j]))))
    return conj(parts)


def frame_i(members: Sequence[TermLike]) -> Formula:
    """Nonempty members with interior-connected cyclically consecutive
    sums, pairwise disjoint; satisfying planar tuples admit a closed
    curve visiting the members in cyclic order."""
    ts = _terms(members)
    n = len(ts)
    if n < 3:
        raise ValueError("frame_i needs at least three members")
    _require_distinct(members, "frame_i")
    parts: list[Formula] = []
    for i in range(n):
        parts.append(nonempty(ts[i]))
        parts.append(AtomF(IntConn(Sum(ts[i], ts[(i + 1) % n]))))
    return conj(parts + _disjoint(ts))


# ---------------------------------------------------------------------------
# Three-layer regions and their stack/frame templates


@dataclass(frozen=True)
class ThreeRegion:
    """A kernel wrapped in two protective shells; the derived variable
    names are ``base``, ``base_mid`` and ``base_core``."""

    base: str

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.base):
            raise ValueError(f"bad three-region base name: {self.base!r}")

    @property
    def outer(self) -> Variable:
        return Variable(self.base)

    @property
    def mid(self) -> Variable:
        return Variable(self.base + "_mid")

    @property
    def core(self) -> Variable:
        return Variable(self.base + "_core")


def right_inside(a: TermLike, b: TermLike) -> Formula:
    """a sits right inside b: a avoids contact with b's complement."""
    return Not(AtomF(Contact(_term(a), Complement(_term(b)))))


def _three_region_conjuncts(tr: ThreeRegion) -> list[Formula]:
    return [
        nonempty(tr.core),
        right_inside(tr.core, tr.mid),
        right_inside(tr.mid, tr.outer),
    ]


def _check_three_regions(trs: Sequence[ThreeRegion], what: str) -> None:
    names = [v.name for tr in trs for v in (tr.outer, tr.mid, tr.core)]
    if len(set(names)) != len(names):
        raise ValueError(f"{what}: derived variable names clash")


def _stack3_display(trs: Sequence[ThreeRegion], first_chain_head: Term) -> list[Formula]:
    n = len(trs)
    parts: list[Formula] = []
    for i in range(n - 1):
        head = first_chain_head if i == 0 else trs[i].mid
        tail = [tr.core for tr in trs[i + 1 :]]
        parts.append(AtomF(Conn(term_sum([head] + tail))))
    parts.append(AtomF(Conn(trs[-1].mid)))
    for i in range(n):
        for j in range(i + 2, n):
            parts.append(Not(AtomF(Contact(trs[i].outer, trs[j].outer))))
    return parts


def stack3(trs: Sequence[ThreeRegion]) -> Formula:
    """Chain template over three-layer regions: each inner shell joins
    with all later kernels into a connected whole, outer shells at
    distance above one stay out of contact."""
    if len(trs) < 2:
        raise ValueError("stack3 needs at least two three-regions")
    _check_three_regions(trs, "stack3")
    parts = _stack3_display(trs, trs[0].mid)
    for tr in trs:
        parts.extend(_three_region_conjuncts(tr))
    return conj(parts)


def stack3_z(switch: TermLike, trs: Sequence[ThreeRegion]) -> Formula:
    """Chain template with a switch: components of the first inner shell
    inside the switch region are exempt from the chain requirement."""
    if len(trs) < 2:
        raise ValueError("stack3_z needs at least two three-regions")
    _check_three_regions(trs, "stack3_z")
    z = _term(switch)
    parts: list[Formula] = [colour_comp(trs[0].mid, [z, Complement(z)])]
    parts.extend(
        _stack3_display(trs, Product(Complement(z), trs[0].mid))
    )
    for tr in trs:
        parts.extend(_three_region_conjuncts(tr))
    return conj(parts)


def frame3(trs: Sequence[ThreeRegion]) -> Formula:
    """Closed-curve template over three-layer regions: a chain over all
    but the last, which reconnects to both ends and avoids the middle."""
    if len(trs) < 3:
        raise ValueError("frame3 needs at least three three-regions")
    _check_three_regions(trs, "frame3")
    chain, last = trs[:-1], trs[-1]
    middle = [tr.outer for tr in trs[1:-2]]
    parts = _stack3_display(chain, chain[0].mid)
    parts.append(Not(AtomF(Contact(last.outer, term_sum(middle)))))
    parts.append(AtomF(Conn(last.mid)))
    parts.append(nonempty(Product(trs[0].mid, last.mid)))
    parts.append(nonempty(Product(trs[-2].core, last.mid)))
    for tr in trs:
        parts.extend(_three_region_conjuncts(tr))
    return conj(parts)


# ---------------------------------------------------------------------------
# The infinite-components family
#
# Variables: r0..r3 with marked subregions r0'..r3' and a crossing
# region t; index arithmetic is modulo 4.  The contact-free variant adds
# padding witnesses s, s0..s3, t0..t3.


def _r(i: int) -> Variable:
    return Variable(f"r{i % 4}")


def _rp(i: int) -> Variable:
    return Variable(f"r{i % 4}'")


def phi_inf() -> Formula:
    t = Variable("t")
    parts: list[Formula] = [sc_part([f"r{i}" for i in range(4)])]
    for i in range(4):
        parts.append(nonempty(_rp(i)))
        parts.append(leq(_rp(i), _r(i)))
    parts.append(nonempty(t))
    for i in range(4):
        parts.append(AtomF(Conn(term_sum([_rp(i), _r(i + 1), t]))))
    for i in range(4):
        parts.append(Not(AtomF(Contact(_rp(i), t))))
    for i in range(4):
        parts.append(
            Not(AtomF(Contact(_rp(i), Product(_r(i + 1), Complement(_rp(i + 1))))))
        )
    return conj(parts)


def phi_inf_i() -> Formula:
    """The interior-connectedness variant: every (positive) plain
    connectedness atom strengthened to interior connectedness."""
    return fold(
        phi_inf(),
        lambda g: AtomF(IntConn(g.atom.arg)) if isinstance(g.atom, Conn) else g,
        rebuild,
    )


def phi_inf_c() -> Formula:
    """Contact-free variant: every negative contact literal replaced by
    a connectedness gadget with shared padding witnesses.

    The two long-range disjointness literals of the sub-cyclic partition
    are each split four ways (marked vs unmarked parts) before the
    replacement; the marked splits share the witnesses s and s0..s3, the
    unmarked ones t and t0..t3.
    """
    t = Variable("t")
    s = Variable("s")

    def s_(i: int) -> Variable:
        return Variable(f"s{i % 4}")

    def t_(i: int) -> Variable:
        return Variable(f"t{i % 4}")

    def unmarked(i: int) -> Term:
        return Product(_r(i), Complement(_rp(i)))

    parts: list[Formula] = [partition([f"r{i}" for i in range(4)])]
    for i in range(4):
        parts.append(nonempty(_r(i)))
    for i in (0, 1):
        j = i + 2
        parts.append(not_c(Sum(_rp(i), s_(i)), Sum(_rp(j), s_(j))))
        parts.append(not_c(Sum(unmarked(i), t_(i)), Sum(unmarked(j), t_(j))))
        parts.append(not_c(Sum(unmarked(i), t), Sum(_rp(j), s)))
        parts.append(not_c(Sum(_rp(i), s), Sum(unmarked(j), t)))
    for i in range(4):
        parts.append(nonempty(_rp(i)))
        parts.append(leq(_rp(i), _r(i)))
    parts.append(nonempty(t))
    for i in range(4):
        parts.append(AtomF(Conn(term_sum([_rp(i), _r(i + 1), t]))))
    parts.append(not_c(term_sum([_rp(i) for i in range(4)]), t))
    for i in range(4):
        parts.append(not_c(Sum(_rp(i), s), Sum(unmarked(i + 1), t)))
    return conj(parts)


def phi_inf_star() -> Formula:
    """Interior-connectedness family forcing infinitely many components
    in the plane: a closed-curve template, four chain templates whose
    component patterns interleave forever, and full pairwise
    disjointness.

    Variables: s0..s3, a, b and the chain members a{i}_{j}, b{i}_{j} for
    i in {0,1}, j in {1,2,3}.
    """
    s = [Variable(f"s{i}") for i in range(4)]
    a, b = Variable("a"), Variable("b")
    av = {(i, j): Variable(f"a{i}_{j}") for i in (0, 1) for j in (1, 2, 3)}
    bv = {(i, j): Variable(f"b{i}_{j}") for i in (0, 1) for j in (1, 2, 3)}
    parts: list[Formula] = [
        frame_i([s[0], s[1], b, s[2], a, s[3]]),
        stack_i([s[0], bv[1, 1], bv[1, 2], bv[1, 3], b]),
    ]
    for i in (0, 1):
        parts.append(stack_i([bv[i, 2], av[i, 1], av[i, 2], av[i, 3], a]))
    for i in (0, 1):
        parts.append(stack_i([av[(i - 1) % 2, 2], bv[i, 1], bv[i, 2], bv[i, 3], b]))
    everyone: list[Variable] = [s[0], s[1], s[2], s[3], a, b]
    everyone += [av[i, j] for i in (0, 1) for j in (1, 2, 3)]
    everyone += [bv[i, j] for i in (0, 1) for j in (1, 2, 3)]
    return conj(parts + _disjoint(everyone))


# ---------------------------------------------------------------------------
# Running example formulas


def _mutual(names: list[str]) -> Formula:
    rs = [Variable(n) for n in names]
    parts: list[Formula] = []
    for r in rs:
        parts.append(AtomF(IntConn(r)))
        parts.append(nonempty(r))
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            parts.append(AtomF(IntConn(Sum(rs[i], rs[j]))))
            parts.append(AtomF(Eq(Product(rs[i], rs[j]), ZERO)))
    return conj(parts)


def eq1vs2() -> Formula:
    """Three nonempty interior-connected regions, pairwise disjoint with
    interior-connected sums: satisfiable in the plane but not on the
    line."""
    return _mutual(["r1", "r2", "r3"])


def eq2vs3() -> Formula:
    """Five regions in the mutual-touching pattern: satisfiable in three
    dimensions but not in the plane (it would draw a complete graph on
    five vertices there)."""
    return _mutual(["r1", "r2", "r3", "r4", "r5"])


def wiggly() -> Formula:
    """Three interior-connected regions with an interior-connected total
    but interior-disconnected pairs: satisfiable by regular closed sets
    in the plane, never by polygons."""
    r1, r2, r3 = Variable("r1"), Variable("r2"), Variable("r3")
    return conj(
        [
            AtomF(IntConn(r1)),
            AtomF(IntConn(r2)),
            AtomF(IntConn(r3)),
            AtomF(IntConn(term_sum([r1, r2, r3]))),
            Not(AtomF(IntConn(Sum(r1, r2)))),
            Not(AtomF(IntConn(Sum(r1, r3)))),
        ]
    )


# ---------------------------------------------------------------------------
# Word-problem encoding


class PcpError(ValueError):
    """A word-problem instance that is malformed or inconsistent."""


@dataclass(frozen=True)
class PcpInstance:
    """A pair of morphisms over disjoint tile and letter alphabets; the
    instance is positive when some nonempty tile word maps to the same
    letter word under both morphisms."""

    tiles: tuple[str, ...]
    letters: tuple[str, ...]
    word1: tuple[tuple[str, tuple[str, ...]], ...]
    word2: tuple[tuple[str, tuple[str, ...]], ...]

    @staticmethod
    def make(
        tiles: Sequence[str],
        letters: Sequence[str],
        w1: Mapping[str, Union[str, Sequence[str]]],
        w2: Mapping[str, Union[str, Sequence[str]]],
    ) -> "PcpInstance":
        tiles = tuple(tiles)
        letters = tuple(letters)
        if not tiles or not letters:
            raise PcpError("tile and letter alphabets must be nonempty")
        for name in (*tiles, *letters):
            if not IDENT_RE.match(name):
                raise PcpError(f"bad alphabet symbol: {name!r}")
        if set(tiles) & set(letters):
            raise PcpError("tile and letter alphabets must be disjoint")
        if len(set(tiles)) != len(tiles) or len(set(letters)) != len(letters):
            raise PcpError("alphabets must not repeat symbols")

        def norm(w: Mapping[str, Union[str, Sequence[str]]], which: str):
            out = []
            for tile in tiles:
                if tile not in w:
                    raise PcpError(f"{which} misses tile {tile!r}")
                word = w[tile]
                if not isinstance(word, (str, list, tuple)):
                    raise PcpError(f"{which}({tile}) must be a word")
                symbols = tuple(word)
                if not symbols:
                    raise PcpError(f"{which}({tile}) must be a nonempty word")
                for sym in symbols:
                    if sym not in letters:
                        raise PcpError(
                            f"{which}({tile}) uses unknown letter {sym!r}"
                        )
                out.append((tile, symbols))
            return tuple(out)

        return PcpInstance(tiles, letters, norm(w1, "w1"), norm(w2, "w2"))

    def word(self, k: int, tile: str) -> tuple[str, ...]:
        table = self.word1 if k == 1 else self.word2
        for name, w in table:
            if name == tile:
                return w
        raise KeyError(tile)


def pcp_from_json(data: dict) -> PcpInstance:
    if not isinstance(data, dict):
        raise PcpError("instance file must be a JSON object")
    for key, kind, what in (
        ("tiles", list, "an array"),
        ("letters", list, "an array"),
        ("w1", dict, "an object"),
        ("w2", dict, "an object"),
    ):
        if not isinstance(data.get(key), kind):
            raise PcpError(f"malformed instance file: {key!r} must be {what}")
    for key in ("tiles", "letters"):
        if not all(isinstance(x, str) for x in data[key]):
            raise PcpError(f"malformed instance file: {key!r} must hold strings")
    return PcpInstance.make(data["tiles"], data["letters"], data["w1"], data["w2"])


def phi_pcp(inst: PcpInstance) -> Formula:
    """Constraint system that is satisfiable over polygons exactly when
    the instance has a matching tile word.

    Variables: two sub-cyclic partitions r0..r3 and s0..s3, morphism
    tracks e1 and e2, a terminal region wstar, marked subregions
    r0'..r3', a seed w1, a crossing region t, one variable per tile and
    letter (verbatim), and position colours p{k}_{tile}_{l}.
    """
    if len(inst.tiles) < 7:
        warnings.warn(
            "instances with fewer than 7 tiles are fine for model search "
            "but sit below the hardness threshold of the encoding",
            stacklevel=2,
        )
    reserved = {f"r{i}" for i in range(4)} | {f"s{i}" for i in range(4)}
    reserved |= {"e1", "e2", "wstar", "w1", "t"}
    clashes = (set(inst.tiles) | set(inst.letters)) & reserved
    if clashes:
        raise ValueError(f"alphabet symbols clash with encoding variables: {sorted(clashes)}")

    e = {k: Variable(f"e{k}") for k in (1, 2)}
    wstar = Variable("wstar")
    w1v = Variable("w1")
    t = Variable("t")
    r_names = [f"r{i}" for i in range(4)]
    s_names = [f"s{i}" for i in range(4)]

    def s_(i: int) -> Variable:
        return Variable(f"s{i % 4}")

    def pvar(k: int, tile: str, pos: int) -> Variable:
        return Variable(f"p{k}_{tile}_{pos}")

    def pvars(k: int) -> list[Variable]:
        return [
            pvar(k, tile, pos)
            for tile in inst.tiles
            for pos in range(1, len(inst.word(k, tile)) + 1)
        ]

    parts: list[Formula] = []
    parts.append(sc_part(r_names))
    parts.append(sc_part(s_names))
    for k in (1, 2):
        for i in range(4):
            parts.append(colour_comp(Product(_r(i), e[k]), s_names))
    parts.append(AtomF(Conn(wstar)))
    parts.append(nonempty(wstar))
    parts.append(colour_comp(wstar, r_names))
    for i in range(4):
        parts.append(colour_comp(_r(i), [wstar, Complement(wstar)]))
    parts.append(colour_comp(wstar, s_names))
    for i in range(4):
        parts.append(colour_comp(s_(i), [wstar, Complement(wstar)]))
    parts.append(AtomF(Conn(w1v)))
    parts.append(leq(w1v, _r(1)))
    parts.append(leq(w1v, s_(1)))
    parts.append(AtomF(Eq(Product(w1v, wstar), ZERO)))
    for i in range(4):
        parts.append(leq(_rp(i), _r(i)))
    for k in (1, 2):
        parts.append(nonempty(Product(Product(e[k], _rp(1)), w1v)))
    for k in (1, 2):
        parts.append(nonempty(Product(e[k], t)))
    for k in (1, 2):
        for i in range(4):
            inner = term_sum(
                [Product(_rp(i), Complement(wstar)), _r(i + 1), t]
            )
            parts.append(AtomF(Conn(Product(e[k], inner))))
    for i in range(4):
        parts.append(Not(AtomF(Contact(_rp(i), t))))
    for i in range(4):
        parts.append(
            Not(AtomF(Contact(_rp(i), Product(_r(i + 1), Complement(_rp(i + 1))))))
        )
    for k in (1, 2):
        for i in range(4):
            for j in range(4):
                parts.append(
                    Not(
                        AtomF(
                            Contact(
                                Product(Product(e[k], _r(i)), s_(j)),
                                Product(Product(e[k], _r(i + 1)), s_(j - 1)),
                            )
                        )
                    )
                )
    def colouring(region: Term, colours: list) -> None:
        # a single-colour palette contributes no conjuncts
        if len(colours) >= 2:
            parts.append(colour_comp(region, colours))

    parts.append(partition(list(inst.tiles)))
    for j in range(4):
        colouring(s_(j), list(inst.tiles))
    parts.append(partition(list(inst.letters)))
    for i in range(4):
        colouring(_r(i), list(inst.letters))
    for k in (1, 2):
        parts.append(partition(pvars(k)))
        for i in range(4):
            colouring(_r(i), pvars(k))
    for k in (1, 2):
        for tile in inst.tiles:
            word = inst.word(k, tile)
            parts.append(
                leq(
                    Variable(tile),
                    term_sum([pvar(k, tile, pos) for pos in range(1, len(word) + 1)]),
                )
            )
    for k in (1, 2):
        for tile in inst.tiles:
            for pos in range(2, len(inst.word(k, tile)) + 1):
                parts.append(AtomF(Eq(Product(w1v, pvar(k, tile, pos)), ZERO)))
                for i in range(4):
                    parts.append(
                        Not(
                            AtomF(
                                Contact(
                                    s_(i), Product(s_(i + 1), pvar(k, tile, pos))
                                )
                            )
                        )
                    )
    for k in (1, 2):
        succ: set[tuple[str, str]] = set()
        for tile in inst.tiles:
            word = inst.word(k, tile)
            for pos in range(1, len(word)):
                succ.add((pvar(k, tile, pos).name, pvar(k, tile, pos + 1).name))
            for other in inst.tiles:
                succ.add((pvar(k, tile, len(word)).name, pvar(k, other, 1).name))
        names = [p.name for p in pvars(k)]
        for i in range(4):
            for pn in names:
                for qn in names:
                    if (pn, qn) in succ:
                        continue
                    parts.append(
                        Not(
                            AtomF(
                                Contact(
                                    Product(Variable(pn), _r(i)),
                                    Product(Variable(qn), _r(i + 1)),
                                )
                            )
                        )
                    )
    for k in (1, 2):
        for i in range(4):
            for j in range(4):
                for tile in inst.tiles:
                    parts.append(
                        Not(
                            AtomF(
                                Contact(
                                    Product(_r(i), s_(j)),
                                    Product(
                                        Product(_r(i + 1), s_(j)), pvar(k, tile, 1)
                                    ),
                                )
                            )
                        )
                    )
    for k in (1, 2):
        for tile in inst.tiles:
            for pos in range(1, len(inst.word(k, tile))):
                parts.append(Not(AtomF(Contact(pvar(k, tile, pos), wstar))))
    for k in (1, 2):
        for tile in inst.tiles:
            word = inst.word(k, tile)
            for pos in range(1, len(word) + 1):
                parts.append(leq(pvar(k, tile, pos), Variable(word[pos - 1])))
    return conj(parts)


# ---------------------------------------------------------------------------
# Separator scene builder


def _pt_seg_d2(p: Point, a: Point, b: Point) -> Fraction:
    ab = (b[0] - a[0], b[1] - a[1])
    ap = (p[0] - a[0], p[1] - a[1])
    denom = ab[0] * ab[0] + ab[1] * ab[1]
    t = Fraction(ap[0] * ab[0] + ap[1] * ab[1], denom)
    t = max(Fraction(0), min(Fraction(1), t))
    dx = ap[0] - t * ab[0]
    dy = ap[1] - t * ab[1]
    return dx * dx + dy * dy


def _seg_seg_d2(s1: tuple[Point, Point], s2: tuple[Point, Point]) -> Fraction:
    # segments are disjoint here, so the minimum is at an endpoint
    return min(
        _pt_seg_d2(s1[0], *s2),
        _pt_seg_d2(s1[1], *s2),
        _pt_seg_d2(s2[0], *s1),
        _pt_seg_d2(s2[1], *s1),
    )


def _sqrt_lower_bound(d2: Rational) -> Fraction:
    """Exact rational lower bound on sqrt(d2)."""
    scale = 1 << 32
    return Fraction(isqrt(d2.numerator * scale * scale // d2.denominator), scale)


def k5m_separator(
    scene: PlaneScene,
    b1: str,
    b2: str,
    curve: Sequence[Sequence],
) -> PlaneScene:
    """Extend a scene with regions a1..a5 realizing the separation
    gadget for a rectilinear simple closed curve that separates region
    b1 from region b2.

    The curve is thickened into an annulus (width derived exactly from
    the least clearance, so no tuning is needed), split into three arcs
    a3, a4, a5 by radial cuts; a1 covers the separated side containing
    b1 and a2 the side containing b2, clipped to a bounding box so that
    it stays polygonal.  The result satisfies the five-region gadget
    with b1 inside a1 and b2 inside a2.
    """
    pts = [(_rational(c[0]), _rational(c[1])) for c in curve]
    if len(pts) < 4:
        raise SceneError("separator curve needs at least 4 vertices")
    ring = Ring(tuple(pts))
    _validate_ring(ring.vertices, "separator curve")
    for a, b in ring.edges():
        if a[0] != b[0] and a[1] != b[1]:
            raise SceneError("separator curve must be rectilinear")
    if ring.signed_area2() < 0:
        ring = Ring(tuple(reversed(ring.vertices)))
    verts = ring.vertices
    m = len(verts)
    edges = ring.edges()

    b1_polys = scene.polygons(b1)
    b2_polys = scene.polygons(b2)
    if not b1_polys or not b2_polys:
        raise SceneError("separator endpoints must be nonempty regions")

    def region_segments(polys: Sequence[Polygon]) -> list[tuple[Point, Point]]:
        return [e for poly in polys for r in poly.rings() for e in r.edges()]

    def side_of(polys: Sequence[Polygon], name: str) -> bool:
        inside: set[bool] = set()
        for seg in region_segments(polys):
            for e in edges:
                if _segments_share_point(*seg, *e):
                    raise SceneError(f"curve touches or crosses region {name}")
        for poly in polys:
            for r in poly.rings():
                for p in r.vertices:
                    inside.add(point_in_polygon(p, Polygon(ring)))
        for p in verts:
            if point_in_region(p, polys):
                raise SceneError(f"curve runs inside region {name}")
        if len(inside) != 1:
            raise SceneError(f"region {name} straddles the curve")
        return inside.pop()

    b1_inside = side_of(b1_polys, b1)
    b2_inside = side_of(b2_polys, b2)
    if b1_inside == b2_inside:
        raise SceneError("curve does not separate the two regions")

    clearance2 = min(
        _seg_seg_d2(e, seg)
        for e in edges
        for seg in region_segments(b1_polys) + region_segments(b2_polys)
    )
    self_gap2 = min(
        (
            _seg_seg_d2(edges[i], edges[j])
            for i in range(m)
            for j in range(i + 2, m)
            if not (i == 0 and j == m - 1)
        ),
        default=clearance2,
    )
    min_edge2 = min(
        (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 for a, b in edges
    )
    delta = Fraction(_sqrt_lower_bound(min(clearance2, self_gap2, min_edge2)), 4)
    if delta <= 0:
        raise SceneError("no clearance left for the annulus")

    # outward edge normals (interior lies left of CCW edges)
    normals = []
    for a, b in edges:
        dx, dy = b[0] - a[0], b[1] - a[1]
        if dx > 0:
            normals.append((Fraction(0), Fraction(-1)))
        elif dx < 0:
            normals.append((Fraction(0), Fraction(1)))
        elif dy > 0:
            normals.append((Fraction(1), Fraction(0)))
        else:
            normals.append((Fraction(-1), Fraction(0)))

    def offset_vertex(i: int, sign: int) -> Point:
        n_prev = normals[(i - 1) % m]
        n_here = normals[i]
        return (
            verts[i][0] + sign * delta * (n_prev[0] + n_here[0]),
            verts[i][1] + sign * delta * (n_prev[1] + n_here[1]),
        )

    outer_ring = [offset_vertex(i, +1) for i in range(m)]
    inner_ring = [offset_vertex(i, -1) for i in range(m)]

    cut_edges = sorted({0, m // 3, (2 * m) // 3})
    if len(cut_edges) < 3:
        cut_edges = [0, 1, 2]
    cuts = []
    for ei in cut_edges:
        a, b = edges[ei]
        mid = (Fraction(a[0] + b[0], 2), Fraction(a[1] + b[1], 2))
        n = normals[ei]
        cuts.append(
            (
                ei,
                (mid[0] + delta * n[0], mid[1] + delta * n[1]),  # outer
                (mid[0] - delta * n[0], mid[1] - delta * n[1]),  # inner
            )
        )

    def arc_polygon(c1, c2) -> Polygon:
        (e1, out1, in1) = c1
        (e2, out2, in2) = c2
        idx = []
        i = (e1 + 1) % m
        while True:
            idx.append(i)
            if i == e2:
                break
            i = (i + 1) % m
        ring_pts = [out1] + [outer_ring[i] for i in idx] + [out2]
        ring_pts += [in2] + [inner_ring[i] for i in reversed(idx)] + [in1]
        return Polygon(ring_from(ring_pts))

    arcs = [
        arc_polygon(cuts[0], cuts[1]),
        arc_polygon(cuts[1], cuts[2]),
        arc_polygon(cuts[2], cuts[0]),
    ]

    inner_disc = Polygon(ring_from(inner_ring))
    xs = [p[0] for p in verts] + [
        v[0] for polys in (b1_polys, b2_polys) for poly in polys
        for r in poly.rings() for v in r.vertices
    ]
    ys = [p[1] for p in verts] + [
        v[1] for polys in (b1_polys, b2_polys) for poly in polys
        for r in poly.rings() for v in r.vertices
    ]
    pad = max(Fraction(1), Fraction(max(xs) - min(xs) + max(ys) - min(ys), 10))
    box = ring_from(
        (
            (min(xs) - pad, min(ys) - pad),
            (max(xs) + pad, min(ys) - pad),
            (max(xs) + pad, max(ys) + pad),
            (min(xs) - pad, max(ys) + pad),
        )
    )
    outside = Polygon(box, (ring_from(outer_ring),))

    if b1_inside:
        a1_polys, a2_polys = [inner_disc], [outside]
    else:
        a1_polys, a2_polys = [outside], [inner_disc]
    return scene.with_regions(
        {
            "a1": a1_polys,
            "a2": a2_polys,
            "a3": [arcs[0]],
            "a4": [arcs[1]],
            "a5": [arcs[2]],
        }
    )


# ---------------------------------------------------------------------------
# PCP instance file helpers


def load_pcp(path: str) -> PcpInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return pcp_from_json(json.load(fh))
