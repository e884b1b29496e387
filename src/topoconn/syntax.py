"""Abstract syntax for quantifier-free topological constraint formulas.

Terms form the Boolean-algebra signature (0, 1, +, ., -) over region
variables.  Atoms compare two terms, assert contact between two regions,
or assert that a region (``c``) or its interior (``ci``) is connected.
Formulas close the atoms under conjunction, disjunction and negation.

Everything here is an immutable value with structural equality; no
simplification is ever applied, so generated formulas stay textually
auditable.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

T = TypeVar("T")

# A leading underscore is reserved for machine-generated variables (the
# documented source grammar starts identifiers with a letter).
IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*\Z")


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class for region-valued terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Variable(Term):
    name: str

    def __post_init__(self) -> None:
        if not IDENT_RE.match(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True)
class Zero(Term):
    pass


@dataclass(frozen=True)
class One(Term):
    pass


@dataclass(frozen=True)
class Sum(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Product(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Complement(Term):
    arg: Term


ZERO = Zero()
ONE = One()


def term_sum(terms: list[Term] | tuple[Term, ...]) -> Term:
    """Left-associated sum of ``terms``; the empty sum is 0."""
    items = list(terms)
    if not items:
        return ZERO
    acc = items[0]
    for t in items[1:]:
        acc = Sum(acc, t)
    return acc


# ---------------------------------------------------------------------------
# Atoms and formulas


class Atom:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Atom):
    left: Term
    right: Term


@dataclass(frozen=True)
class Contact(Atom):
    left: Term
    right: Term


@dataclass(frozen=True)
class Conn(Atom):
    arg: Term


@dataclass(frozen=True)
class IntConn(Atom):
    arg: Term


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class AtomF(Formula):
    atom: Atom


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


def fold(f: Formula, atom: Callable[[AtomF], T], op: Callable[..., T]) -> T:
    """Post-order fold of ``f`` with an explicit stack, so it works at any
    depth: an atomic formula ``g`` gives ``atom(g)``, an ``And``, ``Or``
    or ``Not`` node gives ``op(node, *child_values)``, children taken left
    to right.  Terms are not entered."""
    values: list[T] = []
    # a node is pushed with arity 0 to enter it, then with its arity to combine
    stack: list[tuple[Formula, int]] = [(f, 0)]
    while stack:
        g, arity = stack.pop()
        if arity == 1:
            values[-1] = op(g, values[-1])
        elif arity:
            right = values.pop()
            values[-1] = op(g, values[-1], right)
        elif isinstance(g, AtomF):
            values.append(atom(g))
        elif isinstance(g, (And, Or)):
            stack += ((g, 2), (g.right, 0), (g.left, 0))
        elif isinstance(g, Not):
            stack += ((g, 1), (g.arg, 0))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return values[0]


def rebuild(g: Formula, *children: Formula) -> Formula:
    """The node ``g`` over new children: the ``op`` of a rewriting fold."""
    return type(g)(*children)


def conj(parts: list[Formula] | tuple[Formula, ...]) -> Formula:
    """Left-associated conjunction; at least one conjunct is required."""
    items = list(parts)
    if not items:
        raise ValueError("empty conjunction")
    acc = items[0]
    for p in items[1:]:
        acc = And(acc, p)
    return acc


def conjuncts(f: Formula) -> Iterator[Formula]:
    """Yield the leaves of the top-level conjunction tree of ``f``."""
    if isinstance(f, And):
        yield from conjuncts(f.left)
        yield from conjuncts(f.right)
    else:
        yield f


def nonempty(t: Term) -> Formula:
    return Not(AtomF(Eq(t, ZERO)))


def leq(t1: Term, t2: Term) -> Formula:
    """t1 <= t2, desugared to t1 . -t2 = 0."""
    return AtomF(Eq(Product(t1, Complement(t2)), ZERO))


def term_variables(t: Term) -> set[str]:
    if isinstance(t, Variable):
        return {t.name}
    if isinstance(t, (Zero, One)):
        return set()
    if isinstance(t, (Sum, Product)):
        return term_variables(t.left) | term_variables(t.right)
    if isinstance(t, Complement):
        return term_variables(t.arg)
    raise TypeError(f"not a term: {t!r}")


def atom_terms(a: Atom) -> tuple[Term, ...]:
    if isinstance(a, (Eq, Contact)):
        return (a.left, a.right)
    if isinstance(a, (Conn, IntConn)):
        return (a.arg,)
    raise TypeError(f"not an atom: {a!r}")


def variables(f: Formula) -> tuple[str, ...]:
    """All variable names of ``f``, sorted."""
    seen: set[str] = set()
    for a in atoms(f):
        for t in atom_terms(a):
            seen |= term_variables(t)
    return tuple(sorted(seen))


def atoms(f: Formula) -> Iterator[Atom]:
    if isinstance(f, AtomF):
        yield f.atom
    elif isinstance(f, (And, Or)):
        yield from atoms(f.left)
        yield from atoms(f.right)
    elif isinstance(f, Not):
        yield from atoms(f.arg)
    else:
        raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Printing

_TERM_ATOMS = (Variable, Zero, One)


def term_to_source(t: Term) -> str:
    """Fully parenthesized concrete syntax for a term."""
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, One):
        return "1"
    if isinstance(t, Sum):
        return f"({term_to_source(t.left)} + {term_to_source(t.right)})"
    if isinstance(t, Product):
        return f"({term_to_source(t.left)} . {term_to_source(t.right)})"
    if isinstance(t, Complement):
        return f"-{term_to_source(t.arg)}"
    raise TypeError(f"not a term: {t!r}")


def atom_to_source(a: Atom) -> str:
    if isinstance(a, Eq):
        return f"{term_to_source(a.left)} = {term_to_source(a.right)}"
    if isinstance(a, Contact):
        return f"C({term_to_source(a.left)}, {term_to_source(a.right)})"
    if isinstance(a, Conn):
        return f"c({term_to_source(a.arg)})"
    if isinstance(a, IntConn):
        return f"ci({term_to_source(a.arg)})"
    raise TypeError(f"not an atom: {a!r}")


def to_source(f: Formula) -> str:
    """Deterministic, fully parenthesized concrete syntax.

    ``parse(to_source(f))`` returns a formula structurally equal to ``f``.
    """
    if isinstance(f, AtomF):
        return atom_to_source(f.atom)
    if isinstance(f, And):
        return f"({to_source(f.left)} & {to_source(f.right)})"
    if isinstance(f, Or):
        return f"({to_source(f.left)} | {to_source(f.right)})"
    if isinstance(f, Not):
        return f"!({to_source(f.arg)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Language classification


class LanguageId(enum.Enum):
    """The six languages, ordered by which atom kinds they admit.

    B is purely Boolean; BC adds the contact predicate C; Bc and Bci add
    connectedness (c) and interior-connectedness (ci) to B; BCc and BCci
    add them to BC.  MIXED_C is a diagnostic tag for formulas using both
    c and ci without C: no named language covers that combination, so we
    refuse to guess (but see :func:`language_of` for the convention used
    when C is also present).
    """

    B = "B"
    BC = "BC"
    Bc = "Bc"
    Bci = "Bci"
    BCc = "BCc"
    BCci = "BCci"
    MIXED_C = "mixed-c"


_LANG_LEQ: dict[LanguageId, frozenset[LanguageId]] = {
    LanguageId.B: frozenset(
        {LanguageId.B, LanguageId.BC, LanguageId.Bc, LanguageId.Bci,
         LanguageId.BCc, LanguageId.BCci}
    ),
    LanguageId.BC: frozenset({LanguageId.BC, LanguageId.BCc, LanguageId.BCci}),
    LanguageId.Bc: frozenset({LanguageId.Bc, LanguageId.BCc}),
    LanguageId.Bci: frozenset({LanguageId.Bci, LanguageId.BCci}),
    LanguageId.BCc: frozenset({LanguageId.BCc}),
    LanguageId.BCci: frozenset({LanguageId.BCci}),
    LanguageId.MIXED_C: frozenset({LanguageId.MIXED_C}),
}


def language_leq(a: LanguageId, b: LanguageId) -> bool:
    """Partial order on languages: a <= b iff every a-formula is a b-formula."""
    return b in _LANG_LEQ[a]


def language_of(f: Formula) -> LanguageId:
    """Smallest language whose atom set contains every atom kind in ``f``.

    A formula mixing c and ci without C gets the MIXED_C diagnostic; with
    C present the mix is reported as BCci (the join convention used
    throughout this package).
    """
    kinds = fold(f, lambda g: {type(g.atom)}, lambda g, *sets: set().union(*sets))
    has_c, has_conn, has_ic = Contact in kinds, Conn in kinds, IntConn in kinds
    if has_conn and has_ic:
        return LanguageId.BCci if has_c else LanguageId.MIXED_C
    if has_conn:
        return LanguageId.BCc if has_c else LanguageId.Bc
    if has_ic:
        return LanguageId.BCci if has_c else LanguageId.Bci
    return LanguageId.BC if has_c else LanguageId.B


# ---------------------------------------------------------------------------
# Polarity


class Polarity(enum.Enum):
    ALL_POSITIVE = "all-positive"
    ALL_NEGATIVE = "all-negative"
    MIXED = "mixed"
    ABSENT = "absent"


@dataclass(frozen=True)
class PolarityReport:
    contact: Polarity
    conn: Polarity
    intconn: Polarity


def polarity(f: Formula) -> PolarityReport:
    """Occurrence polarities per atom kind.

    An atom under an even number of negations counts as positive, under
    an odd number as negative; conjunction and disjunction preserve the
    sign.  No Boolean simplification is applied.
    """

    def signed(g: Formula, *children: set) -> set:
        if isinstance(g, Not):
            return {(kind, not sign) for kind, sign in children[0]}
        return children[0] | children[1]

    seen = fold(f, lambda g: {(type(g.atom), True)}, signed)

    def of(kind: type) -> Polarity:
        signs = {sign for k, sign in seen if k is kind}
        if not signs:
            return Polarity.ABSENT
        if signs == {True}:
            return Polarity.ALL_POSITIVE
        if signs == {False}:
            return Polarity.ALL_NEGATIVE
        return Polarity.MIXED

    return PolarityReport(contact=of(Contact), conn=of(Conn), intconn=of(IntConn))


# ---------------------------------------------------------------------------
# Syntactic translations


def to_bullet(f: Formula) -> Formula:
    """Replace every interior-connectedness atom by plain connectedness.

    Defined only on formulas free of c-atoms, so that the substitution is
    a bijection between the ci-languages and their c-counterparts.
    """

    def bullet(g: AtomF) -> Formula:
        if isinstance(g.atom, Conn):
            raise ValueError("to_bullet requires a formula without c-atoms")
        return AtomF(Conn(g.atom.arg)) if isinstance(g.atom, IntConn) else g

    return fold(f, bullet, rebuild)


def nnf(f: Formula) -> Formula:
    """Negation normal form: negations pushed onto atoms, nothing else."""
    # each subformula folds to its normal form and that of its negation
    def push(g: Formula, *children: tuple[Formula, Formula]) -> tuple[Formula, Formula]:
        if isinstance(g, Not):
            return children[0][::-1]
        (lpos, lneg), (rpos, rneg) = children
        if isinstance(g, And):
            return And(lpos, rpos), Or(lneg, rneg)
        return Or(lpos, rpos), And(lneg, rneg)

    return fold(f, lambda g: (g, Not(g)), push)[0]


def default_fresh() -> Callable[[], str]:
    """Monotone fresh-name generator of ``_f0``, ``_f1``, ...; the
    leading underscore is reserved for generated names and cannot collide
    with user identifiers written in the concrete syntax."""
    counter = 0

    def fresh() -> str:
        nonlocal counter
        name = f"_f{counter}"
        counter += 1
        return name

    return fresh


def eliminate_contact(f: Formula) -> Formula:
    """Rewrite negative contact literals into connectedness literals.

    Each literal !C(t1, t2) becomes, with fresh padding variables r and s,

        c(t1 + r) & c(t2 + s) & !c((t1 + r) + (t2 + s))

    which entails !C(t1', t2') for all t1' <= t1 + r, t2' <= t2 + s; in
    particular the result entails the input on every frame.  The converse
    (satisfiability preservation) is NOT guaranteed in general and holds
    only for constructions that admit suitable witnesses for the padding
    variables.

    The input must not contain positive contact atoms.  The result is
    returned in negation normal form.
    """
    report = polarity(f)
    if report.contact in (Polarity.ALL_POSITIVE, Polarity.MIXED):
        raise ValueError("eliminate_contact requires all contact atoms negative")
    used: set[str] = set()
    fold(f, lambda g: used.update(*map(term_variables, atom_terms(g.atom))), lambda g, *_: None)
    base = default_fresh()

    def fresh() -> str:
        name = base()
        while name in used:
            name = base()
        return name

    # in negation normal form every Not sits directly above an atom
    def rewrite(g: Formula, *children: Formula) -> Formula:
        if isinstance(g, Not) and isinstance(g.arg.atom, Contact):
            a = g.arg.atom
            padded1 = Sum(a.left, Variable(fresh()))
            padded2 = Sum(a.right, Variable(fresh()))
            return conj(
                [
                    AtomF(Conn(padded1)),
                    AtomF(Conn(padded2)),
                    Not(AtomF(Conn(Sum(padded1, padded2)))),
                ]
            )
        return rebuild(g, *children)

    return fold(nnf(f), lambda g: g, rewrite)
