import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topoconn.parser import ParseError, parse, parse_term
from topoconn.quasisaw import check
from topoconn.syntax import (
    And,
    AtomF,
    Complement,
    Conn,
    Contact,
    Eq,
    IntConn,
    LanguageId,
    Not,
    ONE,
    One,
    Or,
    Polarity,
    Product,
    Sum,
    Variable,
    ZERO,
    Zero,
    atoms,
    conj,
    eliminate_contact,
    fold,
    language_leq,
    language_of,
    nnf,
    polarity,
    rebuild,
    to_bullet,
    to_source,
    variables,
)

from conftest import random_formula, random_frame, random_model

r1, r2, r3 = Variable("r1"), Variable("r2"), Variable("r3")


# ---------------------------------------------------------------------------
# Parsing and printing

def test_parse_examples():
    assert parse("c(r1) & r1 != 0") == And(
        AtomF(Conn(r1)), Not(AtomF(Eq(r1, ZERO)))
    )
    assert parse("C(r1+r2, -r3)") == AtomF(
        Contact(Sum(r1, r2), Complement(r3))
    )
    assert parse("r1 <= r2") == AtomF(Eq(Product(r1, Complement(r2)), ZERO))


def test_print_examples():
    assert to_source(And(AtomF(Conn(r1)), Not(AtomF(Eq(r1, ZERO))))) == (
        "(c(r1) & !(r1 = 0))"
    )
    assert to_source(AtomF(Eq(ZERO, ZERO))) == "0 = 0"
    assert to_source(AtomF(IntConn(Sum(r1, r2)))) == "ci((r1 + r2))"


def test_parse_error_position_and_expected():
    with pytest.raises(ParseError) as exc:
        parse("c(r1) &")
    assert exc.value.line == 1
    assert exc.value.col == 8
    assert exc.value.expected


def test_comments_and_whitespace():
    text = """
    # leading comment
    c(r1)   # trailing comment
      & r1 != 0
    """
    assert parse(text) == parse("c(r1)&r1!=0")


def test_parenthesized_term_versus_formula():
    assert parse("(r1 + r2) = 0") == AtomF(Eq(Sum(r1, r2), ZERO))
    assert parse("((r1 = 0))") == AtomF(Eq(r1, ZERO))
    assert parse_term("-(r1 . r2)") == Complement(Product(r1, r2))


_names = st.sampled_from(["r1", "r2", "x'", "b_2"])

_terms = st.deferred(
    lambda: st.one_of(
        _names.map(Variable),
        st.just(ZERO),
        st.just(ONE),
        st.tuples(_terms, _terms).map(lambda p: Sum(*p)),
        st.tuples(_terms, _terms).map(lambda p: Product(*p)),
        _terms.map(Complement),
    )
)

_atoms = st.one_of(
    st.tuples(_terms, _terms).map(lambda p: AtomF(Eq(*p))),
    st.tuples(_terms, _terms).map(lambda p: AtomF(Contact(*p))),
    _terms.map(lambda t: AtomF(Conn(t))),
    _terms.map(lambda t: AtomF(IntConn(t))),
)

_formulas = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: And(*p)),
        st.tuples(inner, inner).map(lambda p: Or(*p)),
        inner.map(Not),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_formulas)
def test_roundtrip_property(f):
    assert parse(to_source(f)) == f


# The parser's precedence table, loosest first: | & ! (= != <=) + . -
_OR_P, _AND_P, _NOT_P, _CMP_P, _SUM_P, _PROD_P, _NEG_P, _ATOM_P = range(1, 9)
_SEPARATORS = ["", "", " ", "  ", "\n", "\t", " # note\n", "\r\n"]


def _tight(node, rnd):
    """Tokens of ``node`` with the fewest parentheses the precedence table
    allows, using != and <= at random where the tree has their shape, and
    the binding power of the outermost operator."""

    def sub(child, need):
        power, toks = _tight(child, rnd)
        return toks if power >= need else ["(", *toks, ")"]

    if isinstance(node, Variable):
        return _ATOM_P, [node.name]
    if isinstance(node, Zero):
        return _ATOM_P, ["0"]
    if isinstance(node, One):
        return _ATOM_P, ["1"]
    if isinstance(node, Sum):
        return _SUM_P, sub(node.left, _SUM_P) + ["+"] + sub(node.right, _PROD_P)
    if isinstance(node, Product):
        return _PROD_P, sub(node.left, _PROD_P) + ["."] + sub(node.right, _NEG_P)
    if isinstance(node, Complement):
        return _NEG_P, ["-"] + sub(node.arg, _NEG_P)
    if isinstance(node, AtomF):
        a = node.atom
        if isinstance(a, Eq):
            l, r = a.left, a.right
            if (isinstance(l, Product) and isinstance(l.right, Complement)
                    and isinstance(r, Zero) and rnd.random() < 0.5):
                return _CMP_P, sub(l.left, _SUM_P) + ["<="] + sub(l.right.arg, _SUM_P)
            return _CMP_P, sub(l, _SUM_P) + ["="] + sub(r, _SUM_P)
        if isinstance(a, Contact):
            return _ATOM_P, ["C", "(", *sub(a.left, _SUM_P), ",", *sub(a.right, _SUM_P), ")"]
        name = "c" if isinstance(a, Conn) else "ci"
        return _ATOM_P, [name, "(", *sub(a.arg, _SUM_P), ")"]
    if isinstance(node, Not):
        g = node.arg
        if isinstance(g, AtomF) and isinstance(g.atom, Eq) and rnd.random() < 0.5:
            return _CMP_P, sub(g.atom.left, _SUM_P) + ["!="] + sub(g.atom.right, _SUM_P)
        return _NOT_P, ["!"] + sub(g, _NOT_P)
    if isinstance(node, And):
        return _AND_P, sub(node.left, _AND_P) + ["&"] + sub(node.right, _NOT_P)
    if isinstance(node, Or):
        return _OR_P, sub(node.left, _OR_P) + ["|"] + sub(node.right, _AND_P)
    raise TypeError(node)


def _print_tight(node, rnd) -> str:
    toks = _tight(node, rnd)[1]
    return "".join(rnd.choice(_SEPARATORS) + tok for tok in toks) + rnd.choice(_SEPARATORS)


@settings(max_examples=300, deadline=None)
@given(_formulas, st.randoms(use_true_random=False))
def test_parse_follows_the_precedence_table(f, rnd):
    assert parse(_print_tight(f, rnd)) == f


@settings(max_examples=300, deadline=None)
@given(_terms, st.randoms(use_true_random=False))
def test_parse_term_follows_the_precedence_table(t, rnd):
    assert parse_term(_print_tight(t, rnd)) == t


def test_tight_printer_examples():
    class Fixed(random.Random):
        # one space between tokens, and = rather than != or <=
        def choice(self, seq):
            return seq[2]

        def random(self):
            return 0.9

    rnd = Fixed()
    f = parse("!(r1 + r2 . -r3 = 0 | c(r1)) & (C(r1, r2) | !!r1 != r2)")
    assert _print_tight(f, rnd) == (
        " ! ( r1 + r2 . - r3 = 0 | c ( r1 ) ) & ( C ( r1 , r2 ) | ! ! ! r1 = r2 ) "
    )
    assert _print_tight(parse_term("(r1 + r2) . -(r1 . r2) + (r1 + r2)"), rnd) == (
        " ( r1 + r2 ) . - ( r1 . r2 ) + ( r1 + r2 ) "
    )


PARSE_ERRORS = json.loads(
    (Path(__file__).resolve().parent / "data" / "parse_errors.json").read_text()
)


def _parse_error(case) -> ParseError:
    with pytest.raises(ParseError) as exc:
        (parse if case["parse"] == "formula" else parse_term)(case["input"])
    return exc.value


def test_parse_error_positions_and_messages_match_corpus():
    assert len(PARSE_ERRORS) >= 40
    wrong = []
    for case in PARSE_ERRORS:
        err = _parse_error(case)
        head = str(err).split(" (expected one of: ")[0]
        if (err.line, err.col, head) != (case["line"], case["col"], case["message"]):
            wrong.append((case["input"], err.line, err.col, head))
    assert not wrong


def test_parse_error_expected_sets_match_corpus():
    wrong = []
    for case in PARSE_ERRORS:
        err = _parse_error(case)
        expected = tuple(case["expected"])
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        if (err.expected, str(err)) != (expected, case["message"] + suffix):
            wrong.append((case["input"], err.expected))
    assert not wrong


def _height(node) -> int:
    """Height of a syntax tree, walked with an explicit stack, since
    ``==`` and ``to_source`` recurse."""
    height, stack = 0, [(node, 1)]
    while stack:
        n, d = stack.pop()
        height = max(height, d)
        for fld in dataclasses.fields(n):
            child = getattr(n, fld.name)
            if not isinstance(child, str):
                stack.append((child, d + 1))
    return height


def test_parser_has_no_depth_limit():
    n = 10_000
    f = parse("!" * n + "c(a)")
    assert _height(f) == n + 3
    for _ in range(n):
        f = f.arg
    assert f == AtomF(Conn(Variable("a")))

    assert parse("(" * n + "a = 0" + ")" * n) == AtomF(Eq(Variable("a"), ZERO))

    t = parse_term("-" * n + "a")
    assert _height(t) == n + 1
    for _ in range(n):
        t = t.arg
    assert t == Variable("a")

    f = parse("c(" + "(a . " * n + "b" + ")" * n + ")")
    assert _height(f) == n + 3
    t = f.atom.arg
    for _ in range(n):
        assert t.left == Variable("a")
        t = t.right
    assert t == Variable("b")


# ---------------------------------------------------------------------------
# Language classification

def test_language_of_examples():
    assert language_of(parse("r1 = 0")) == LanguageId.B
    assert language_of(parse("c(r1) & C(r1,r2)")) == LanguageId.BCc
    assert language_of(parse("ci(r1)")) == LanguageId.Bci
    assert language_of(parse("C(r1,r2)")) == LanguageId.BC
    assert language_of(parse("c(r1)")) == LanguageId.Bc
    assert language_of(parse("ci(r1) & C(r1,r2)")) == LanguageId.BCci
    # no named language has both connectedness kinds without contact
    assert language_of(parse("c(r1) & ci(r2)")) == LanguageId.MIXED_C
    assert language_of(parse("c(r1) & ci(r2) & C(r1,r2)")) == LanguageId.BCci


def test_language_order():
    assert language_leq(LanguageId.B, LanguageId.BCci)
    assert language_leq(LanguageId.Bci, LanguageId.BCci)
    assert not language_leq(LanguageId.Bc, LanguageId.BCci)
    assert not language_leq(LanguageId.BCc, LanguageId.Bc)


# ---------------------------------------------------------------------------
# Polarity

def test_polarity_examples():
    rep = polarity(parse("!(!(C(r1,r2)))"))
    assert rep.contact == Polarity.ALL_POSITIVE
    rep = polarity(parse("C(r1,r2) & !C(r1,r3)"))
    assert rep.contact == Polarity.MIXED
    rep = polarity(parse("c(r1)"))
    assert rep.contact == Polarity.ABSENT
    assert rep.conn == Polarity.ALL_POSITIVE


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_negation_swaps_polarity(f):
    flip = {
        Polarity.ALL_POSITIVE: Polarity.ALL_NEGATIVE,
        Polarity.ALL_NEGATIVE: Polarity.ALL_POSITIVE,
        Polarity.MIXED: Polarity.MIXED,
        Polarity.ABSENT: Polarity.ABSENT,
    }
    rep, neg = polarity(f), polarity(Not(f))
    assert neg.contact == flip[rep.contact]
    assert neg.conn == flip[rep.conn]
    assert neg.intconn == flip[rep.intconn]


# ---------------------------------------------------------------------------
# to_bullet

def _unbullet(f):
    if isinstance(f, AtomF):
        if isinstance(f.atom, Conn):
            return AtomF(IntConn(f.atom.arg))
        return f
    if isinstance(f, And):
        return And(_unbullet(f.left), _unbullet(f.right))
    if isinstance(f, Or):
        return Or(_unbullet(f.left), _unbullet(f.right))
    if isinstance(f, Not):
        return Not(_unbullet(f.arg))
    raise TypeError


def test_to_bullet_examples():
    f = parse("ci(r1) & !(ci(r2))")
    assert to_bullet(f) == parse("c(r1) & !(c(r2))")
    assert to_bullet(parse("r1 = r2")) == parse("r1 = r2")
    with pytest.raises(ValueError):
        to_bullet(parse("c(r1)"))


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_to_bullet_bijection(f):
    has_conn = any(isinstance(a, Conn) for a in atoms(f))
    if has_conn:
        with pytest.raises(ValueError):
            to_bullet(f)
    else:
        assert _unbullet(to_bullet(f)) == f


# ---------------------------------------------------------------------------
# eliminate_contact

def test_eliminate_contact_examples():
    g = eliminate_contact(parse("!C(r1, r2)"))
    assert g == parse("c(r1 + _f0) & c(r2 + _f1) & !c((r1 + _f0) + (r2 + _f1))")
    f = parse("c(r1) & r1 != 0")
    assert eliminate_contact(f) == nnf(f)
    g2 = eliminate_contact(parse("!C(r1,r2) & !C(r1,r3)"))
    fresh = sorted(set(variables(g2)) - {"r1", "r2", "r3"})
    assert fresh == ["_f0", "_f1", "_f2", "_f3"]
    with pytest.raises(ValueError):
        eliminate_contact(parse("C(r1, r2)"))
    with pytest.raises(ValueError):
        eliminate_contact(parse("C(r1,r2) & !C(r1,r3)"))


def test_eliminate_contact_entailment_on_random_models():
    from conftest import random_term

    rng = random.Random(20240)
    hits = violations = 0
    for trial in range(4000):
        names = ("a", "b")
        if trial % 2:
            f = Not(AtomF(Contact(Variable("a"), Variable("b"))))
        else:
            f = And(
                Not(AtomF(Contact(random_term(rng, names, 1), random_term(rng, names, 1)))),
                random_formula(rng, names, 1),
            )
        if polarity(f).contact != Polarity.ALL_NEGATIVE:
            continue
        g = eliminate_contact(f)
        frame = random_frame(rng, max_w0=3, max_w1=2)
        model = random_model(rng, frame, variables(g))
        if check(model, g):
            hits += 1
            if not check(model, f):
                violations += 1
    assert violations == 0
    assert hits > 30  # the premise must actually fire


# ---------------------------------------------------------------------------
# Negation normal form


@settings(max_examples=200, deadline=None)
@given(_formulas, st.randoms(use_true_random=False))
def test_nnf_keeps_truth_and_pushes_negations_onto_atoms(f, rnd):
    g = nnf(f)
    stack = [g]
    while stack:
        node = stack.pop()
        if isinstance(node, Not):
            assert isinstance(node.arg, AtomF)
        elif isinstance(node, (And, Or)):
            stack += (node.left, node.right)
    assert nnf(g) == g
    for _ in range(5):
        model = random_model(rnd, random_frame(rnd, max_w0=3, max_w1=2), ("r1", "r2", "x'", "b_2"))
        assert check(model, g) == check(model, f)


# ---------------------------------------------------------------------------
# Formulas deeper than the interpreter's stack


def _same(x, y) -> bool:
    """Structural equality walked with an explicit stack, since ``==``
    recurses."""
    stack = [(x, y)]
    while stack:
        a, b = stack.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, str):
            if a != b:
                return False
            continue
        stack += [(getattr(a, fld.name), getattr(b, fld.name)) for fld in dataclasses.fields(a)]
    return True


def _nots(f, n: int):
    for _ in range(n):
        f = Not(f)
    return f


def _disj(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = Or(acc, p)
    return acc


def _ci(i: int):
    return AtomF(IntConn(Variable(f"a{i}")))


def _contact(i: int):
    return AtomF(Contact(Variable(f"a{i}"), Variable("b")))


def _gadget(i: int, r: str, s: str):
    p1, p2 = Sum(Variable(f"a{i}"), Variable(r)), Sum(Variable("b"), Variable(s))
    return conj([AtomF(Conn(p1)), AtomF(Conn(p2)), Not(AtomF(Conn(Sum(p1, p2))))])


def test_walkers_have_no_depth_limit():
    a = Variable("a")
    deep = parse("!" * 10_000 + "ci(a)")
    assert _same(deep, _nots(AtomF(IntConn(a)), 10_000))
    assert language_of(deep) == LanguageId.Bci
    assert polarity(deep).intconn == Polarity.ALL_POSITIVE
    assert _same(to_bullet(deep), _nots(AtomF(Conn(a)), 10_000))
    assert _same(nnf(deep), AtomF(IntConn(a)))
    assert _same(nnf(Not(deep)), Not(AtomF(IntConn(a))))
    assert _same(eliminate_contact(deep), AtomF(IntConn(a)))
    assert _same(fold(deep, lambda g: g, rebuild), deep)
    with pytest.raises(ValueError):
        to_bullet(_nots(AtomF(Conn(a)), 10_000))

    # ci(a0) & !C(a1, b) & ci(a2) & ... with 3000 atoms
    n = 3000
    odd = range(1, n, 2)
    chain = conj([_ci(i) if i % 2 == 0 else Not(_contact(i)) for i in range(n)])
    assert language_of(chain) == LanguageId.BCci
    rep = polarity(chain)
    assert (rep.contact, rep.conn, rep.intconn) == (
        Polarity.ALL_NEGATIVE, Polarity.ABSENT, Polarity.ALL_POSITIVE
    )
    assert _same(fold(chain, lambda g: g, rebuild), chain)
    assert _same(nnf(chain), chain)
    assert _same(
        nnf(Not(chain)),
        _disj([_contact(i) if i in odd else Not(_ci(i)) for i in range(n)]),
    )
    bullet = [Not(_contact(i)) if i in odd else AtomF(Conn(Variable(f"a{i}"))) for i in range(n)]
    assert _same(to_bullet(chain), conj(bullet))
    # the fresh names come out left to right
    assert _same(
        eliminate_contact(chain),
        conj([_gadget(i, f"_f{i - 1}", f"_f{i}") if i in odd else _ci(i) for i in range(n)]),
    )


def test_fold_is_post_order_left_to_right():
    f = parse("(c(a) | !ci(b)) & C(a, b)")
    seen = []
    fold(f, lambda g: seen.append(to_source(g)), lambda g, *vs: seen.append(type(g).__name__))
    assert seen == ["c(a)", "ci(b)", "Not", "Or", "C(a, b)", "And"]
    with pytest.raises(TypeError, match="^not a formula: 3$"):
        fold(And(AtomF(Conn(Variable("a"))), 3), lambda g: g, rebuild)
