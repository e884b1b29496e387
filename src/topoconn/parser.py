"""Parser for the concrete formula syntax.

Terms and formulas share one expression grammar, read by a single
operator-precedence loop with explicit operand and operator stacks
(Pratt, "Top Down Operator Precedence", POPL 1973).  Operators, from
the tightest binding to the loosest:

    -  (prefix)      term -> term
    .                term, term -> term            left-associative
    +                term, term -> term            left-associative
    =  !=  <=        term, term -> formula         non-associative
    !  (prefix)      formula -> formula
    &                formula, formula -> formula   left-associative
    |                formula, formula -> formula   left-associative

The operands are ``0``, ``1``, identifiers, parenthesized expressions
and the predicates ``C(term, term)``, ``c(term)`` and ``ci(term)``; an
identifier ``C``, ``c`` or ``ci`` is a predicate only when ``(``
follows it and a formula may stand there.  Whitespace is insignificant
and ``#`` starts a line comment.

Sort rule: every operator takes the sorts shown, and the loop checks
them as it reduces, so a parenthesized group is read once and takes the
sort of its content.  :func:`parse` wants a formula and
:func:`parse_term` a term.  A :class:`ParseError` names the first token
that no valid input could follow; a character that starts no token is
reported before any other error.

``t1 <= t2`` desugars to ``t1 . -t2 = 0`` and ``t1 != t2`` to
``!(t1 = t2)``; neither survives into the abstract syntax.
"""

from __future__ import annotations

import re

from .syntax import (
    And,
    AtomF,
    Complement,
    Conn,
    Contact,
    Eq,
    Formula,
    IntConn,
    Not,
    ONE,
    Or,
    Product,
    Sum,
    Term,
    Variable,
    ZERO,
    leq,
)


class ParseError(ValueError):
    """Syntax error with source position and the expected-token set."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...]):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{suffix}")


# Every match skips whitespace and comments and then takes one token, or
# matches the end of the text (no group), so finditer never skips input;
# the group ``bad`` takes any character that starts no token.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
        (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op><=|!=|[=!&|(),+.\-01])
      | (?P<bad>[^ \t\r\n\#])
      | \Z
    )
    """,
    re.VERBOSE,
)

# Entries of the operator stack.  Operators carry their binding power;
# brackets and the bottom of the stack have power 0, so reductions stop
# at them.  _PAREN is a "(" where a formula may stand, _TERM_PAREN one
# where only a term may; _CONTACT2 is C( after its comma.
_OR, _AND, _NOT, _EQ, _NEQ, _LEQ, _PLUS, _DOT, _NEG = range(9)
_PAREN, _TERM_PAREN, _CONN, _INT_CONN, _CONTACT, _CONTACT2, _FORMULA, _TERM = range(9, 17)
_POWER = (1, 2, 3, 4, 4, 4, 5, 6, 7) + (0,) * 8
# whether the operand above this entry must be a term
_TERM_ONLY = (False, False, False, True, True, True, True, True, True,
              False, True, True, True, True, True, False, True)

_PREDICATES = {"C": _CONTACT, "c": _CONN, "ci": _INT_CONN}

# Tokens read after an operand: the power down to which they reduce,
# and the binary operator they push (None for ")", "," and the end,
# whose text is empty).  Comparisons reduce only the term operators.
_INFIX = {
    "|": (1, _OR), "&": (2, _AND), "=": (5, _EQ), "!=": (5, _NEQ), "<=": (5, _LEQ),
    "+": (5, _PLUS), ".": (6, _DOT), ")": (1, None), ",": (1, None), "": (1, None),
}

_COMPARISON = "'=', '!=' or '<='"
_CLOSER = {_TERM_PAREN: "')'", _CONN: "')'", _INT_CONN: "')'", _CONTACT2: "')'",
           _CONTACT: "','", _TERM: "end of input"}


def _parse(text: str, bottom: int) -> Formula | Term:
    toks = [(k, m[k], m.start(k)) for m in _TOKEN_RE.finditer(text) if (k := m.lastgroup)]
    toks.append(("end", "", len(text)))
    names: dict[str, Variable] = {}
    ops = [bottom]
    vals: list = []
    fml = False  # whether vals[-1] is a formula
    want = True  # whether an operand comes next
    i = 0
    while True:
        kind, tx, _ = toks[i]
        i += 1
        if want:
            if kind == "ident":
                pred = _PREDICATES.get(tx)
                if pred is not None and toks[i][1] == "(" and not _TERM_ONLY[ops[-1]]:
                    ops.append(pred)
                    i += 1
                    continue
                v = names.get(tx)
                if v is None:
                    v = names[tx] = Variable(tx)
                vals.append(v)
            elif tx == "(":
                ops.append(_TERM_PAREN if _TERM_ONLY[ops[-1]] else _PAREN)
                continue
            elif tx == "-":
                ops.append(_NEG)
                continue
            elif tx == "!" and not _TERM_ONLY[ops[-1]]:
                ops.append(_NOT)
                continue
            elif tx == "0":
                vals.append(ZERO)
            elif tx == "1":
                vals.append(ONE)
            else:
                raise _error(text, toks, i - 1, ops, True, fml)
            fml = want = False
            continue

        entry = _INFIX.get(tx)
        if entry is None:
            raise _error(text, toks, i - 1, ops, False, fml)
        stop, push = entry
        if stop > 2 and fml:
            raise _error(text, toks, i - 1, ops, False, fml)
        f0 = fml  # the state before this token, for an error report
        # reduce every operator that binds at least as tightly as ``stop``;
        # ops[j + 1:] are dropped once the token is known to fit
        j = len(ops) - 1
        e = ops[j]
        while _POWER[e] >= stop:
            if e == _NEG:
                vals[-1] = Complement(vals[-1])
            elif e == _NOT:
                if not fml:
                    raise _error(text, toks, i - 1, ops, False, f0)
                vals[-1] = Not(vals[-1])
            else:
                if e <= _AND and not fml:
                    raise _error(text, toks, i - 1, ops, False, f0)
                r = vals.pop()
                l = vals[-1]
                if e == _AND:
                    vals[-1] = And(l, r)
                elif e == _OR:
                    vals[-1] = Or(l, r)
                elif e == _PLUS:
                    vals[-1] = Sum(l, r)
                elif e == _DOT:
                    vals[-1] = Product(l, r)
                else:
                    fml = True
                    vals[-1] = (
                        AtomF(Eq(l, r)) if e == _EQ
                        else Not(AtomF(Eq(l, r))) if e == _NEQ
                        else leq(l, r)
                    )
            j -= 1
            e = ops[j]

        if push is not None:
            # & and | need a formula; a comparison needs a place where a
            # formula may stand, which also makes comparisons non-associative
            if push <= _AND and not fml or _EQ <= push <= _LEQ and _TERM_ONLY[e]:
                raise _error(text, toks, i - 1, ops, False, f0)
            ops[j + 1:] = (push,)
            want = True
            continue
        if tx == ")":
            if e == _PAREN or e == _TERM_PAREN:
                del ops[j:]
                continue
            if e == _CONTACT2:
                r = vals.pop()
                vals[-1] = AtomF(Contact(vals[-1], r))
            elif e == _CONN:
                vals[-1] = AtomF(Conn(vals[-1]))
            elif e == _INT_CONN:
                vals[-1] = AtomF(IntConn(vals[-1]))
            else:
                raise _error(text, toks, i - 1, ops, False, f0)
            del ops[j:]
            fml = True
            continue
        elif tx == ",":
            if e == _CONTACT:
                ops[j:] = (_CONTACT2,)
                want = True
                continue
        elif e == _TERM or (e == _FORMULA and fml):
            return vals[0]
        raise _error(text, toks, i - 1, ops, False, f0)


def _error(text: str, toks: list, k: int, ops: list, want: bool, fml: bool) -> ParseError:
    """The error for token ``k``, read with the stack ``ops`` and, unless
    an operand is wanted, an operand of sort ``fml`` on top."""
    bad = [tok for tok in toks if tok[0] == "bad"]
    if bad:
        _, tx, off = bad[0]
        what, expected = f"unexpected character {tx!r}", ()
    else:
        kind, tx, off = toks[k]
        what = "unexpected end of input" if kind == "end" else f"unexpected {tx!r}"
        expected = _expected(ops, want, fml)
        if not want and toks[k - 1][1] in _PREDICATES and not _TERM_ONLY[ops[-1]]:
            # a "(" would have made that variable a predicate
            expected = tuple(sorted(expected + ("'('",)))
    line = text.count("\n", 0, off) + 1
    return ParseError(what, line, off - text.rfind("\n", 0, off), expected)


def _expected(ops: list, want: bool, fml: bool) -> tuple[str, ...]:
    """What may come next in a state of the loop."""
    if want:
        return ("a term",) if _TERM_ONLY[ops[-1]] else ("a formula",)
    out = []
    j = len(ops) - 1
    if not fml:
        out += ["'+'", "'.'"]
        while ops[j] in (_NEG, _DOT, _PLUS):
            j -= 1
        e = ops[j]
        if e in (_EQ, _NEQ, _LEQ):
            # the comparison completes a formula
            fml = True
            j -= 1
        elif _TERM_ONLY[e]:
            out.append(_CLOSER[e])
        else:
            out.append(_COMPARISON)
            if e == _PAREN:
                out.append("')'")
    if fml:
        out += ["'&'", "'|'"]
        while ops[j] in (_NOT, _AND, _OR):
            j -= 1
        out.append("')'" if ops[j] == _PAREN else "end of input")
    return tuple(sorted(out))


def parse(text: str) -> Formula:
    """Parse formula source text; raises :class:`ParseError` on bad input."""
    return _parse(text, _FORMULA)


def parse_term(text: str) -> Term:
    """Parse a bare term (no comparison, no predicates)."""
    return _parse(text, _TERM)
