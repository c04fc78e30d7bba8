"""Recursive-descent parser for subscriptions and events.

Grammar::

    formula    :=  term  ( OR  term )*
    term       :=  factor ( AND factor )*
    factor     :=  NOT factor | '(' formula ')' | comparison
    comparison :=  IDENT op value
                |  IDENT IN '(' value ( ',' value )* ')'
                |  IDENT BETWEEN value AND value
    event      :=  pair ( ',' pair )*
    pair       :=  IDENT '=' value

``x in (a, b, c)`` sugars to ``x = a or x = b or x = c``;
``x between lo and hi`` to ``x >= lo and x <= hi``.

``parse_subscriptions`` expands ``or``/``not`` into DNF and returns one
:class:`Subscription` per disjunct (ids suffixed ``#k`` when several).
"""

from __future__ import annotations

from typing import Any, List

from repro.core.errors import ParseError
from repro.core.types import Event, Operator, Predicate, Subscription
from repro.lang.lexer import (  # the kinds as plain names (see the lexer)
    _AND,
    _BETWEEN,
    _COMMA,
    _END,
    _IDENT,
    _IN,
    _LPAREN,
    _NOT,
    _NUMBER,
    _OP,
    _OR,
    _RPAREN,
    _STRING,
    Token,
    TokenKind,
    tokenize,
)
from repro.lang.nodes import And, Leaf, Node, Not, Or


class _Parser:
    """Token-stream cursor with the grammar productions."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # ------------------------------------------------------------------
    # cursor
    # ------------------------------------------------------------------
    def expect(self, kind: TokenKind) -> Token:
        """The current token, which must be of *kind*; steps past it
        (never past the end).  A production that has read the kind
        itself steps with ``self.pos += 1``."""
        token = self.tokens[self.pos]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value}, found {token.text or 'end of input'!r}",
                self.text,
                token.position,
            )
        if kind is not _END:
            self.pos += 1
        return token

    # ------------------------------------------------------------------
    # productions
    # ------------------------------------------------------------------
    def formula(self) -> Node:
        children = [self.term()]
        while self.tokens[self.pos].kind is _OR:
            self.pos += 1
            children.append(self.term())
        return children[0] if len(children) == 1 else Or(children)

    def term(self) -> Node:
        children = [self.factor()]
        while self.tokens[self.pos].kind is _AND:
            self.pos += 1
            children.append(self.factor())
        return children[0] if len(children) == 1 else And(children)

    def factor(self) -> Node:
        token = self.tokens[self.pos]
        if token.kind is _NOT:
            self.pos += 1
            return Not(self.factor())
        if token.kind is _LPAREN:
            self.pos += 1
            inner = self.formula()
            self.expect(_RPAREN)
            return inner
        return self.comparison()

    def comparison(self) -> Node:
        attribute = self.expect(_IDENT).text
        token = self.tokens[self.pos]
        if token.kind is _IN:
            self.pos += 1
            return self._in_list(attribute)
        if token.kind is _BETWEEN:
            self.pos += 1
            return self._between(attribute, token)
        op_token = self.expect(_OP)
        value = self.value()
        try:
            operator = Operator.from_symbol(op_token.text)
            return Leaf(Predicate(attribute, operator, value))
        except Exception as exc:
            raise ParseError(str(exc), self.text, op_token.position) from exc

    def _in_list(self, attribute: str) -> Node:
        """``x in (v1, v2, …)`` — a disjunction of equalities."""
        self.expect(_LPAREN)
        leaves = [Leaf(Predicate(attribute, Operator.EQ, self.value()))]
        while self.tokens[self.pos].kind is _COMMA:
            self.pos += 1
            leaves.append(Leaf(Predicate(attribute, Operator.EQ, self.value())))
        self.expect(_RPAREN)
        return leaves[0] if len(leaves) == 1 else Or(leaves)

    def _between(self, attribute: str, at: Token) -> Node:
        """``x between lo and hi`` — an inclusive range conjunction."""
        lo = self.value()
        self.expect(_AND)
        hi = self.value()
        try:
            return And(
                [
                    Leaf(Predicate(attribute, Operator.GE, lo)),
                    Leaf(Predicate(attribute, Operator.LE, hi)),
                ]
            )
        except Exception as exc:
            raise ParseError(str(exc), self.text, at.position) from exc

    def value(self) -> Any:
        token = self.tokens[self.pos]
        # Bare words are treated as string constants: movie = comedy.
        if token.kind is _NUMBER or token.kind is _STRING or token.kind is _IDENT:
            self.pos += 1
            return token.value
        raise ParseError(
            f"expected a value, found {token.text or 'end of input'!r}",
            self.text,
            token.position,
        )

    def event(self) -> Event:
        pairs = []
        while True:
            ident = self.expect(_IDENT)
            op_token = self.expect(_OP)
            if op_token.text not in ("=", "=="):
                raise ParseError(
                    "events use '=' pairs only", self.text, op_token.position
                )
            pairs.append((ident.text, self.value()))
            if self.tokens[self.pos].kind is _COMMA:
                self.pos += 1
                continue
            break
        self.expect(_END)
        return Event(pairs)

    def finish(self) -> None:
        self.expect(_END)


def parse_formula(text: str) -> Node:
    """Parse a boolean formula into its AST."""
    parser = _Parser(text)
    node = parser.formula()
    parser.finish()
    return node


def parse_subscriptions(text: str, sub_id: Any) -> List[Subscription]:
    """Parse a formula into DNF subscriptions.

    One subscription per disjunct; a single conjunction keeps *sub_id*
    verbatim, multiple disjuncts get ``{sub_id}#0``, ``{sub_id}#1``, …
    """
    disjuncts = parse_formula(text).dnf()
    if len(disjuncts) == 1:
        return [Subscription(sub_id, disjuncts[0])]
    return [
        Subscription(f"{sub_id}#{k}", preds) for k, preds in enumerate(disjuncts)
    ]


def parse_subscription(text: str, sub_id: Any) -> Subscription:
    """Parse a pure conjunction (raises if the formula needs DNF)."""
    subs = parse_subscriptions(text, sub_id)
    if len(subs) != 1:
        raise ParseError(
            f"formula expands to {len(subs)} conjunctions; "
            "use parse_subscriptions for or/not formulas"
        )
    return subs[0]


def parse_event(text: str) -> Event:
    """Parse ``attr = value, attr = value, …`` into an Event."""
    return _Parser(text).event()
