"""Tokenizer for the subscription/event surface language.

The language is small on purpose (the paper's subscriptions are
conjunctions, plus the DNF support mentioned in its conclusion):

* identifiers: ``[A-Za-z_][A-Za-z0-9_.]*``
* operators: ``< <= = == != >= >``
* values: integers, floats, single/double-quoted strings
* keywords: ``and``, ``or``, ``not``, ``in``, ``between`` (case-insensitive)
* punctuation: ``( ) ,``
"""

from __future__ import annotations

import dataclasses
import enum
import sys
from typing import Iterator, List, Union

from repro.core.errors import ParseError


class TokenKind(enum.Enum):
    """Lexical category of a token."""

    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    AND = "and"
    OR = "or"
    NOT = "not"
    IN = "in"
    BETWEEN = "between"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    END = "end"


@dataclasses.dataclass(frozen=True)
class Token:
    """One lexeme with its source position (for diagnostics)."""

    kind: TokenKind
    text: str
    position: int
    value: Union[int, float, str, None] = None


_KEYWORDS = {
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
    "in": TokenKind.IN,
    "between": TokenKind.BETWEEN,
}
_OPERATOR_STARTS = "<>=!"
_OPERATORS = {"<", "<=", "=", "==", "!=", ">=", ">"}


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; raises :class:`ParseError` on bad input."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            yield Token(TokenKind.LPAREN, c, i)
            i += 1
        elif c == ")":
            yield Token(TokenKind.RPAREN, c, i)
            i += 1
        elif c == ",":
            yield Token(TokenKind.COMMA, c, i)
            i += 1
        elif c in _OPERATOR_STARTS:
            two = text[i : i + 2]
            if two in _OPERATORS:
                yield Token(TokenKind.OP, two, i)
                i += 2
            elif c in _OPERATORS:
                yield Token(TokenKind.OP, c, i)
                i += 1
            else:
                raise ParseError(f"bad operator {c!r}", text, i)
        elif c in "\"'":
            j = text.find(c, i + 1)
            if j < 0:
                raise ParseError("unterminated string", text, i)
            yield Token(TokenKind.STRING, text[i : j + 1], i, value=text[i + 1 : j])
            i = j + 1
        elif c.isdigit() or (c in "+-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            raw = text[i:j]
            yield Token(
                TokenKind.NUMBER, raw, i, value=float(raw) if seen_dot else int(raw)
            )
            i = j
        elif c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            # Interned: every formula naming an attribute shares one
            # string, and dict lookups on it hit by identity.
            word = sys.intern(text[i:j])
            kind = _KEYWORDS.get(word.lower())
            if kind is not None:
                yield Token(kind, word, i)
            else:
                yield Token(TokenKind.IDENT, word, i, value=word)
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", text, i)
    yield Token(TokenKind.END, "", n)
