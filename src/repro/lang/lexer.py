"""Tokenizer for the subscription/event surface language.

The language is small on purpose (the paper's subscriptions are
conjunctions, plus the DNF support mentioned in its conclusion):

* identifiers: a letter (any Unicode letter, ``str.isalpha``) or ``_``,
  then letters, digits (any ``str.isalnum``), ``_`` or ``.``;
* operators: ``< <= = == != >= >``
* values: integers and floats in decimal digits (any Unicode decimal
  digit, as ``int`` reads them: ``١٢`` is 12) with an optional sign,
  single/double-quoted strings (no escapes);
* keywords: ``and``, ``or``, ``not``, ``in``, ``between`` (case-insensitive)
* punctuation: ``( ) ,``
"""

from __future__ import annotations

import enum
import re
import sys
from typing import List, NamedTuple, NoReturn, Union

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


class Token(NamedTuple):
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
#: One token after optional white space, as ``(space, lexeme)``: every
#: match is one token, and a character that starts none is skipped by
#: the scan, so :func:`tokenize` checks that the matches tile the text.
#: ``\d`` is a decimal digit (what ``int`` reads) and ``\w`` is
#: ``str.isalnum`` or ``_``, so a word may start with a non-letter
#: (``²``, ``Ⅷ``): :func:`tokenize` refuses that start too.
_TOKEN = re.compile(
    r"""(\s*)(
        [+-]?\d+(?:\.\d*)?          # number
      | [^\W\d][\w.]*               # word: identifier or keyword
      | [<>!=]=|[<>=]                # operator
      | "[^"]*"|'[^']*'              # string
      | [(),]                        # punctuation
    )""",
    re.VERBOSE,
)
_SPACE = re.compile(r"\s*")

# Plain names for the kinds, here and in the parser: reading an enum
# member off its class costs several times a global lookup, once per token.
_IDENT, _NUMBER, _STRING, _OP = TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING, TokenKind.OP
_AND, _OR, _NOT, _IN, _BETWEEN = (
    TokenKind.AND, TokenKind.OR, TokenKind.NOT, TokenKind.IN, TokenKind.BETWEEN
)
_LPAREN, _RPAREN, _COMMA, _END = TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.COMMA, TokenKind.END

#: A lexeme's kind by its first character, for all but words and
#: numbers in non-ASCII digits.
_LEADS = {
    **dict.fromkeys("+-0123456789", _NUMBER),
    **dict.fromkeys("<>=!", _OP),
    **dict.fromkeys("\"'", _STRING),
    "(": _LPAREN,
    ")": _RPAREN,
    ",": _COMMA,
}

#: ``Token`` without the argument handling of its constructor.
_token = tuple.__new__


def tokenize(text: str) -> List[Token]:
    """Tokenize *text*; raises :class:`ParseError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    pos = 0
    for space, lexeme in _TOKEN.findall(text):
        pos += len(space)
        lead = lexeme[0]
        kind = _LEADS.get(lead)
        value: Union[int, float, str, None] = None
        if kind is None:  # a word, or a number in non-ASCII digits
            if lead.isalpha() or lead == "_":
                # Interned: every formula naming an attribute shares one
                # string, and dict lookups on it hit by identity.
                lexeme = sys.intern(lexeme)
                kind = _KEYWORDS.get(lexeme.lower())
                if kind is None:
                    kind, value = _IDENT, lexeme
            elif lead.isdecimal():
                kind = _NUMBER
            else:
                _refuse(text)
        if kind is _NUMBER:
            try:
                value = float(lexeme) if "." in lexeme else int(lexeme)
            except ValueError:  # an int literal past Python's str digit limit
                raise ParseError(
                    f"integer literal of {len(lexeme)} characters is past the digit limit",
                    text,
                    pos,
                ) from None
        elif kind is _STRING:
            value = lexeme[1:-1]
        append(_token(Token, (kind, lexeme, pos, value)))
        pos += len(lexeme)
    # The matches tile the text unless a character started no token: a
    # gap leaves *pos* short of the last match's end, and a lexeme never
    # ends in white space.
    if pos != len(text) and not text[pos:].isspace():
        _refuse(text)
    append(_token(Token, (_END, "", len(text), None)))
    return tokens


def _refuse(text: str) -> NoReturn:
    """Raise the error for the first character of *text* that starts no
    token (the slow path: a second scan, with positions)."""
    end = 0
    for m in _TOKEN.finditer(text):
        lead = m.group(2)[0]
        if m.start() != end or not (
            lead in _LEADS or lead.isalpha() or lead == "_" or lead.isdecimal()
        ):
            break
        end = m.end()
    i = _SPACE.match(text, end).end()
    c = text[i]
    if c in "\"'":
        raise ParseError("unterminated string", text, i)
    if c == "!":
        raise ParseError(f"bad operator {c!r}", text, i)
    raise ParseError(f"unexpected character {c!r}", text, i)
