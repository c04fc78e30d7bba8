"""The lexer against the character-loop scanner it replaced.

``_oracle_scan`` below is that scanner, verbatim (it builds the same
``Token`` tuples).  On text drawn from the language's own alphabet
mixed with Unicode letters, digits, numerals and spaces, the one-regex
lexer must give the same tokens — kind, text, position, value and the
value's type — or a :class:`ParseError` with the same message at the
same position.  The one place they part is a character that
``str.isdigit`` accepts and ``int`` refuses (``²``, ``①``): the oracle
let ``int``'s bare ``ValueError`` out, the lexer raises ``ParseError``.
"""

import sys
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ParseError, ReproError
from repro.lang import Token, TokenKind, tokenize
from repro.system import PubSubBroker

_KEYWORDS = {
    "and": TokenKind.AND,
    "or": TokenKind.OR,
    "not": TokenKind.NOT,
    "in": TokenKind.IN,
    "between": TokenKind.BETWEEN,
}
_OPERATOR_STARTS = "<>=!"
_OPERATORS = {"<", "<=", "=", "==", "!=", ">=", ">"}


def _oracle_scan(text: str) -> Iterator[Token]:
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


def _outcome(scan, text):
    """``("ok", rows)`` or ``("error", type, message, position)``."""
    try:
        tokens = list(scan(text))
    except ParseError as exc:
        return ("error", ParseError, str(exc), exc.position)
    except ValueError as exc:
        return ("error", ValueError, str(exc), None)
    return ("ok", [(t.kind, t.text, t.position, t.value, type(t.value)) for t in tokens])


#: The language's alphabet, plus Unicode that splits ``isalpha`` /
#: ``isdigit`` / ``isdecimal`` / ``isnumeric`` / ``isspace`` apart:
#: letters (``é``, ``ß``, ``ǅ``, ``ª``), decimal digits (``١``, ``٣``, ``߀``),
#: digits that are not decimal (``²``, ``①``), numerals that are not digits
#: (``Ⅷ``, ``½``, ``〇``), spaces (``\xa0``, `` ``, ``　``,
#: ``\x1c``) and characters that start no token (``#``, ``$``, ``;``).
_ALPHABET = (
    "abcxyzANDorNotInBetween_.0123456789+-<>=!()\"', \t\n"
    "éßǅªİ١٣߀²①Ⅷ½〇\xa0 　\x1c#$;"
)
_PIECES = st.sampled_from(
    [
        "and", "or", "not", "in", "between", "AND", "Or", "x", "attr00", "a.b_c",
        "==", "<=", ">=", "!=", "=", "<", ">", "!",
        "1", "-7", "+3", "3.5", "1.", "1.2.3", "١٢", "a²", "Ⅷ", "x = ²",
        "'s t'", '"q"', "'", '"', " ", "\xa0", "(", ")", ",",
    ]
)  # fmt: skip
_TEXT = st.lists(st.one_of(st.text(alphabet=_ALPHABET, max_size=6), _PIECES), max_size=12).map(
    "".join
)


@settings(max_examples=400, deadline=None)
@given(_TEXT)
@example("(attr03 = 5 and attr07 <= 12) or not (a.b != 'x y' , c between -1.5 and +2)")
@example("x = ١٢ and é_ü.1 >= ٣.٥")
@example("a² = Ⅷ")
@example("x = ½")
@example("x　=\xa0'open")
@example("x ! 3")
@example("1²")
@example("   ")
@example("")
def test_lexer_matches_the_oracle(text):
    expected = _outcome(_oracle_scan, text)
    got = _outcome(tokenize, text)
    if expected[:2] == ("error", ValueError):
        # int() refused a digit the oracle let in (the ``²`` class).
        assert got[:2] == ("error", ParseError), (text, got)
    else:
        assert got == expected, text


class TestNonDecimalDigits:
    """A character ``str.isdigit`` accepts and ``int`` refuses starts no
    token: it is a ``ParseError`` at its position, not a bare
    ``ValueError``."""

    @pytest.mark.parametrize("digit", ["²", "³", "①", "⑨", "₃"])
    def test_refused_as_unexpected_character(self, digit):
        with pytest.raises(ParseError) as err:
            tokenize(f"x = {digit}")
        assert err.value.position == 4
        assert str(err.value).startswith(f"unexpected character {digit!r}")

    def test_after_a_decimal_digit(self):
        with pytest.raises(ParseError) as err:
            tokenize("x = 1²")
        assert err.value.position == 5

    def test_decimal_digits_of_any_script_still_read(self):
        token = tokenize("x = ١٢")[2]
        assert (token.kind, token.value, type(token.value)) == (TokenKind.NUMBER, 12, int)
        assert tokenize("x = -٣.٥")[2].value == -3.5

    def test_broker_formula_raises_a_repro_error(self):
        broker = PubSubBroker()
        with pytest.raises(ReproError):
            broker.subscribe_formula("x = ²", sub_id="f")
        assert len(broker.matcher) == 0
