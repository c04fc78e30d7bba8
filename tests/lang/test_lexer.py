"""Tokenizer for the surface language."""

import pytest

from repro.core import ParseError
from repro.lang import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


class TestTokens:
    def test_simple_predicate(self):
        toks = tokenize("price <= 400")
        assert [t.kind for t in toks] == [
            TokenKind.IDENT, TokenKind.OP, TokenKind.NUMBER, TokenKind.END,
        ]
        assert toks[1].text == "<=" and toks[2].value == 400

    def test_all_operators(self):
        for sym in ["<", "<=", "=", "==", "!=", ">=", ">"]:
            toks = tokenize(f"x {sym} 1")
            assert toks[1].kind is TokenKind.OP and toks[1].text == sym

    def test_keywords_case_insensitive(self):
        assert kinds("x = 1 AND y = 2")[3] is TokenKind.AND
        assert kinds("x = 1 or y = 2")[3] is TokenKind.OR
        assert kinds("NOT x = 1")[0] is TokenKind.NOT

    def test_strings_both_quotes(self):
        assert tokenize("x = 'a b'")[2].value == "a b"
        assert tokenize('x = "a b"')[2].value == "a b"

    def test_numbers(self):
        assert tokenize("x = 3.5")[2].value == 3.5
        assert tokenize("x = -7")[2].value == -7
        assert isinstance(tokenize("x = 10")[2].value, int)

    def test_identifier_with_dots_and_underscores(self):
        toks = tokenize("user.age_years >= 21")
        assert toks[0].value == "user.age_years"

    def test_parens_and_comma(self):
        assert kinds("( x = 1 ), y = 2")[:1] == [TokenKind.LPAREN]
        assert TokenKind.COMMA in kinds("a = 1, b = 2")

    def test_positions_recorded(self):
        toks = tokenize("xx >= 10")
        assert toks[0].position == 0
        assert toks[1].position == 3
        assert toks[2].position == 6


class TestLexErrors:
    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("x = 'oops")

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("x = #")

    def test_lone_bang(self):
        with pytest.raises(ParseError):
            tokenize("x ! 3")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            tokenize("abc = $")
        assert err.value.position == 6

    def test_an_int_literal_past_the_digit_limit_is_a_parse_error(self):
        """``int()`` refuses more than 4 300 digits with a bare
        ``ValueError``; the lexer names the literal's position."""
        with pytest.raises(ParseError, match="past the digit limit") as err:
            tokenize("x = " + "9" * 5000)
        assert err.value.position == 4
