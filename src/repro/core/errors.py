"""Exception hierarchy for the repro publish/subscribe library.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch one base class.  The hierarchy is
shallow by design: one class per *kind* of misuse, each carrying enough
context in its message to act on.
"""

from __future__ import annotations

import sys
from typing import Any

#: An int of at most this many bits has a str form under any digit
#: limit Python allows (the lowest is ``str_digits_check_threshold``
#: digits, and a digit takes more than 3 bits).
_PRINTABLE_BITS = 3 * sys.int_info.str_digits_check_threshold


def id_repr(sub_id: Any) -> str:
    """*sub_id* as ``repr`` shows it — or, for an int past Python's str
    digit limit (which has no ``repr``) or an id holding one, by its type
    and size, so a message naming the id can always be built."""
    try:
        return repr(sub_id)
    except ValueError:
        size = f" of {sub_id.bit_length()} bits" if isinstance(sub_id, int) else ""
        return f"<{type(sub_id).__name__}{size}>"


def past_digit_limit(value: Any) -> bool:
    """Is *value* an int past Python's str digit limit?  It has no
    decimal form, so no JSON line can hold it."""
    if not isinstance(value, int) or value.bit_length() <= _PRINTABLE_BITS:
        return False
    try:
        int.__repr__(value)
    except ValueError:
        return True
    return False


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class InvalidPredicateError(ReproError, ValueError):
    """A predicate is malformed (bad operator, empty attribute, bad value)."""


class InvalidSubscriptionError(ReproError, ValueError):
    """A subscription is malformed (no predicates, contradictory input)."""


class InvalidEventError(ReproError, ValueError):
    """An event is malformed (duplicate attribute, empty, bad value type)."""


class _SubscriptionIdError(ReproError, KeyError):
    """Carries the offending subscription id as its one argument, shown
    by :func:`id_repr`, so the error always prints."""

    def __str__(self) -> str:
        try:
            return super().__str__()
        except ValueError:  # an int past the digit limit, or an id holding one
            return id_repr(self.args[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class DuplicateSubscriptionError(_SubscriptionIdError):
    """A subscription id was inserted twice into the same matcher/broker."""


class UnknownSubscriptionError(_SubscriptionIdError):
    """A subscription id was removed/queried but never inserted."""


class InvalidWorkloadError(ReproError, ValueError):
    """A workload specification violates the parameter constraints (Table 1)."""


class ClusteringError(ReproError, RuntimeError):
    """Internal clustering invariant violated (a bug if ever raised)."""


class ExpiredError(ReproError, ValueError):
    """An operation referenced an already-expired event or subscription."""


class ParseError(ReproError, ValueError):
    """The subscription/event language parser rejected its input.

    Carries the offending position to support caret diagnostics.
    """

    def __init__(self, message: str, text: str = "", position: int = -1) -> None:
        self.text = text
        self.position = position
        if text and position >= 0:
            caret = " " * position + "^"
            message = f"{message}\n  {text}\n  {caret}"
        super().__init__(message)
