"""Core value types: operators, predicates, subscriptions and events.

These follow the paper's data model (Section 1.1):

* a **predicate** is a triple ``(attribute, relop, value)`` with
  ``relop`` one of ``<, <=, =, !=, >=, >``;
* a **subscription** is a conjunction of predicates;
* an **event** is a set of ``(attribute, value)`` pairs with no duplicate
  attribute.

An event pair ``(a', v')`` matches a predicate ``(a, relop, v)`` iff
``a == a'`` and ``v' relop v`` (note the operand order: the *event* value
is on the left).  An event satisfies a subscription iff every predicate is
matched by some pair of the event.

All three types are immutable and hashable so they can key dictionaries
(the predicate registry relies on this for global de-duplication).
"""

from __future__ import annotations

import enum
import operator as _op
import weakref
from typing import Any, Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple, Union

from repro.core.errors import (
    InvalidEventError,
    InvalidPredicateError,
    InvalidSubscriptionError,
    id_repr,
)

#: Values an attribute may take.  The paper uses positive-integer domains;
#: we additionally allow floats and strings (strings only with = / !=).
Value = Union[int, float, str]


class Operator(enum.Enum):
    """Relational comparison operator of a predicate.

    The enum value is the surface syntax used by :mod:`repro.lang`.
    """

    LT = "<"
    LE = "<="
    EQ = "="
    NE = "!="
    GE = ">="
    GT = ">"

    @property
    def is_equality(self) -> bool:
        """True only for ``=`` (the operator class used by access predicates)."""
        return self is Operator.EQ

    @property
    def is_range(self) -> bool:
        """True for the four ordered comparisons ``<, <=, >=, >``."""
        return self in _RANGE_OPS

    @property
    def python(self) -> Callable[[Any, Any], bool]:
        """The Python callable computing ``event_value op predicate_value``."""
        return _PY_OPS[self]

    def negate(self) -> "Operator":
        """Return the complement operator (``<`` ↔ ``>=``, ``=`` ↔ ``!=``)."""
        return _NEGATIONS[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        """Parse a surface symbol; accepts ``==`` as an alias for ``=``
        (and a member as itself)."""
        try:
            return _BY_SYMBOL[symbol]
        except (KeyError, TypeError):  # unknown, or unhashable
            raise InvalidPredicateError(f"unknown operator {symbol!r}") from None


_RANGE_OPS = frozenset({Operator.LT, Operator.LE, Operator.GE, Operator.GT})

_BY_SYMBOL: Dict[Any, Operator] = {
    **{op.value: op for op in Operator},
    **{op: op for op in Operator},
    "==": Operator.EQ,
}

_PY_OPS: Dict[Operator, Callable[[Any, Any], bool]] = {
    Operator.LT: _op.lt,
    Operator.LE: _op.le,
    Operator.EQ: _op.eq,
    Operator.NE: _op.ne,
    Operator.GE: _op.ge,
    Operator.GT: _op.gt,
}

_NEGATIONS: Dict[Operator, Operator] = {
    Operator.LT: Operator.GE,
    Operator.LE: Operator.GT,
    Operator.EQ: Operator.NE,
    Operator.NE: Operator.EQ,
    Operator.GE: Operator.LT,
    Operator.GT: Operator.LE,
}


def _check_value(value: Value, op: Operator, context: str) -> None:
    """Validate a predicate value (bools are already ints)."""
    if isinstance(value, (int, float)):
        if op.is_range and value != value:
            # An ordered compare against NaN is always false, and a NaN
            # key would corrupt the sorted ordered-index structures.
            raise InvalidPredicateError(
                f"{context}: NaN cannot be a range-operator constant"
            )
        return
    if isinstance(value, str):
        if op.is_range:
            raise InvalidPredicateError(
                f"{context}: string values only support = and !=, got {op.value!r}"
            )
        return
    raise InvalidPredicateError(
        f"{context}: unsupported value type {type(value).__name__}"
    )


class _Table(dict):
    """The canonical predicates of one ``(attribute, operator, value
    type)``, by value; ``key`` is where it is filed in ``_CANONICAL``."""

    __slots__ = ("key",)


class _Canonical(weakref.ref):
    """A table entry: a weak reference to the canonical predicate that
    remembers where it is filed, so its callback can unfile it."""

    __slots__ = ("table", "value")


_CANONICAL: Dict[Tuple[str, Operator, type], _Table] = {}


def _unfile(entry: _Canonical) -> None:
    """Weak-reference callback: a canonical predicate died, so drop its
    entry, and its table once that is empty."""
    table = entry.table
    if table.get(entry.value) is entry:
        table.pop(entry.value, None)
        if not table and _CANONICAL.get(table.key) is table:
            _CANONICAL.pop(table.key, None)


class Predicate:
    """An immutable ``(attribute, operator, value)`` triple.

    Predicates compare and hash by value, so structurally identical
    predicates coming from different subscriptions collapse to one entry
    in the predicate registry — the basis of the paper's shared
    predicate bit vector.

    Construction returns the process-wide canonical instance: equal
    arguments give the *same* object for as long as anything holds it
    (a weak table; pickle goes through the constructor too).  The value's
    type is part of the identity (``1`` and ``1.0`` are two objects);
    NaN (unequal to itself) and zero floats (``-0.0 == 0.0`` would lose
    the sign) are never shared.  Two threads missing at once may each
    mint an object; equality and hashing never look at identity, so a
    race only costs bytes.
    """

    __slots__ = ("attribute", "operator", "value", "_hash", "__weakref__")

    def __new__(cls, attribute: str, operator: Operator, value: Value) -> "Predicate":
        if type(value) is bool:
            # bool is an int subclass; normalize so True == 1 dedups cleanly.
            value = int(value)
        key = (attribute, operator, type(value))
        try:
            canonical = _CANONICAL[key][value]()
        except (KeyError, TypeError):
            canonical = None
        if canonical is not None:
            return canonical
        if not isinstance(attribute, str) or not attribute:
            raise InvalidPredicateError("predicate attribute must be a non-empty string")
        if not isinstance(operator, Operator):
            return cls(attribute, Operator.from_symbol(str(operator)), value)
        _check_value(value, operator, f"predicate on {attribute!r}")
        self = object.__new__(cls)
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "operator", operator)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash((attribute, operator, value)))
        if value == value and (value != 0 or type(value) is int):
            table = _CANONICAL.get(key)
            if table is None:
                table = _CANONICAL[key] = _Table()
                table.key = key
            entry = _Canonical(self, _unfile)
            entry.table, entry.value = table, value
            table[value] = entry
        return self

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Predicate is immutable")

    def __reduce__(self):
        # The immutability guard breaks pickle's default slot restore, so
        # rebuild through the constructor (revalidating on the way in —
        # the process-pool workers deserialize untrusted-ish pipe data),
        # which also hands back this process's canonical instance.
        return (Predicate, (self.attribute, self.operator, self.value))

    def matches(self, event_value: Value) -> bool:
        """Does ``event_value relop self.value`` hold?

        Mixed string/number comparisons are defined to be false for
        ordered operators and behave as plain (in)equality otherwise,
        mirroring how a typed attribute schema would reject them.
        """
        sv = self.value
        if isinstance(event_value, str) != isinstance(sv, str):
            if self.operator is Operator.EQ:
                return False
            if self.operator is Operator.NE:
                return True
            return False
        try:
            return self.operator.python(event_value, sv)
        except TypeError:
            return False

    def covers(self, other: "Predicate") -> bool:
        """True if every value satisfying *other* also satisfies *self*.

        Only defined for same-attribute numeric predicates; used by the
        subscription simplifier.  Conservative: returns False when unsure.
        """
        if self.attribute != other.attribute:
            return False
        if self == other:
            return True
        if isinstance(self.value, str) or isinstance(other.value, str):
            if other.operator is Operator.EQ:
                return self.matches(other.value)
            return False
        so, oo = self.operator, other.operator
        sv, ov = self.value, other.value
        if oo is Operator.EQ:
            return self.matches(ov)
        if so is Operator.NE and oo in (Operator.LT, Operator.GT, Operator.LE, Operator.GE):
            # x != sv is implied by a range excluding sv.
            if oo is Operator.LT:
                return ov <= sv
            if oo is Operator.LE:
                return ov < sv
            if oo is Operator.GT:
                return ov >= sv
            return ov > sv
        upper = {Operator.LT, Operator.LE}
        lower = {Operator.GT, Operator.GE}
        if so in upper and oo in upper:
            if sv > ov:
                return True
            if sv == ov:
                return not (so is Operator.LT and oo is Operator.LE)
            return False
        if so in lower and oo in lower:
            if sv < ov:
                return True
            if sv == ov:
                return not (so is Operator.GT and oo is Operator.GE)
            return False
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.attribute == other.attribute
            and self.operator is other.operator
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Predicate({self.attribute!r} {self.operator.value} {id_repr(self.value)})"

    def as_tuple(self) -> Tuple[str, str, Value]:
        """A plain ``(attribute, symbol, value)`` tuple (for serialization)."""
        # ``_value_`` is what the ``value`` property reads, without the
        # enum descriptor's Python-level call (the WAL calls this per line).
        return (self.attribute, self.operator._value_, self.value)


def eq(attribute: str, value: Value) -> Predicate:
    """Shorthand for an equality predicate."""
    return Predicate(attribute, Operator.EQ, value)


def ne(attribute: str, value: Value) -> Predicate:
    """Shorthand for a not-equal predicate."""
    return Predicate(attribute, Operator.NE, value)


def lt(attribute: str, value: Value) -> Predicate:
    """Shorthand for a less-than predicate."""
    return Predicate(attribute, Operator.LT, value)


def le(attribute: str, value: Value) -> Predicate:
    """Shorthand for a less-or-equal predicate."""
    return Predicate(attribute, Operator.LE, value)


def ge(attribute: str, value: Value) -> Predicate:
    """Shorthand for a greater-or-equal predicate."""
    return Predicate(attribute, Operator.GE, value)


def gt(attribute: str, value: Value) -> Predicate:
    """Shorthand for a greater-than predicate."""
    return Predicate(attribute, Operator.GT, value)


class Subscription:
    """An immutable conjunction of predicates with an application id.

    Duplicate predicates are collapsed.  Following the paper's notation,
    :meth:`equality_predicates` is ``P(s)`` and
    :attr:`equality_attributes` is ``A(s)``.
    """

    __slots__ = ("id", "predicates")

    def __init__(self, sub_id: Any, predicates: Iterable[Predicate]) -> None:
        preds = []
        seen = set()
        for p in predicates:
            if not isinstance(p, Predicate):
                raise InvalidSubscriptionError(
                    f"subscription {id_repr(sub_id)}: expected Predicate, "
                    f"got {type(p).__name__}"
                )
            if p not in seen:
                seen.add(p)
                preds.append(p)
        if not preds:
            raise InvalidSubscriptionError(
                f"subscription {id_repr(sub_id)} must contain at least one predicate"
            )
        object.__setattr__(self, "id", sub_id)
        object.__setattr__(self, "predicates", tuple(preds))

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Subscription is immutable")

    def __reduce__(self):
        # See Predicate.__reduce__: constructor-based pickling keeps the
        # slots-plus-immutability combination transportable across
        # process boundaries (the shard-per-process executor relies on it).
        return (Subscription, (self.id, self.predicates))

    @property
    def size(self) -> int:
        """Number of (distinct) predicates — the paper's cluster size key."""
        return len(self.predicates)

    def equality_predicates(self) -> Tuple[Predicate, ...]:
        """``P(s)``: the equality predicates of this subscription."""
        return tuple(p for p in self.predicates if p.operator.is_equality)

    @property
    def equality_attributes(self) -> frozenset:
        """``A(s)``: attributes carrying an equality predicate."""
        return frozenset(p.attribute for p in self.predicates if p.operator.is_equality)

    @property
    def attributes(self) -> frozenset:
        """All attributes referenced by any predicate."""
        return frozenset(p.attribute for p in self.predicates)

    def predicates_on(self, attribute: str) -> Tuple[Predicate, ...]:
        """All predicates over one attribute."""
        return tuple(p for p in self.predicates if p.attribute == attribute)

    def is_satisfied_by(self, event: "Event") -> bool:
        """Direct (index-free) satisfaction test; the correctness oracle."""
        position, values = event.shape.position, event.values
        for p in self.predicates:
            pos = position(p.attribute)
            if pos is None or not p.matches(values[pos]):
                return False
        return True

    def is_satisfiable(self) -> bool:
        """Cheap contradiction check over same-attribute numeric predicates.

        Detects e.g. ``x = 3 and x = 4`` or ``x < 2 and x > 5``.  Sound but
        not complete for ``!=`` against finite domains (unknowable here).
        """
        by_attr: Dict[str, list] = {}
        for p in self.predicates:
            by_attr.setdefault(p.attribute, []).append(p)
        for preds in by_attr.values():
            eqs = [p for p in preds if p.operator is Operator.EQ]
            if len({p.value for p in eqs}) > 1:
                return False
            if eqs:
                v = eqs[0].value
                if not all(q.matches(v) for q in preds):
                    return False
                continue
            lo, lo_strict = None, False
            hi, hi_strict = None, False
            nes = set()
            for p in preds:
                if isinstance(p.value, str):
                    continue
                if p.operator is Operator.GT:
                    if lo is None or p.value >= lo:
                        lo, lo_strict = p.value, True
                elif p.operator is Operator.GE:
                    if lo is None or p.value > lo:
                        lo, lo_strict = p.value, False
                elif p.operator is Operator.LT:
                    if hi is None or p.value <= hi:
                        hi, hi_strict = p.value, True
                elif p.operator is Operator.LE:
                    if hi is None or p.value < hi:
                        hi, hi_strict = p.value, False
                elif p.operator is Operator.NE:
                    nes.add(p.value)
            if lo is not None and hi is not None:
                if lo > hi:
                    return False
                if lo == hi:
                    if lo_strict or hi_strict:
                        return False
                    if lo in nes:
                        return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subscription):
            return NotImplemented
        return self.id == other.id and set(self.predicates) == set(other.predicates)

    def __hash__(self) -> int:
        # Equality ignores predicate order, so the hash must too; equal
        # subscriptions share their id.
        return hash(self.id)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)

    def __repr__(self) -> str:
        body = " and ".join(
            f"{p.attribute} {p.operator.value} {id_repr(p.value)}" for p in self.predicates
        )
        return f"Subscription({id_repr(self.id)}: {body})"


def _check_attributes(attrs: Iterable[Any]) -> None:
    """Raise the first attribute error in *attrs* (event order)."""
    seen = set()
    for attr in attrs:
        if not isinstance(attr, str) or not attr:
            raise InvalidEventError("event attribute must be a non-empty string")
        if attr in seen:
            raise InvalidEventError(f"duplicate attribute {attr!r} in event")
        seen.add(attr)


class EventShape:
    """The attribute sequence of an event, shared by every event that
    carries the same attributes in the same order.

    An :class:`Event` is its shape plus a tuple of values in the shape's
    order, so a batch of like events holds one copy of its attribute
    names and one name → position index, and a consumer resolves an
    attribute to a position once per shape instead of once per event.
    Shapes are hash-consed in a weak table keyed by the attribute tuple:
    one lives as long as some event holds it.  Two threads missing at
    once may each mint a shape; events compare by content, so a race
    only costs bytes.  Immutable, as every event of the shape shares it.
    """

    __slots__ = ("attrs", "_index", "__weakref__")

    def __init__(self, attrs: Tuple[str, ...]) -> None:
        object.__setattr__(self, "attrs", attrs)
        object.__setattr__(self, "_index", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("EventShape is immutable")

    def position(self, attribute: str) -> Optional[int]:
        """Where *attribute* sits in this shape's value tuples, or None."""
        index = self._index
        if index is None:
            # Built on first use: an event that is only iterated (encoded
            # into columns, serialized) never pays for it.
            index = {attr: i for i, attr in enumerate(self.attrs)}
            object.__setattr__(self, "_index", index)
        return index.get(attribute)

    def positions(self, attributes: Iterable[str]) -> Optional[Tuple[int, ...]]:
        """The position of each of *attributes*, or None when one is absent."""
        out = []
        for attribute in attributes:
            pos = self.position(attribute)
            if pos is None:
                return None
            out.append(pos)
        return tuple(out)


_SHAPES: "weakref.WeakValueDictionary[Tuple[str, ...], EventShape]" = (
    weakref.WeakValueDictionary()
)


def _shape(attrs: Tuple[str, ...]) -> EventShape:
    """The canonical shape of *attrs*, validated and filed on a miss."""
    try:
        shape = _SHAPES.get(attrs)
    except TypeError:  # an unhashable attribute: reported just below
        shape = None
    if shape is None:
        _check_attributes(attrs)
        shape = _SHAPES[attrs] = EventShape(attrs)
    return shape


class Event:
    """An immutable set of attribute/value pairs (no duplicate attribute).

    Stored as a shared :class:`EventShape` (the attribute order) plus a
    ``values`` tuple in that order.  Equality and hashing are by content
    and ignore the order; iteration follows it.
    """

    __slots__ = ("shape", "values")

    def __init__(self, pairs: Union[Mapping[str, Value], Iterable[Tuple[str, Value]]]) -> None:
        attrs = []
        values = []
        for attr, value in pairs.items() if isinstance(pairs, Mapping) else pairs:
            kind = type(value)
            if kind is not int and kind is not float and kind is not str:
                if isinstance(value, bool):
                    value = int(value)
                elif not isinstance(value, (int, float, str)):
                    _check_attributes(attrs + [attr])
                    raise InvalidEventError(
                        f"event value for {attr!r} has unsupported type {kind.__name__}"
                    )
            attrs.append(attr)
            values.append(value)
        if not attrs:
            raise InvalidEventError("event must contain at least one pair")
        object.__setattr__(self, "shape", _shape(tuple(attrs)))
        object.__setattr__(self, "values", tuple(values))

    def __setattr__(self, name: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Event is immutable")

    def __reduce__(self):
        # See Predicate.__reduce__.
        return (Event, (self.pairs,))

    @property
    def pairs(self) -> Dict[str, Value]:
        """A new ``{attribute: value}`` dict (changing it leaves the event alone)."""
        return dict(zip(self.shape.attrs, self.values))

    @property
    def schema(self) -> frozenset:
        """The set of attributes present in the event."""
        return frozenset(self.shape.attrs)

    def get(self, attribute: str, default: Optional[Value] = None) -> Optional[Value]:
        """Value of *attribute*, or *default* when absent."""
        pos = self.shape.position(attribute)
        return default if pos is None else self.values[pos]

    def has(self, attribute: str) -> bool:
        """Is *attribute* present?"""
        return self.shape.position(attribute) is not None

    def items(self) -> Iterator[Tuple[str, Value]]:
        """Iterate over ``(attribute, value)`` pairs."""
        return zip(self.shape.attrs, self.values)

    def __contains__(self, attribute: str) -> bool:
        return self.shape.position(attribute) is not None

    def __getitem__(self, attribute: str) -> Value:
        pos = self.shape.position(attribute)
        if pos is None:
            raise KeyError(attribute)
        return self.values[pos]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        if self.shape is other.shape:
            return self.values == other.values
        return len(self.values) == len(other.values) and self.pairs == other.pairs

    def __hash__(self) -> int:
        # Not cached: a slot would cost every event 8 bytes plus its int,
        # and nothing on the match path hashes events.
        return hash(frozenset(self.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{a}={id_repr(v)}" for a, v in sorted(self.items()))
        return f"Event({body})"
