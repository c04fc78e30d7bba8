"""The subscribe line is byte for byte the line ``json.dumps`` writes.

``_subscribe_line`` puts the most written record of a log together in
key order instead of encoding a dict.  Whatever the ids, values, ttl,
timestamp and formula id, the line must be
``json.dumps(record, sort_keys=True) + "\\n"`` for the record built here
as a dict — ``1`` and ``1.0`` apart, ``-0.0`` and ``NaN`` spelled as
the encoder spells them, non-ASCII text escaped — and a log compacted
by ``_write_folded`` (which writes survivors through the same builder)
must fold back to the same survivors.
"""

import io
import json
import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import Operator, Predicate, Subscription
from repro.core.errors import InvalidPredicateError
from repro.system.recovery import fold_log
from repro.system.wal import WalReader, _line, _subscribe_line, _write_folded

_TEXT = st.text(max_size=12)  # every code point: quotes, backslashes, controls, non-ASCII
_INTS = st.one_of(st.integers(-5, 5), st.integers(), st.sampled_from([2**53 + 1, 2**60, -(2**63)]))
_FLOATS = st.one_of(st.floats(), st.sampled_from([1.0, -0.0, 0.1, 1e16, 5e-324, math.nan]))
_VALUES = st.one_of(_INTS, _FLOATS, _TEXT)
_IDS = st.one_of(_TEXT, _INTS)


@st.composite
def _subscriptions(draw):
    predicates = []
    for _ in range(draw(st.integers(1, 4))):
        try:
            predicates.append(
                Predicate(
                    draw(st.text(min_size=1, max_size=8)),
                    draw(st.sampled_from(list(Operator))),
                    draw(_VALUES),
                )
            )
        except InvalidPredicateError:  # a string or NaN under a range operator
            continue
    assume(predicates)
    return Subscription(draw(_IDS), predicates)


def _record(at, sub, ttl, logical):
    record = {
        "type": "subscribe",
        "subscription": {
            "id": sub.id,
            "predicates": [[p.attribute, p.operator.value, p.value] for p in sub.predicates],
        },
        "ttl": ttl,
    }
    if at is not None:
        record["at"] = at
    if logical is not None:
        record["logical"] = logical
    return record


@settings(max_examples=300, deadline=None)
@given(
    at=st.one_of(st.none(), _FLOATS, _INTS),
    sub=_subscriptions(),
    ttl=st.one_of(st.none(), _INTS, _FLOATS),
    logical=st.one_of(st.none(), _TEXT, _INTS),
)
@example(
    at=1.0,
    sub=Subscription("é\"\\\x00 ", [Predicate("a", Operator.EQ, 1)]),
    ttl=3600,
    logical="f",
)
@example(at=None, sub=Subscription(7, [Predicate("a", Operator.EQ, 1.0)]), ttl=None, logical=None)
@example(
    at=-0.0,
    sub=Subscription(2**60, [Predicate("a", Operator.EQ, math.nan)]),
    ttl=0.5,
    logical=2**60,
)
def test_subscribe_line_is_the_dumps_line(at, sub, ttl, logical):
    expected = json.dumps(_record(at, sub, ttl, logical), sort_keys=True) + "\n"
    assert _subscribe_line(at, sub, ttl, logical) == expected


def test_int_and_float_constants_stay_apart():
    # Equal and hashed alike, so a cache keyed by predicate would merge them.
    assert Predicate("a", Operator.EQ, 1) == Predicate("a", Operator.EQ, 1.0)
    lines = [
        _subscribe_line(0.0, Subscription("s", [Predicate("a", Operator.EQ, v)]), None, None)
        for v in (1, 1.0, -0.0, 0.0)
    ]
    assert [json.loads(line)["subscription"]["predicates"][0][2] for line in lines] == [
        1, 1.0, -0.0, 0.0,
    ]  # fmt: skip
    assert [type(json.loads(line)["subscription"]["predicates"][0][2]) for line in lines] == [
        int, float, float, float,
    ]  # fmt: skip
    assert '-0.0]]' in lines[2]


def _log(lines):
    header = _line({"type": "repro-broker-wal", "version": 1, "clock": 0.0})
    return io.BytesIO((header + "".join(lines)).encode("ascii"))


@settings(max_examples=100, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.one_of(st.none(), st.floats(0, 1e6)),
            _subscriptions(),
            st.one_of(st.none(), st.integers(1, 10**6), st.floats(1e-3, 1e6)),
            st.one_of(st.none(), _TEXT, _INTS),
        ),
        max_size=8,
    )
)
def test_compaction_folds_back_to_the_same_survivors(entries):
    lines = [_subscribe_line(at, sub, ttl, logical) for at, sub, ttl, logical in entries]
    folded = fold_log(WalReader(_log(lines)))
    out = io.BytesIO()
    _write_folded(folded, out)
    out.seek(0)
    again = fold_log(WalReader(out))

    def survivors(log):
        # repr keeps 1 and 1.0 apart and makes NaN equal to itself.
        return [
            (sub.id, [(p.attribute, p.operator, repr(p.value)) for p in sub.predicates],
             logical, undated)
            for sub, _remaining, logical, undated in log.survivors
        ]  # fmt: skip

    assert survivors(again) == survivors(folded)
    for (_, before, _, _), (_, after, _, _) in zip(folded.survivors, again.survivors):
        # Re-stamped at the crash-time estimate: the same validity, up to
        # the rounding of (at + ttl) - estimate.
        assert (before is None) == (after is None)
        assert before is None or math.isclose(before, after, rel_tol=1e-9, abs_tol=1e-6)
