"""Fuzzing of every input boundary: whatever the bytes, a reader either
returns or raises a typed error (:class:`LogParseError` or
:class:`ConfigError`), never anything else.

Each reader gets arbitrary input, byte-level mutations of a valid file and
structured input whose values are arbitrary. The example counts are capped
so that the whole file runs in a few seconds.
"""

import csv
import io
import json
import warnings
from datetime import datetime, timezone
from xml.sax.saxutils import quoteattr

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hlpaths.errors import ConfigError, LogParseError
from hlpaths.event_log import parse_csv, parse_xes
from hlpaths.io import read_episodes, read_hles

fuzz = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

CSV = (
    "case,activity,timestamp,resource\n"
    "c1,submit,2024-03-01T08:00:00Z,alice\n"
    "c1,review,2024-03-01T09:30:00Z,bob\n"
    "c2,submit,2024-03-01T10:00:00+02:00,alice\n"
    "c2,review,2024-03-02 11:00:00,\n"
)

XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="c1"/>
    <event>
      <string key="concept:name" value="submit"/>
      <string key="org:resource" value="alice"/>
      <string key="lifecycle:transition" value="complete"/>
      <date key="time:timestamp" value="2024-03-01T08:00:00.000+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="review"/>
      <date key="time:timestamp" value="2024-03-01T09:00:00.000+00:00"/>
    </event>
  </trace>
</log>
"""

HLE = {
    "id": 0, "type": "batch", "segment": ["a", "b"], "theta": [1, 2], "value": 2.0,
    "n_steps": 2, "cases": ["c1", "c2"],
    "start_spread": ["2024-03-01T08:00:00+00:00", "2024-03-01T09:00:00+00:00"],
    "end_spread": ["2024-03-02T08:00:00+00:00", "2024-03-02T09:00:00+00:00"],
}
HLES = [HLE, {**HLE, "id": 1, "type": "exit", "segment": ["b", "c"], "theta": 2}]
EPISODE = {"ids": [0, 1], "common_cases": ["c1"], "union_cases": ["c1", "c2"]}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=30),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8,
)
edits = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from("drio"), st.characters()),
    min_size=1, max_size=6,
)
timestamps = st.one_of(
    st.datetimes(timezones=st.just(timezone.utc)).map(datetime.isoformat),
    st.datetimes().map(datetime.isoformat),
    st.text(max_size=30),
)


def mutate(text: str, changes) -> str:
    """Apply (position, op, char) edits to ``text``: delete, replace or
    insert ``char``, or ("o") insert a quote."""
    for pos, op, char in changes:
        i = pos % (len(text) + 1)
        if op == "d":
            text = text[:i] + text[i + 1:]
        elif op == "r":
            text = text[:i] + char + text[i + 1:]
        elif op == "i":
            text = text[:i] + char + text[i:]
        else:
            text = text[:i] + '"' + text[i:]
    return text


def typed_or_result(read, data):
    """Run ``read(data)``; only a typed error may come out of it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            read(data)
        except (LogParseError, ConfigError):
            pass


def read_hles_text(text):
    return list(read_hles(io.StringIO(text)))


def read_episodes_text(text):
    return read_episodes(io.StringIO(text), read_hles_text("".join(
        json.dumps(h) + "\n" for h in HLES)))


# --- event logs ---------------------------------------------------------------

@fuzz
@given(data=st.binary(max_size=400))
@example(data=b"case,activity,timestamp\n\xff,a,2024-03-01\n")
def test_parse_csv_arbitrary_bytes(data):
    typed_or_result(parse_csv, data)


@fuzz
@given(changes=edits)
def test_parse_csv_mutated(changes):
    typed_or_result(parse_csv, mutate(CSV, changes).encode("utf-8", "surrogatepass"))


@fuzz
@given(rows=st.lists(
    st.tuples(st.text(max_size=6), st.text(max_size=6), timestamps, st.text(max_size=6)),
    min_size=1, max_size=8,
))
@example(rows=[("c1", "a", "0001-01-01T00:00:00+01:00", "r1")])
@example(rows=[("c1", "a", datetime.max.isoformat(), "r1")] * 2)
def test_parse_csv_arbitrary_fields(rows):
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["case", "activity", "timestamp", "resource"])
    writer.writerows(rows)
    typed_or_result(parse_csv, io.StringIO(text.getvalue()))


@fuzz
@given(data=st.binary(max_size=400))
@example(data=b'<?xml version="1.0" encoding="nope"?><log/>')
def test_parse_xes_arbitrary_bytes(data):
    typed_or_result(parse_xes, data)


@fuzz
@given(changes=edits)
def test_parse_xes_mutated(changes):
    typed_or_result(parse_xes, mutate(XES, changes).encode("utf-8", "surrogatepass"))


@fuzz
@given(traces=st.lists(
    st.tuples(st.text(max_size=6), st.lists(st.dictionaries(
        st.sampled_from(["concept:name", "org:resource", "lifecycle:transition",
                         "time:timestamp", "other"]),
        st.text(max_size=8) | timestamps, max_size=5,
    ), max_size=4)),
    max_size=4,
))
def test_parse_xes_arbitrary_values(traces):
    def attr(key, value):
        return f"<string key={quoteattr(key)} value={quoteattr(value)}/>"

    body = "".join(
        "<trace>" + attr("concept:name", case)
        + "".join("<event>" + "".join(attr(k, v) for k, v in fields.items()) + "</event>"
                  for fields in events)
        + "</trace>"
        for case, events in traces
    )
    # XML cannot carry every character: those the encoder refuses are no input
    try:
        data = f"<log>{body}</log>".encode("utf-8")
    except UnicodeEncodeError:
        return
    typed_or_result(parse_xes, data)


# --- hles.jsonl and episodes.jsonl ---------------------------------------------

@fuzz
@given(text=st.text(max_size=300))
def test_read_hles_arbitrary_text(text):
    typed_or_result(read_hles_text, text)


@fuzz
@given(changes=edits)
def test_read_hles_mutated(changes):
    typed_or_result(read_hles_text, mutate(json.dumps(HLE) + "\n", changes))


@fuzz
@given(key=st.sampled_from(sorted(HLE)), value=json_values)
@example(key="type", value=None)
@example(key="id", value=float("inf"))
def test_read_hles_arbitrary_values(key, value):
    typed_or_result(read_hles_text, json.dumps({**HLE, key: value}) + "\n")


@fuzz
@given(text=st.text(max_size=300))
def test_read_episodes_arbitrary_text(text):
    typed_or_result(read_episodes_text, text)


@fuzz
@given(changes=edits)
def test_read_episodes_mutated(changes):
    typed_or_result(read_episodes_text, mutate(json.dumps(EPISODE) + "\n", changes))


@fuzz
@given(key=st.sampled_from(sorted(EPISODE)), value=json_values)
def test_read_episodes_arbitrary_values(key, value):
    typed_or_result(read_episodes_text, json.dumps({**EPISODE, key: value}) + "\n")
