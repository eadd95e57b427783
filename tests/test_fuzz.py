"""Fuzzing of every input boundary: whatever the bytes, a reader either
returns or raises a typed error (:class:`LogParseError` or
:class:`ConfigError`), never anything else. The XES reader must moreover
agree with the element-tree reader of the oracles, on mutated and on
generated documents.

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
from oracles import o_parse_xes

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


def xes_outcome(read, data):
    """What ``read(data)`` gives: the events' (id, case, activity,
    resource, time) or the typed error, and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            log = read(data)
            result = [(e.id, e.case, e.activity, e.resource, e.time) for e in log.events]
        except LogParseError as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


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
@example(data=b'<?xml version="1.0" encoding="shift_jis"?><log/>')
def test_parse_xes_arbitrary_bytes(data):
    typed_or_result(parse_xes, data)


@fuzz
@given(changes=edits)
@example(changes=[(3, "r", "!")])
@example(changes=[(40, "i", "&")])
def test_parse_xes_mutated(changes):
    data = mutate(XES, changes).encode("utf-8", "surrogatepass")
    assert xes_outcome(parse_xes, data) == xes_outcome(o_parse_xes, data)


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


XES_KEYS = st.sampled_from(
    ["concept:name", "org:resource", "lifecycle:transition", "time:timestamp", "other", None])
# mostly well-formed, so that many documents give a log
XES_STAMPS = st.sampled_from([
    "2024-03-01T08:00:00.000+00:00", "2024-03-01T08:00:00+01:00", "2024-03-02 09:30:00",
    "2024-03-01T08:00:00Z", "2024-03-03T10:00:00.5-02:00", "nope", "", None,
])
XES_VALUES = st.sampled_from(["", " a ", "b", "complete", " start ", "r1", None])
XES_NAMES = st.sampled_from(["c1", "c2", "c3", "c1", "c2", "", None])


@st.composite
def xes_attribute(draw, nested=True):
    """A typed attribute element, its value possibly written before its key,
    possibly carrying meta-attributes."""
    attrs = []
    key = draw(XES_KEYS)
    value = draw(XES_STAMPS if key == "time:timestamp" else XES_VALUES)
    if key is not None:
        attrs.append(f"key={quoteattr(key)}")
    if value is not None:
        attrs.append(f"value={quoteattr(value)}")
    if draw(st.booleans()):
        attrs.reverse()
    tag = draw(st.sampled_from(["string", "date", "int"]))
    meta = draw(st.lists(xes_attribute(nested=False), max_size=2)) if nested else []
    return ("attr", tag, " ".join(attrs), meta)


@st.composite
def xes_event(draw, traces=True):
    children = draw(st.lists(
        xes_attribute() | xes_trace(events=False) if traces else xes_attribute(), max_size=4))
    stamp = draw(XES_STAMPS)
    if stamp is not None:
        pos = draw(st.integers(0, len(children)))
        children.insert(pos, ("attr", "date", f'key="time:timestamp" value="{stamp}"', []))
    return ("event", children)


@st.composite
def xes_trace(draw, events=True):
    """A trace whose name, if any, sits anywhere among its children; with
    ``events`` its events can hold a nested trace."""
    children = draw(st.lists(xes_event(traces=events) | xes_attribute(), max_size=4))
    name = draw(XES_NAMES)
    if name is not None:
        pos = draw(st.integers(0, len(children)))
        children.insert(pos, ("attr", "string", f'key="concept:name" value="{name}"', []))
    return ("trace", children)


def render_xes(node, prefix):
    kind = node[0]
    if kind == "attr":
        _, tag, attrs, meta = node
        inner = "".join(render_xes(m, prefix) for m in meta)
        return f"<{prefix}{tag} {attrs}>{inner}</{prefix}{tag}>"
    return (f"<{prefix}{kind}>" + "".join(render_xes(c, prefix) for c in node[1])
            + f"</{prefix}{kind}>")


@st.composite
def xes_documents(draw):
    """A log of traces and stray events, without a namespace, in the
    default one or under a prefix."""
    prefix, declaration = draw(st.sampled_from([
        ("", ""),
        ("", ' xmlns="http://www.xes-standard.org/"'),
        ("x:", ' xmlns:x="http://www.xes-standard.org/"'),
    ]))
    children = draw(st.lists(xes_trace() | xes_event(traces=False), max_size=4))
    body = "".join(render_xes(c, prefix) for c in children)
    return f"<{prefix}log{declaration}>{body}</{prefix}log>".encode()


NESTED = """<log><trace><string key="concept:name" value="outer"/>
<event><date key="time:timestamp" value="2024-03-01T08:00:00Z"/>
  <trace><event><string key="concept:name" value="a"/>
    <date key="time:timestamp" value="2024-03-01T09:00:00Z"/></event>
    <string key="concept:name" value="inner"/></trace></event>
</trace></log>"""


@fuzz
@given(data=xes_documents())
@example(data=XES.replace("<log ", "<x:log xmlns:x='http://www.xes-standard.org/' ")
         .replace("</log>", "</x:log>").replace("<trace>", "<x:trace>")
         .replace("</trace>", "</x:trace>").replace("<event>", "<x:event>")
         .replace("</event>", "</x:event>").replace("<string ", "<x:string ")
         .replace("<date ", "<x:date ").encode())  # a namespace prefix
@example(data=XES.replace('value="submit"/>', 'value="submit"><date key="time:timestamp" '
                          'value="nope"/></string>').encode())  # meta-attributes
@example(data=XES.replace('key="org:resource" value="alice"',
                          'value=" alice " key="org:resource"').encode())  # value before key
@example(data=XES.replace('<string key="concept:name" value="c1"/>\n', "", 1)
         .replace("</trace>", '<string key="concept:name" value="c1"/></trace>')
         .encode())  # the trace name after its events
@example(data=XES.replace("<trace>", "<event><date key='time:timestamp' "
                          "value='2024-01-01T00:00:00Z'/></event><trace>").encode())
@example(data=XES.replace('<string key="concept:name" value="c1"/>', "").encode())
@example(data=XES.replace('<date key="time:timestamp" value="2024-03-01T09:00:00.000+00:00"/>',
                          "").encode())  # an event without a timestamp
@example(data=XES.replace(  # only the first string keyed concept:name names a trace
    '<string key="concept:name" value="c1"/>', '<date key="concept:name" value="d"/>'
    '<string key="concept:name" value="c1"/><string key="concept:name" value="c9"/>', 1
).encode())
@example(data=NESTED.encode())  # a trace inside an event is read, numbered first
@example(data=NESTED.replace('value="inner"', 'value=""').encode())
def test_parse_xes_matches_element_tree_oracle(data):
    assert xes_outcome(parse_xes, data) == xes_outcome(o_parse_xes, data)


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
@example(key="cases", value="c1")
@example(key="cases", value=[1, None])
@example(key="start_spread", value=["2024-03-01T08:00:00", "2024-03-01T09:00:00"])
@example(key="type", value="exit")  # a window pair on a single-window type
@example(key="theta", value=1)  # one window on the pair type batch
@example(key="id", value=3.7)
@example(key="id", value="7")
@example(key="id", value=True)
@example(key="value", value="nan")
@example(key="value", value=float("inf"))
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
