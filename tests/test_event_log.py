"""Ingestion: parsers, repair, trace access, segment derivation."""

import gc
import gzip
import io
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from conftest import T0, ev, mk_log
from hlpaths import event_log as event_log_module
from hlpaths.errors import ConfigError, LogParseError
from hlpaths.event_log import (
    CsvSchema,
    EventLog,
    Segment,
    derive_steps,
    merge_lifecycle,
    parse_csv,
    parse_timestamp,
    parse_xes,
    select_top_segments,
    write_csv,
)

CSV = """case,activity,timestamp,resource
c1,submit,2024-03-01T08:00:00Z,alice
c1,review,2024-03-01T09:30:00Z,bob
c2,submit,2024-03-01T10:00:00+02:00,alice
c2,review,2024-03-02 11:00:00,carol
"""


def test_parse_csv_basic():
    log = parse_csv(io.StringIO(CSV))
    assert len(log) == 4
    assert log.cases == ("c1", "c2")
    assert log.activity_sequence("c1") == ("submit", "review")
    # +02:00 normalized to UTC
    c2 = log.trace("c2")
    assert c2[0].time == datetime(2024, 3, 1, 8, 0, tzinfo=timezone.utc)
    assert c2[0].time.tzinfo is not None
    # naive timestamps are read as UTC
    assert c2[1].time == datetime(2024, 3, 2, 11, 0, tzinfo=timezone.utc)


def test_parse_csv_missing_column_is_config_error():
    with pytest.raises(ConfigError, match="missing required column"):
        parse_csv(io.StringIO("case,activity\nc1,a\n"))


def test_parse_csv_bad_timestamp_reports_line():
    bad = "case,activity,timestamp,resource\nc1,a,2024-03-01T08:00:00Z,x\nc1,b,not-a-date,x\n"
    with pytest.raises(LogParseError, match="line 3"):
        parse_csv(io.StringIO(bad))
    # blank lines still count: the number is the line in the file
    with pytest.raises(LogParseError, match="line 5"):
        parse_csv(io.StringIO(bad.replace("\n", "\n\n", 2)))


def test_parse_csv_row_with_wrong_field_count_reports_line():
    head = "case,activity,timestamp,resource\nc1,a,2024-03-01T08:00:00Z,x\n"
    for row in ("c1,b\n", "c1,b,2024-03-01T09:00:00Z,x,surplus\n"):
        with pytest.raises(LogParseError, match="line 3: row does not have"):
            parse_csv(io.StringIO(head + row))


def test_parse_csv_ignores_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + CSV.encode())
    for source in (path, path.read_bytes(), io.StringIO(path.read_text("utf-8"))):
        log = parse_csv(source)
        assert log.cases == ("c1", "c2")


def test_parse_csv_rejects_empty_case_id():
    raw = "case,activity,timestamp,resource\nc1,a,2024-03-01T08:00:00Z,x\n ,b,2024-03-01T09:00:00Z,x\n"
    with pytest.raises(LogParseError, match="line 3: row has an empty case id"):
        parse_csv(io.StringIO(raw))


def test_parse_csv_rejects_invalid_utf8():
    raw = CSV.encode().replace(b"carol", b"car\xffol")
    with pytest.raises(LogParseError, match="not valid UTF-8"):
        parse_csv(raw)


def test_parse_header_only_is_empty_log_error():
    with pytest.raises(LogParseError, match="log has no events"):
        parse_csv(io.StringIO("case,activity,timestamp,resource\n"))
    with pytest.raises(LogParseError, match="log has no events"):
        parse_xes(b"<log></log>")


def test_parse_csv_custom_schema_and_extra_columns():
    raw = "id,task,when,who,amount\nk1,a,2024-03-01T08:00:00Z,r1,50\nk1,b,2024-03-01T09:00:00Z,r1,\n"
    schema = CsvSchema(case="id", activity="task", timestamp="when", resource="who")
    log = parse_csv(io.StringIO(raw), schema)
    # the extra column is read past, not kept
    assert [tuple(e) for e in log.trace("k1")] == [
        ("e0", "k1", "a", "r1", datetime(2024, 3, 1, 8, tzinfo=timezone.utc)),
        ("e1", "k1", "b", "r1", datetime(2024, 3, 1, 9, tzinfo=timezone.utc)),
    ]
    out = io.StringIO()
    write_csv(log, out, schema)
    assert out.getvalue().splitlines()[0] == "id,task,when,who"
    # a row must still carry every header field, the ignored ones included
    with pytest.raises(LogParseError, match="header's 5 fields"):
        parse_csv(io.StringIO(raw + "k2,a,2024-03-01T08:00:00Z,r1\n"), schema)


def test_parse_csv_no_resource_column():
    raw = "case,activity,timestamp\nc1,a,2024-03-01T08:00:00Z\n"
    log = parse_csv(io.StringIO(raw), CsvSchema(resource=None))
    assert log.events[0].resource == ""


def test_duplicate_timestamps_offset_in_input_order():
    raw = (
        "case,activity,timestamp,resource\n"
        "c1,a,2024-03-01T08:00:00Z,x\n"
        "c1,b,2024-03-01T08:00:00Z,x\n"
        "c1,c,2024-03-01T08:00:00Z,x\n"
    )
    with pytest.warns(UserWarning, match="duplicate-timestamp"):
        log = parse_csv(io.StringIO(raw))
    times = [e.time for e in log.trace("c1")]
    assert log.activity_sequence("c1") == ("a", "b", "c")
    assert times[1] - times[0] == timedelta(milliseconds=1)
    assert times[2] - times[1] == timedelta(milliseconds=1)


def test_duplicate_timestamp_offsets_cascade_per_case():
    # t, t, t+0.5 ms in each of two interleaved cases: the second event is
    # pushed to t+1 ms, which in turn pushes the third to t+2 ms
    raw = (
        "case,activity,timestamp,resource\n"
        "c1,a,2024-03-01T08:00:00Z,x\n"
        "c2,a,2024-03-01T08:00:00Z,x\n"
        "c1,b,2024-03-01T08:00:00Z,x\n"
        "c2,b,2024-03-01T08:00:00Z,x\n"
        "c2,c,2024-03-01T08:00:00.000500Z,x\n"
        "c1,c,2024-03-01T08:00:00.000500Z,x\n"
    )
    with pytest.warns(UserWarning, match="offset 4 duplicate-timestamp"):
        log = parse_csv(io.StringIO(raw))
    t = datetime(2024, 3, 1, 8, tzinfo=timezone.utc)
    ms = timedelta(milliseconds=1)
    for case in ("c1", "c2"):
        assert log.activity_sequence(case) == ("a", "b", "c")
        assert [e.time for e in log.trace(case)] == [t, t + ms, t + 2 * ms]


def test_parse_timestamp_variants():
    utc = timezone.utc
    assert parse_timestamp("2024-03-01T08:00:00Z") == datetime(2024, 3, 1, 8, tzinfo=utc)
    assert parse_timestamp("2024-03-01 08:00:00.250") == datetime(
        2024, 3, 1, 8, 0, 0, 250000, tzinfo=utc
    )
    assert parse_timestamp("2024-03-01T10:00:00+02:00") == datetime(
        2024, 3, 1, 8, tzinfo=utc
    )
    with pytest.raises(LogParseError):
        parse_timestamp("yesterday")


def test_merge_lifecycle_modes():
    assert merge_lifecycle("check", "complete") == "check|COMPLETE"
    assert merge_lifecycle("check", "") == "check"


def test_lifecycle_column_merged():
    raw = (
        "case,activity,timestamp,resource,state\n"
        "c1,check,2024-03-01T08:00:00Z,x,start\n"
        "c1,check,2024-03-01T09:00:00Z,x,complete\n"
    )
    log = parse_csv(io.StringIO(raw), CsvSchema(lifecycle="state"))
    assert log.activity_sequence("c1") == ("check|START", "check|COMPLETE")


XES = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
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
    <event>
      <string key="concept:name" value="lost"/>
    </event>
  </trace>
</log>
"""


def test_parse_xes():
    # with the XES namespace and without any
    for text in (XES, XES.replace(' xmlns="http://www.xes-standard.org/"', "")):
        with pytest.warns(UserWarning, match="without a timestamp"):
            log = parse_xes(text.encode())
        assert log.cases == ("c1",)
        assert log.activity_sequence("c1") == ("submit|COMPLETE", "review")
        assert log.trace("c1")[0].resource == "alice"
        assert log.trace("c1")[1].resource == ""


def test_parse_xes_gzip(tmp_path):
    path = tmp_path / "LOG.XES.GZ"
    with gzip.open(path, "wb") as fp:
        fp.write(XES.encode())
    with pytest.warns(UserWarning):
        log = parse_xes(path)
    assert len(log) == 2


def test_parse_leaves_caller_streams_open():
    csv_stream, xes_stream = io.BytesIO(CSV.encode()), io.BytesIO(XES.encode())
    parse_csv(csv_stream)
    with pytest.warns(UserWarning):
        parse_xes(xes_stream)
    gc.collect()
    assert not csv_stream.closed and not xes_stream.closed


def test_parse_truncated_gzip(tmp_path):
    path = tmp_path / "cut.csv.gz"
    path.write_bytes(gzip.compress(CSV.encode())[:-12])
    with pytest.raises(LogParseError, match="not a readable gzip file"):
        parse_csv(path)


def test_parse_xes_trace_without_case_name():
    unnamed = XES.replace('<string key="concept:name" value="c1"/>\n', "", 1)
    second = unnamed[unnamed.index("  <trace>"):unnamed.index("</log>")]
    two_traces = XES.replace("</log>", second + "</log>")
    with pytest.raises(LogParseError, match="trace 2 has no concept:name"):
        parse_xes(two_traces.encode())


def test_parse_xes_malformed_timestamp_names_trace():
    second = XES[XES.index("  <trace>"):XES.index("</log>")].replace(
        '"c1"', '"c2"').replace("2024-03-01T09:00:00.000+00:00", "nope")
    with pytest.raises(LogParseError, match="trace 2: malformed timestamp 'nope'"):
        parse_xes(XES.replace("</log>", second + "</log>").encode())


def test_parse_xes_skips_entities_an_external_dtd_may_declare():
    with_dtd = XES.replace("\n<log ", '\n<!DOCTYPE log SYSTEM "xes.dtd">\n<log ')
    with pytest.warns(UserWarning, match="without a timestamp"):
        log = parse_xes(with_dtd.replace("<event>", "<event>&note;", 1).encode())
    assert log.activity_sequence("c1") == ("submit|COMPLETE", "review")
    with pytest.raises(LogParseError, match="not valid XML: undefined entity"):
        parse_xes(XES.replace("<event>", "<event>&note;", 1).encode())


def test_parse_xes_rejects_garbage():
    with pytest.raises(LogParseError, match="not valid XML"):
        parse_xes(b"<log><trace>")


def test_event_log_rejects_duplicate_ids():
    events = [ev("e1", "c1", "a", minutes=0), ev("e1", "c1", "b", minutes=5)]
    with pytest.raises(LogParseError, match="duplicate event id"):
        EventLog(events)


def test_event_log_offsets_unordered_trace():
    # direct construction gets the same repair as the parsers
    events = [ev("e2", "c1", "b", minutes=5), ev("e1", "c1", "a", minutes=5),
              ev("e3", "c2", "a", minutes=5)]
    with pytest.warns(UserWarning, match="offset 1 duplicate-timestamp"):
        log = EventLog(events)
    assert [e.id for e in log.trace("c1")] == ["e2", "e1"]
    assert log.trace("c1")[1].time == T0 + timedelta(minutes=5, milliseconds=1)
    assert log.max_time == log.trace("c1")[1].time
    assert log.trace("c2")[0].time == T0 + timedelta(minutes=5)


def test_event_log_rejects_empty_input():
    with pytest.raises(LogParseError, match="log has no events"):
        EventLog([])


def test_event_log_sorts_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(event_log_module, "sorted", counted, raising=False)
    parse_csv(io.StringIO(CSV))
    assert len(calls) == 1


def test_min_max_time_do_not_read_events():
    log = mk_log([("c1", "a", "r1", 30), ("c2", "b", "r1", 0), ("c2", "c", "r1", 90)])
    del log.events
    assert log.min_time == T0
    assert log.max_time == T0 + timedelta(minutes=90)


def test_derive_steps_counts():
    log = mk_log([
        ("c1", "a", "r1", 0), ("c1", "b", "r1", 10), ("c1", "c", "r1", 20),
        ("c2", "a", "r1", 0), ("c2", "b", "r1", 15),
    ])
    steps, counts = derive_steps(log)
    assert len(steps) == 3  # (k-1) per case
    assert counts == Counter({Segment("a", "b"): 2, Segment("b", "c"): 1})
    assert steps[0].segment == Segment("a", "b")
    assert steps[0].case == "c1"


def test_select_top_segments_tie_break_and_warning():
    counts = Counter({
        Segment("a", "b"): 5, Segment("b", "c"): 3, Segment("b", "a"): 3,
    })
    assert select_top_segments(counts, 1) == {Segment("a", "b")}
    # equal counts: lexicographic order decides
    assert select_top_segments(counts, 2) == {Segment("a", "b"), Segment("b", "a")}
    with pytest.warns(UserWarning, match="only has"):
        got = select_top_segments(counts, 10)
    assert got == set(counts)
    with pytest.raises(ConfigError):
        select_top_segments(counts, 0)


def test_csv_round_trip(tmp_path):
    log = mk_log([("c1", "a", "r1", 0), ("c1", "b", "r2", 10)])
    path = tmp_path / "log.csv"
    write_csv(log, path)
    back = parse_csv(path)
    assert back.activity_sequence("c1") == ("a", "b")
    assert [e.time for e in back.events] == [e.time for e in log.events]


def test_min_max_time():
    log = mk_log([("c1", "a", "r1", 30), ("c2", "b", "r1", 0), ("c2", "c", "r1", 90)])
    assert log.min_time == T0
    assert log.max_time == T0 + timedelta(minutes=90)
