"""Command-line flow: every subcommand in-process, staged file handoffs."""

import argparse
import csv
import gzip
import json

import pytest

from hlpaths.cli import build_config, main
from hlpaths.config import RunConfig
from test_event_log import XES


def ns(**kw):
    return argparse.Namespace(**kw)


def read_csv(path):
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


@pytest.fixture(scope="module")
def staged(tmp_path_factory):
    """generate -> detect -> link shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    log = root / "log.csv"
    truth = root / "truth.json"
    assert main(["generate", "--seed", "3", "--out", str(log), "--truth", str(truth)]) == 0
    det = root / "det"
    assert main([
        "detect", "--input", str(log), "--out", str(det),
        "--percentile", "90", "--success-activity", "approved",
    ]) == 0
    lnk = root / "lnk"
    assert main(["link", "--hles", str(det / "hles.jsonl"), "--out", str(lnk)]) == 0
    return root, log, truth, det, lnk


def test_generate_outputs(staged):
    _, log, truth, _, _ = staged
    rows = read_csv(log)
    assert {"case", "activity", "resource", "timestamp"} <= set(rows[0])
    blob = json.loads(truth.read_text())
    assert blob["seed"] == 3
    assert len(blob["injections"]) == 2
    assert set(blob["outcomes"]) == {r["case"] for r in rows}


def test_detect_outputs(staged):
    _, _, _, det, _ = staged
    assert (det / "hles.jsonl").exists()
    summary = read_csv(det / "summary.csv")
    assert {"type", "from", "to", "hles", "threshold", "delay_threshold"} == set(summary[0])
    assert any(int(r["hles"]) > 0 for r in summary)
    with open(det / "hles.jsonl") as fp:
        hles = [json.loads(l) for l in fp if l.strip()]
    assert hles and hles[0]["id"] == 0
    assert {h["type"] for h in hles} <= {
        "enter", "exit", "workload", "handover", "batch", "delay"}


def test_link_outputs(staged):
    _, _, _, _, lnk = staged
    with open(lnk / "episodes.jsonl") as fp:
        episodes = [json.loads(l) for l in fp if l.strip()]
    assert episodes
    paths = read_csv(lnk / "paths.csv")
    assert {"path", "length", "episodes"} == set(paths[0])
    # ranked by frequency: counts never increase
    counts = [int(r["episodes"]) for r in paths]
    assert counts == sorted(counts, reverse=True)


def test_correlate(staged, tmp_path):
    _, log, _, det, lnk = staged
    out = tmp_path / "corr"
    rc = main([
        "correlate", "--input", str(log), "--hles", str(det / "hles.jsonl"),
        "--episodes", str(lnk / "episodes.jsonl"), "--out", str(out),
        "--success-activity", "approved",
    ])
    assert rc == 0
    rows = read_csv(out / "paths.csv")
    assert {"path", "length", "episodes", "participating", "non_participating",
            "chi2", "dof", "p", "q", "significant", "note"} == set(rows[0])
    assert any(r["significant"] == "True" for r in rows)
    assert all(r["note"] == "" or r["chi2"] == "" or "low expected" in r["note"] for r in rows)


def test_correlate_throughput_attribute(staged, tmp_path):
    _, log, _, det, lnk = staged
    out = tmp_path / "corr_t"
    rc = main([
        "correlate", "--input", str(log), "--hles", str(det / "hles.jsonl"),
        "--episodes", str(lnk / "episodes.jsonl"), "--out", str(out),
        "--attribute", "throughput", "--bins", "3",
    ])
    assert rc == 0
    assert (out / "paths.csv").exists()


def test_report_runs_whole_pipeline(staged, tmp_path):
    _, log, _, _, _ = staged
    out = tmp_path / "rep"
    rc = main([
        "report", "--input", str(log), "--out", str(out),
        "--success-activity", "approved", "--max-len", "3",
    ])
    assert rc == 0
    for name in ("hles.jsonl", "episodes.jsonl", "paths.csv", "summary.csv"):
        assert (out / name).exists(), name
    measures = {r["measure"]: r["value"] for r in read_csv(out / "summary.csv")}
    assert int(measures["events"]) > 0
    assert int(measures["windows"]) > 0
    assert int(measures["hles_total"]) > 0
    assert int(measures["paths"]) >= int(measures["paths_significant"])


def test_report_files_equal_the_staged_ones(staged, tmp_path):
    _, log, _, det, lnk = staged
    flags = ["--input", str(log), "--percentile", "90", "--success-activity", "approved"]
    assert main(["report", *flags, "--out", str(tmp_path / "rep")]) == 0
    assert main([
        "correlate", *flags, "--hles", str(det / "hles.jsonl"),
        "--episodes", str(lnk / "episodes.jsonl"), "--out", str(tmp_path / "cor"),
    ]) == 0
    rep = tmp_path / "rep"
    for staged_file, name in ((det, "hles.jsonl"), (lnk, "episodes.jsonl"),
                              (tmp_path / "cor", "paths.csv")):
        assert (rep / name).read_bytes() == (staged_file / name).read_bytes(), name


def test_exit_codes(tmp_path, staged, capsys):
    _, log, _, det, _ = staged
    # unusable flag value -> config error -> 2
    assert main(["detect", "--input", str(log), "--out", str(tmp_path),
                 "--percentile", "250"]) == 2
    assert main(["detect", "--input", str(log), "--out", str(tmp_path),
                 "--window", "fortnight"]) == 2
    # a bad origin is refused before the log is read -> 2, not 1
    assert main(["detect", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path), "--origin", "garbage"]) == 2
    # missing input -> 1
    assert main(["detect", "--input", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path)]) == 1
    # ".xes" inside the name of a CSV file does not pick the XES parser
    xes_csv = tmp_path / "log.xes.csv"
    assert main(["generate", "--seed", "3", "--out", str(xes_csv)]) == 0
    assert main(["detect", "--input", str(xes_csv), "--out", str(tmp_path)]) == 0
    # ".gz" in any case is gunzipped, for CSV and XES alike
    gz_csv = tmp_path / "LOG.CSV.GZ"
    gz_csv.write_bytes(gzip.compress(log.read_bytes()))
    assert main(["detect", "--input", str(gz_csv), "--out", str(tmp_path)]) == 0
    gz_xes = tmp_path / "LOAN.XES.GZ"
    gz_xes.write_bytes(gzip.compress(XES.encode()))
    with pytest.warns(UserWarning, match="without a timestamp"):
        assert main(["detect", "--input", str(gz_xes), "--out", str(tmp_path)]) == 0
    # header not matching the schema is a configuration problem -> 2
    bad = tmp_path / "bad.csv"
    bad.write_text("just,some,noise\n1,2,3\n")
    assert main(["detect", "--input", str(bad), "--out", str(tmp_path)]) == 2
    # garbage timestamps are a data problem -> 1
    mangled = tmp_path / "mangled.csv"
    mangled.write_text("case,activity,resource,timestamp\nc1,a,r1,not-a-time\n")
    assert main(["detect", "--input", str(mangled), "--out", str(tmp_path)]) == 1
    # a config file that is not valid YAML -> 2, naming where it breaks
    bad_yaml = tmp_path / "bad.yaml"
    bad_yaml.write_text("window: [1d")
    assert main(["detect", "--input", str(log), "--out", str(tmp_path),
                 "--config", str(bad_yaml)]) == 2
    assert "not valid YAML at line 1, column 12" in capsys.readouterr().err
    # episodes referencing unknown event ids -> 1
    orphan = tmp_path / "orphan.jsonl"
    orphan.write_text('{"ids": [999], "common_cases": [], "union_cases": []}\n')
    assert main([
        "correlate", "--input", str(log), "--hles", str(det / "hles.jsonl"),
        "--episodes", str(orphan), "--out", str(tmp_path),
        "--success-activity", "approved",
    ]) == 1


@pytest.mark.parametrize("body, message", [
    ("c1,a\n", "line 2: row does not have"),
    ("", "log has no events"),
])
def test_report_rejects_malformed_csv(tmp_path, capsys, body, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("case,activity,timestamp,resource\n" + body)
    assert main(["report", "--input", str(bad), "--out", str(tmp_path / "out"),
                 "--success-activity", "a"]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_link_rejects_repeated_event_id(staged, tmp_path, capsys):
    _, _, _, det, _ = staged
    first = (det / "hles.jsonl").read_text().splitlines()[0]
    doubled = tmp_path / "hles.jsonl"
    doubled.write_text(first + "\n" + first + "\n")
    assert main(["link", "--hles", str(doubled), "--out", str(tmp_path / "out")]) == 1
    assert "error: duplicate high-level event ids" in capsys.readouterr().err


def _drop(key):
    return lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != key})


def _set(key, value):
    return lambda line: json.dumps({**json.loads(line), key: value})


HLE_DEFECTS = {
    "json": (lambda line: line.replace(",", "", 1), "not valid JSON"),
    "missing-key": (_drop("theta"), "high-level event lacks 'theta'"),
    "reversed-spread": (
        lambda line: json.dumps({**json.loads(line), "start_spread": [
            "2024-01-02T00:00:00+00:00", "2024-01-01T00:00:00+00:00"]}),
        "malformed high-level event: a spread starts after it ends",
    ),
}


def _with_defect_on_line_2(source, target, defect):
    lines = source.read_text().splitlines()
    lines[1] = defect(lines[1])
    target.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("defect, message", HLE_DEFECTS.values(), ids=HLE_DEFECTS)
def test_link_and_correlate_reject_malformed_hles(staged, tmp_path, capsys, defect, message):
    _, log, _, det, lnk = staged
    hles = tmp_path / "hles.jsonl"
    _with_defect_on_line_2(det / "hles.jsonl", hles, defect)
    assert main(["link", "--hles", str(hles), "--out", str(tmp_path / "out")]) == 1
    assert f"error: line 2: {message}" in capsys.readouterr().err
    assert main([
        "correlate", "--input", str(log), "--hles", str(hles),
        "--episodes", str(lnk / "episodes.jsonl"), "--out", str(tmp_path / "out"),
        "--success-activity", "approved",
    ]) == 1
    assert f"error: line 2: {message}" in capsys.readouterr().err


EPISODE_DEFECTS = {
    "json": (lambda line: line.replace(",", "", 1), "not valid JSON"),
    "missing-key": (_drop("union_cases"), "episode lacks 'union_cases'"),
    "unknown-id": (_set("ids", [999]), "episode references unknown high-level event 999"),
    "empty-ids": (_set("ids", []), "episode ids must be a non-empty list"),
    # line 2 links event 0 (check>decide) to 2 (decide>notify); backwards
    # the two do not chain
    "unchained": (_set("ids", [2, 0]), "episode does not chain: high-level event 2 ends at 'notify', 0 starts at 'check'"),
    "repeated-id": (_set("ids", [0, 0]), "episode repeats high-level event 0"),
    "string-cases": (_set("union_cases", "abc"),
                     "episode union_cases must be a list of case names"),
    "null-case": (_set("common_cases", [1, None]),
                  "episode common_cases must be a list of case names"),
}


@pytest.mark.parametrize("defect, message", EPISODE_DEFECTS.values(), ids=EPISODE_DEFECTS)
def test_correlate_rejects_malformed_episodes(staged, tmp_path, capsys, defect, message):
    _, log, _, det, lnk = staged
    episodes = tmp_path / "episodes.jsonl"
    _with_defect_on_line_2(lnk / "episodes.jsonl", episodes, defect)
    assert main([
        "correlate", "--input", str(log), "--hles", str(det / "hles.jsonl"),
        "--episodes", str(episodes), "--out", str(tmp_path / "out"),
        "--success-activity", "approved",
    ]) == 1
    assert f"error: line 2: {message}" in capsys.readouterr().err


def test_build_config_precedence(tmp_path):
    cfg_file = tmp_path / "run.yaml"
    with open(cfg_file, "w") as fp:
        RunConfig(percentile=95, lam=0.7, window="2d").to_yaml(fp)
    args = ns(config=str(cfg_file), percentile=80.0, lam=None, window=None,
              blacklist=["u1", "u2"], types="enter,exit")
    cfg = build_config(args)
    assert cfg.percentile == 80.0  # flag beats file
    assert cfg.lam == 0.7          # file beats default
    assert cfg.window == "2d"
    assert cfg.blacklist == ("u1", "u2")
    assert cfg.types == ("enter", "exit")

    assert build_config(ns()) == RunConfig()
