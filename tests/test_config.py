"""RunConfig validation and reading configs from YAML."""

import io
from datetime import datetime, timezone

import pytest

from hlpaths.config import RunConfig
from hlpaths.errors import ConfigError
from hlpaths.patterns import ALL_FEATURE_TYPES, FeatureType


def test_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.window == "1d"
    assert cfg.percentile == 90.0
    assert cfg.feature_types() == ALL_FEATURE_TYPES


def test_field_validation():
    with pytest.raises(ConfigError):
        RunConfig(window="soon")
    with pytest.raises(ConfigError):
        RunConfig(percentile=101)
    with pytest.raises(ConfigError):
        RunConfig(delay_percentile=-1)
    with pytest.raises(ConfigError):
        RunConfig(lam=1.2)
    with pytest.raises(ConfigError):
        RunConfig(max_len=0)
    with pytest.raises(ConfigError):
        RunConfig(top_segments=0)
    with pytest.raises(ConfigError):
        RunConfig(pair_population="everything")
    with pytest.raises(ConfigError):
        RunConfig(episode_condition="strict")
    with pytest.raises(ConfigError):
        RunConfig(attribute="cost")
    with pytest.raises(ConfigError):
        RunConfig(types=("enter", "exist"))
    with pytest.raises(ConfigError):
        RunConfig(throughput_bins=1)
    with pytest.raises(ConfigError):
        RunConfig(alpha=0.0)


def test_origin_parsed_up_front():
    assert RunConfig(origin="2024-01-01T06:00:00Z").origin_time() == datetime(
        2024, 1, 1, 6, tzinfo=timezone.utc
    )
    # naive means UTC, other offsets are converted
    assert RunConfig(origin="2024-01-01 06:00").origin_time() == datetime(
        2024, 1, 1, 6, tzinfo=timezone.utc
    )
    assert RunConfig(origin="2024-01-01T08:00:00+02:00").origin_time() == datetime(
        2024, 1, 1, 6, tzinfo=timezone.utc
    )
    assert RunConfig().origin_time() is None
    with pytest.raises(ConfigError, match="origin"):
        RunConfig(origin="garbage")
    with pytest.raises(ConfigError, match="origin"):
        RunConfig.from_yaml(io.StringIO("origin: garbage\n"))
    with pytest.raises(ConfigError, match="origin"):
        RunConfig.from_yaml(io.StringIO("origin: 2024-01-01\n"))  # a YAML date, not a string
    with pytest.raises(ConfigError, match="origin"):
        RunConfig().replace(origin="2024-13-01")


def test_types_subset():
    cfg = RunConfig(types=("batch", "delay"))
    assert cfg.feature_types() == (FeatureType.BATCH, FeatureType.DELAY)


def test_replace_revalidates():
    cfg = RunConfig()
    assert cfg.replace(percentile=95).percentile == 95
    assert cfg.replace(percentile=95) is not cfg
    with pytest.raises(ConfigError):
        cfg.replace(percentile=-5)


def test_from_dict_aliases_and_unknown_keys():
    cfg = RunConfig.from_dict({"lambda": 0.7, "blacklist": ["User_1"]})
    assert cfg.lam == 0.7
    assert cfg.blacklist == ("User_1",)
    # the python-side field name also works
    assert RunConfig.from_dict({"lam": 0.7}).lam == 0.7
    with pytest.raises(ConfigError, match="unknown"):
        RunConfig.from_dict({"lamda": 0.7})
    with pytest.raises(ConfigError, match="mapping"):
        RunConfig.from_dict(["percentile"])


def test_yaml_sets_every_field():
    text = (
        "window: 12h\n"
        "origin: '2024-01-01T00:00:00+00:00'\n"
        "lambda: 0.35\n"
        "blacklist: [sys, batchd]\n"
        "types:\n  - enter\n  - exit\n"
        "attribute: throughput\n"
        "throughput_bins: 3\n"
    )
    assert RunConfig.from_yaml(io.StringIO(text)) == RunConfig(
        window="12h",
        origin="2024-01-01T00:00:00+00:00",
        lam=0.35,
        blacklist=("sys", "batchd"),
        types=("enter", "exit"),
        attribute="throughput",
        throughput_bins=3,
    )


def test_yaml_path_form(tmp_path):
    target = tmp_path / "run.yaml"
    target.write_text("window: 6h\nlambda: 0.8\n", encoding="utf-8")
    assert RunConfig.from_yaml(str(target)) == RunConfig(window="6h", lam=0.8)


def test_yaml_partial_document():
    cfg = RunConfig.from_yaml(io.StringIO("percentile: 95\nwindow: 2d\n"))
    assert cfg.percentile == 95
    assert cfg.window == "2d"
    assert cfg.lam == 0.5  # untouched default


def test_yaml_syntax_error_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not valid YAML at line 1, column 12: expected ','"):
        RunConfig.from_yaml(io.StringIO("window: [1d"))
    target = tmp_path / "bad.yaml"
    target.write_text("percentile: 95\nwindow: 2d\n  lambda: 0.3\n")
    with pytest.raises(ConfigError, match="line 3, column 9"):
        RunConfig.from_yaml(str(target))
