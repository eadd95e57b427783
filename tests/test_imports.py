"""Commands start on the standard library: numpy loads only to generate a
log, PyYAML only to read a config file, and scipy never. XES is read with
expat alone, without the element tree.

Each check runs in a fresh interpreter with ``PYTHONPATH=src``, so modules
the test session already imported do not hide a top-level import.
"""

import os
import subprocess
import sys
from pathlib import Path

from hlpaths.cli import main

ROOT = Path(__file__).resolve().parents[1]
THIRD_PARTY = ("numpy", "scipy", "yaml")


def _loaded_after(code, cwd, modules=THIRD_PARTY):
    """Those of ``modules`` loaded once ``code`` has run."""
    code += f"\nimport sys\nprint(*[m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_importing_the_cli_loads_no_third_party_module(tmp_path):
    assert _loaded_after("import hlpaths, hlpaths.cli", tmp_path) == []


def test_reading_xes_loads_expat_not_the_element_tree(tmp_path):
    loaded = _loaded_after(
        "import hlpaths.cli\n"
        "log = hlpaths.cli.parse_xes(b'<log><trace><string key=\"concept:name\" value=\"c1\"/>"
        "<event><date key=\"time:timestamp\" value=\"2024-03-01T08:00:00Z\"/></event>"
        "</trace></log>')\n"
        "assert len(log) == 1",
        tmp_path, modules=("xml.etree", "xml.parsers.expat"),
    )
    assert loaded == ["xml.parsers.expat"]


def test_generate_loads_numpy_alone(tmp_path):
    loaded = _loaded_after(
        "import hlpaths.cli\n"
        "assert hlpaths.cli.main(['generate', '--seed', '1', '--out', 'log.csv']) == 0",
        tmp_path,
    )
    assert loaded == ["numpy"]
    assert (tmp_path / "log.csv").read_text().startswith("case,")


def test_report_with_a_config_loads_yaml_alone(tmp_path):
    assert main(["generate", "--seed", "1", "--out", str(tmp_path / "log.csv")]) == 0
    (tmp_path / "run.yaml").write_text("percentile: 90\nsuccess_activity: approved\n")
    loaded = _loaded_after(
        "import hlpaths.cli\n"
        "assert hlpaths.cli.main(['report', '--input', 'log.csv', '--config', 'run.yaml',"
        " '--out', 'out']) == 0",
        tmp_path,
    )
    assert loaded == ["yaml"]
    assert (tmp_path / "out" / "paths.csv").exists()
