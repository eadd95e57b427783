"""Every demo runs to completion against the package in ``src``.

Each demo runs in its own interpreter from an empty working directory with
``HLPATHS_BPIC2017`` unset, so the public-log study takes its "log not
found" exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "HLPATHS_BPIC2017"}
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
