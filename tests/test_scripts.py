import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_run_violations_rejects_empty_sample(pairs):
    result = _run_script("run_violations.py", "--pairs", pairs)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "argument --pairs: must be a positive integer" in result.stderr
    assert "Traceback" not in result.stderr
