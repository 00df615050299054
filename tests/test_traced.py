"""The traced benchmark run wraps linlam's public calls by name; it must still find them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_crosscheck_runs(tmp_path):
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), "0",
         "crosscheck", "--max-n", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(trace.read_text())["counts"]
    assert counts["crosscheck.rows"] == 28
    assert counts["crosscheck.rows_failed"] == 0
    assert counts["series.solve.calls"] == 4
