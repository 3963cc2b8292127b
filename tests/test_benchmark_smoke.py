"""The benchmark harness's smoke run, as a correctness gate without timings.

``perfbench/run.py --smoke`` drives every workload through the CLI, untraced
and traced, and replays ``perfbench/goldens.json``; a change to any CLI byte
those goldens pin turns it red.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_reports_ok():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    assert json.loads(lines[-1])["smoke"] == "ok", proc.stdout + proc.stderr
    assert proc.returncode == 0
