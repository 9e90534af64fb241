"""The benchmark's own smoke test passes, so a simulator edit that breaks it fails here.

`perfbench/smoke.py` runs every workload shrunk to a few tiny runs, traced
and untraced, and checks the benchmark's output contract; it takes a few
seconds.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, str(pathlib.Path("perfbench", "smoke.py"))],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "smoke: ok", done.stdout
