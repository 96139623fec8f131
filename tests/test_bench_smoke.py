"""The benchmark's smoke run: every workload and output check at small size.

bench/run.py wraps named functions of the package to time each layer, so
this also catches a rename that would leave the tracer nothing to wrap.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"], cwd=ROOT,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
