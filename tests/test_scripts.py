import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_synthetic_gain_prints_baseline_and_one_row_per_tau():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "synthetic_gain.py"),
         "--epochs", "2", "--taus", "0", "0.2"],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    rows = [line.split() for line in proc.stdout.splitlines()]
    header = next(r for r in rows if r and r[0] == "configuration")
    assert header[1:] == ["escalated", "macro_f1", "P1", "P2", "P3", "composite"]
    baseline = [r for r in rows if r and r[0] == "baseline"]
    prior = [r for r in rows if r and r[0] == "prior"]
    assert len(baseline) == 1 and baseline[0][1] == "0"
    assert [r[1] for r in prior] == ["tau=0.00", "tau=0.20"]
    assert prior[0][2] == "0"  # tau 0 never escalates
