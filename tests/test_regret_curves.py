import math
import os
import subprocess
import sys

import metasrl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "regret_curves.py")


def test_writes_one_row_per_seed_and_horizon(tmp_path):
    out = tmp_path / "regret.csv"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(metasrl.__file__)))
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--seeds", "2", "--horizons", "5", "10",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert header == "seed,horizon,averaged_regret"
    assert [row.split(",")[:2] for row in rows] == [
        ["0", "5"], ["0", "10"], ["1", "5"], ["1", "10"]]
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows)
