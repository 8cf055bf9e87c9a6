"""Smoke tests for the example scripts: each runs at its smallest size."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = {
    "boundary_scan.py": (["--steps", "3"], "beta,rho,verdict"),
    "bound_vs_rs.py": (["--steps", "3"],
                       "beta,rho,rs_pressure,bound,certified,annealed_gap"),
    "trend_experiment.py": (["--sizes", "6", "9", "--disorder", "4"],
                            "N,method,mean,std_error,p_annealed,gap,flags"),
}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_and_prints_its_csv_header(script):
    args, header = SCRIPTS[script]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1
