"""Smoke tests for the example script and the example configs."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbmlab import cli

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = {
    "boundary_scan.py": (["--steps", "3"], "beta,rho,verdict"),
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


def test_example_configs_run_through_the_cli(tmp_path):
    grid = tmp_path / "bound_vs_rs.csv"
    assert cli.main(["scan", "--config", str(ROOT / "examples" / "bound_vs_rs.json"),
                     "--out", str(grid)]) == 0
    with grid.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    np.testing.assert_allclose([float(row["beta[0]"]) for row in rows],
                               np.linspace(0.2, 1.4, 13), rtol=1e-12)
    for row in rows:
        for column in ("rho", "rs_pressure", "bound_value"):
            float(row[column])
        assert row["bound_certified"] in ("true", "false")
        assert row["at_ok"] in ("true", "false")

    # A stacked scan with failing points: its zero-width rows fail both
    # solves and the other rows solve.
    edges = tmp_path / "scan_edges.csv"
    assert cli.main(["scan", "--config", str(ROOT / "examples" / "scan_edges.json"),
                     "--out", str(edges)]) == 0
    with edges.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 12
    for row in rows:
        if float(row["lambda[1]"]) == 0.0:
            assert row["flags"] == "rs_failed;bound_failed"
            assert row["rs_pressure"] == row["bound_value"] == ""
        else:
            assert "failed" not in row["flags"]
            for column in ("rs_pressure", "bound_value"):
                float(row[column])
    assert sum(float(row["lambda[1]"]) == 0.0 for row in rows) == 4

    report = tmp_path / "trend.json"
    assert cli.main(["verify", "--config", str(ROOT / "examples" / "trend.json"),
                     "--seed", "2", "--format", "json", "--out", str(report)]) == 0
    data = json.loads(report.read_text())
    trend = data["trend"]
    assert [row["N"] for row in trend["rows"]] == [12, 18, 24]
    for row in trend["rows"]:
        assert set(row) == {"N", "method", "mean", "std_error", "p_annealed",
                            "gap", "flags"}
    assert trend["jensen_ok"] is True
    assert trend["gap_decreasing"] is True
    assert data["covariance"]["worst"] < 5.0
