"""Smoke tests for the example script and the example configs."""
import csv
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dbmlab import cli, machine

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = {
    "boundary_scan.py": (["--steps", "3"], "beta,rho,verdict"),
}


def _env():
    """The environment with the package's source first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs_and_prints_its_csv_header(script):
    args, header = SCRIPTS[script]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


@pytest.mark.parametrize("args", [["--layers", "1"], ["--layers", "0"],
                                  ["--layers", "600"], ["--min", "-1"],
                                  ["--max", "inf"], ["--min", "nan"],
                                  ["--steps", "0"]])
def test_boundary_scan_rejects_bad_input_with_one_line(args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "boundary_scan.py"), *args],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "Traceback" not in done.stderr
    # argparse prints its usage, wrapped to the terminal, then one error line.
    lines = done.stderr.splitlines()
    assert lines[0].startswith("usage: boundary_scan.py")
    assert [line for line in lines if ": error: " in line] == lines[-1:]
    assert lines[-1].startswith("boundary_scan.py: error: ")


def test_boundary_scan_critical_coupling_puts_rho_at_one():
    script = runpy.run_path(str(ROOT / "scripts" / "boundary_scan.py"))
    for K in (2, 3, 5, 8):
        crit = script["critical_coupling"](K)
        rho = machine.spectral_radius(script["symmetric_params"](K, crit))
        assert abs(rho - 1.0) <= 1e-12


def test_cli_runs_as_a_module_without_warnings(capsys):
    # The package does not import cli, so runpy finds no earlier copy of
    # the module and prints no RuntimeWarning.
    config = str(ROOT / "examples" / "bound_vs_rs.json")
    done = subprocess.run(
        [sys.executable, "-m", "dbmlab.cli", "region", "--config", config],
        capture_output=True, text=True, env=_env(), timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert cli.main(["region", "--config", config]) == 0
    assert done.stdout == capsys.readouterr().out


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


_NO_SCIPY = """
import sys
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_readme_python_api_runs_and_loads_no_scipy():
    # The README's Python API section runs as it is written, on NumPy alone.
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
    assert blocks
    done = subprocess.run([sys.executable, "-c", "".join(blocks) + _NO_SCIPY],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


_LOADED_SCIPY = """
import json, os, sys
from dbmlab import cli
runs = json.loads(sys.argv[1])
for command, config in runs:
    assert cli.main([command, "--config", config, "--out", os.devnull]) == 0
    print(command, sorted(name for name in sys.modules
                          if name == "scipy" or name.startswith("scipy.")))
"""


def test_no_command_loads_scipy(tmp_path):
    # Zeros come from NumPy's eigensolve at every chain length, enumeration
    # takes its logsumexp from NumPy, and the Monte Carlo estimator its t
    # quantile and logistic from the standard library.
    model = str(ROOT / "examples" / "bound_vs_rs.json")
    trend = json.loads((ROOT / "examples" / "trend.json").read_text())
    trend["verify"].update({"sizes": [12, 32], "n_disorder": 4, "sweeps": 20,
                            "replicas": 3, "covariance_n_disorder": 20})
    monte_carlo = tmp_path / "monte_carlo.json"
    monte_carlo.write_text(json.dumps(trend))
    runs = [(command, model) for command in ("region", "poly", "rs", "bound", "scan")]
    runs += [("verify", str(ROOT / "examples" / "trend.json")),
             ("verify", str(monte_carlo))]
    for K in (40, 512):
        chain = tmp_path / f"chain{K}.json"
        chain.write_text(json.dumps({"K": K, "beta": [0.3] * (K - 1),
                                     "lambda": [1 / K] * K}))
        runs.append(("poly", str(chain)))
    done = subprocess.run([sys.executable, "-c", _LOADED_SCIPY, json.dumps(runs)],
                          capture_output=True, text=True, env=_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{command} []" for command, _ in runs]
