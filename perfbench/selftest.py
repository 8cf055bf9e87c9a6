"""Self-test of the benchmark at smoke size; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload at its smoke size untraced and traced, and asserts that
the result line carries exactly the metric names of ``BENCHMARK.json``, that
the detail line carries every named metric, and that each layer is reached
or idle where the workload design says.  Then it feeds each output check a
deliberately corrupted output and asserts that the check rejects it.
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import GENERATORS, WORKLOADS  # noqa: E402

NAMED = {
    "scan-bound": ("scan.points_per_s", "bridge_gap_max"),
    "query-mix": ("query.req_per_s", "query.latency_s.p50",
                  "query.latency_s.p90"),
    "verify-fv": ("verify.disorder_per_s", "mc_dev_sigma"),
}
COMMON_NAMED = ("setup_s", "peak_rss_mb", "fail_frac", "max_abs_dev")


def check_runs(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            out = run.run_workload(workload, 1, 1.0, trace, size="smoke")
            result, detail = out["result"], out["detail"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            # Failed requests are the program's (query-mix reaches the
            # deep-chain solve_nested defect); wrong outputs are not allowed.
            assert result["correct"], detail["problems"]
            metrics = result["metrics"]
            assert set(metrics) == set(expected), (
                workload, set(metrics) ^ set(expected))
            for name, item in metrics.items():
                assert item["unit"] == expected[name], name
                assert isinstance(item["value"], (int, float)), name
            for name in COMMON_NAMED + NAMED[workload]:
                assert name in detail["named"], (workload, name)
            assert not detail["layer_violations"], detail["layer_violations"]
            assert set(detail["env"]) >= {"python", "numpy", "scipy", "blas",
                                          "blas_threads", "cpu_count", "nproc",
                                          "scan_pool_width"}
            print(f"ok  {workload} trace={int(trace)}: "
                  f"{result['attempted']} requests ({result['failed']} failed), "
                  f"{len(metrics)} metrics")


def _corruptions(command: str, out: dict):
    """(description, corrupted output) pairs a correct check must reject."""
    bad = copy.deepcopy(out)
    if command == "rs":
        bad["solutions"][0]["q"][0] *= 1.01
        yield "overlap off its fixed point", bad
        bad = copy.deepcopy(out)
        bad["solutions"][0]["pressure"] += 1e-6
        yield "pressure shifted", bad
    elif command == "region":
        bad["rows"][0]["rho"] *= 1.001
        yield "spectral radius scaled", bad
    elif command == "poly":
        bad["zeros"][-1] += 1e-6
        yield "largest zero shifted", bad
    elif command == "scan":
        certified = [r for r in bad["rows"] if r["bound_certified"]]
        certified[0]["bound_value"] += 1e-6
        yield "bridge gap at a certified point", bad
        bad = copy.deepcopy(out)
        bad["rows"][0]["rho"] += 1e-3
        yield "grid-point rho shifted", bad
    elif command == "verify":
        bad["ok"] = False
        yield "ok flag cleared", bad
        bad = copy.deepcopy(out)
        bad["trend"]["rows"][0]["N"] += 1
        yield "trend size changed", bad


def check_corruption() -> None:
    dbmlab = child._import_program(run.ROOT)
    from dbmlab.machine import FieldSpec, ModelParams
    api = (ModelParams, FieldSpec)
    requests = [GENERATORS["scan-bound"](api, 1, 0, "smoke"),
                GENERATORS["verify-fv"](api, 1, 0, "smoke")]
    requests += [GENERATORS["query-mix"](api, 1, i) for i in (0, 2, 3)]
    with run._workdir() as workdir:
        path = workdir / "request.json"
        for request in requests:
            _, error, text = child._call(dbmlab.cli, request, path)
            assert error is None, error
            out = json.loads(text)
            check = checks.CHECKS[request.command]
            assert check(request.config, out, {}) == [], request.command
            for what, bad in _corruptions(request.command, out):
                assert check(request.config, bad, {}), (request.command, what)
                print(f"ok  {request.command}: rejects {what}")
            record = checks.record(request.command, out)
            assert checks.compare(record, record, {}) == []
            shifted = copy.deepcopy(record)
            shifted["exact"][0] += 1e-6
            assert checks.compare(shifted, record, {})
            print(f"ok  {request.command}: reference rejects a 1e-6 shift")
            for row in shifted["mc"]:
                row[0] += 10.0 * row[1]
                assert checks.compare(shifted, record, {})
                print(f"ok  {request.command}: reference rejects a 10-sigma "
                      "Monte Carlo shift")


def check_tracer_gaps() -> None:
    """A missing function is reported absent; a failing hook never breaks
    the traced call."""
    import types
    tracer = tracing.Tracer()
    module = types.SimpleNamespace(present=lambda x: x)
    tracer.wrap_attr(module, "missing", "m.missing")
    tracer.wrap_attr(module, "present", "m.present",
                     after=lambda *args: 1 / 0)
    assert module.present(3) == 3
    tracer.uninstall()
    assert module.present.__name__ == "<lambda>"
    assert tracer.report() == {"absent": ["m.missing"], "hook_errors": 1}
    print("ok  tracer reports absent spans and hook errors")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_tracer_gaps()
    check_corruption()
    check_runs(spec)
    names = [m["name"] for m in spec["per_layer"]]
    assert "trace.overhead_frac" in names
    assert all(name in names for e in tracing.EXPECTED.values()
               for kind in e.values() for name in kind)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
