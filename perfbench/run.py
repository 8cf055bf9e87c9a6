"""dbmlab benchmark: drive the public CLI and report end-to-end metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload scan-bound --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report [--seconds 20]      # all workloads, named metrics
    python3 perfbench/run.py --write-reference [--workload W]  # refresh references

A run spawns a few set-up probes (fresh processes that import the program,
build its parser and exit) and then one child process that serves the
workload's request stream through ``dbmlab.cli.main`` from a single client:
a fixed number of requests per ``--seconds``, sized for about that long on
the machine that defined the benchmark.
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the child runs a fixed number of
requests, each once untraced and once traced, and the last line holds the
per-layer metrics.  The line before it is a JSON record with the workload's
named metrics (``scan.points_per_s``, ``fail_frac``, ...), the environment
and any failed requests.  See ``perfbench/METRICS.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Set-up probes per run; setup_s is the median over them.
SETUP_PROBES = 4
# A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
# Requests of a traced run, each run once untraced and once traced; sized
# for about 20 s of work at the commit that defined the benchmark.
TRACE_REQUESTS = {
    "full": {"scan-bound": 3, "query-mix": 500, "verify-fv": 12},
    "smoke": {"scan-bound": 1, "query-mix": 8, "verify-fv": 1},
}
# Requests per second of an untraced run on the machine that defined the
# benchmark.  An untraced run serves round(seconds * rate) requests: about
# ``--seconds`` of work there, and a count that does not depend on the host's
# speed, so the same seed attempts the same requests in every run and a
# program defect fails the same number of them.
REQUESTS_PER_S = {"scan-bound": 0.36, "query-mix": 50.0, "verify-fv": 0.42}
# Fewest requests of an untraced run: query-mix needs 100 so that its p90
# latency has at least 10 samples beyond it.
MIN_REQUESTS = {"scan-bound": 1, "query-mix": 100, "verify-fv": 1}
# Requests stored per workload in the reference files.
REFERENCE_COUNT = {"scan-bound": 30, "query-mix": 2000, "verify-fv": 60}


class BenchError(RuntimeError):
    """The benchmark itself could not run; exits non-zero without a result."""


def _reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


@contextlib.contextmanager
def _workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def _spawn(spec: dict, deadline: float) -> tuple[float, dict | None]:
    """Start a child, time it to READY, and read its result line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        cwd=ROOT)
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                break
        else:
            raise BenchError("the program could not be imported from src/")
        setup = time.perf_counter() - t0
        remaining = max(1.0, deadline - time.perf_counter())
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child process timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child process exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """One benchmark run; returns the contract result plus a detail record."""
    if not (ROOT / "src" / "dbmlab" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {ROOT / 'src'}")
    reference = _reference_path(workload)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    with _workdir() as workdir:
        spec = {"root": str(ROOT), "workload": workload, "seed": seed,
                "trace": trace, "size": size,
                "workdir": str(workdir), "mode": "probe",
                "count": max(MIN_REQUESTS[workload],
                             round(seconds * REQUESTS_PER_S[workload])),
                "trace_requests": TRACE_REQUESTS[size][workload],
                "reference": (str(reference) if seed == DEFAULT_SEED
                              and size == "full" and reference.is_file()
                              else None)}
        setups = [_spawn(spec, deadline)[0] for _ in range(SETUP_PROBES)]
        _, child = _spawn(dict(spec, mode="run"), deadline)
    if child is None:
        raise BenchError("child process printed no result")
    return summarize(workload, seed, trace, setups, child)


def summarize(workload, seed, trace, setups, child) -> dict:
    stats = child["stats"]
    attempted = child["attempted"]
    scaled = child["scaled"]
    work_per_s = scaled["work_per_s"]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        "ok_frac": (1.0 - child["failed"] / attempted, "frac"),
        "work_per_s": (work_per_s, "1/s"),
        "latency_p50_s": (scaled["latency_p50_s"], "s"),
        "latency_p90_s": (scaled["latency_p90_s"], "s"),
    }
    named = {
        "setup_s": end_to_end["setup_s"],
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "fail_frac": (child["failed"] / attempted, "frac"),
        "max_abs_dev": (stats.get("max_abs_dev"), "abs"),
    }
    if workload == "scan-bound":
        named["scan.points_per_s"] = (work_per_s, "1/s")
        named["bridge_gap_max"] = (stats.get("bridge_gap_max"), "abs")
    elif workload == "query-mix":
        named["query.req_per_s"] = (work_per_s, "1/s")
        named["query.latency_s.p50"] = end_to_end["latency_p50_s"]
        named["query.latency_s.p90"] = end_to_end["latency_p90_s"]
    else:
        named["verify.disorder_per_s"] = (work_per_s, "1/s")
        named["mc_dev_sigma"] = (stats.get("mc_dev_sigma"), "sigma")
    if trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in child["layers"].items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end.items()}
    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "requests": attempted, "completed": child["completed"],
        "setup_samples_s": setups,
        "wall_clock": child["raw"],
        "reference_s": _summary(child.get("reference_s")),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "stats": stats, "trace_gaps": child.get("trace_gaps"),
        "layer_violations": (tracing.expectation_violations(
            workload, child["layers"], child["trace_gaps"]["absent"])
            if trace else []),
        "problems": child["problems"], "env": child["env"],
    }
    result = {"correct": child["incorrect"] == 0, "attempted": attempted,
              "failed": child["failed"], "metrics": metrics}
    return {"result": result, "detail": detail}


def _summary(samples) -> dict | None:
    if not samples:
        return None
    return {"n": len(samples), "min": min(samples),
            "median": statistics.median(samples), "max": max(samples)}


def _layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_per_s"):
        return "1/s"
    if leaf.endswith("_s"):
        return "s"
    if leaf.endswith("_frac"):
        return "frac"
    if leaf == "cpu_util":
        return "cores"
    return "count"


def write_reference(workloads) -> None:
    """Store the default seed's outputs for the given workloads."""
    (HERE / "reference").mkdir(exist_ok=True)
    for workload in workloads:
        with _workdir() as workdir:
            spec = {"root": str(ROOT), "workload": workload,
                    "seed": DEFAULT_SEED, "trace": False,
                    "size": "full", "workdir": str(workdir),
                    "mode": "reference", "count": REFERENCE_COUNT[workload],
                    "reference": None}
            _, child = _spawn(spec, time.perf_counter() + 3600.0)
        if child["problems"]:
            print(f"{workload}: {len(child['problems'])} requests failed while "
                  "writing the reference:", *child["problems"][:10],
                  sep="\n  ", file=sys.stderr)
        payload = {"seed": DEFAULT_SEED, "env": child["env"],
                   "records": child["records"]}
        _reference_path(workload).write_text(json.dumps(payload) + "\n")
        print(f"{workload}: {len(child['records'])} reference records")


def report(seconds: float) -> None:
    """Every named end-to-end metric for every workload, untraced."""
    env = None
    for workload in WORKLOADS:
        out = run_workload(workload, DEFAULT_SEED, seconds, False)
        detail = out["detail"]
        env = detail["env"]
        result = out["result"]
        print(f"{workload}  (seed {DEFAULT_SEED}, {detail['requests']} requests, "
              f"{result['failed']} failed, correct={result['correct']})")
        for name, item in detail["named"].items():
            value = item["value"]
            text = "n/a" if value is None else f"{value:.6g}"
            print(f"  {name:28s} {text:>14s} {item['unit']}")
        for problem in detail["problems"][:10]:
            print(f"  ! {problem}")
    print("environment:", json.dumps(env))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload and print its named metrics")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default seed's outputs as references")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference([args.workload] if args.workload else WORKLOADS)
            return 0
        if args.report:
            report(args.seconds)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
