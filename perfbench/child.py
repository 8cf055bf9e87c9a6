"""One benchmark child process: import the program, then serve requests.

Started by ``run.py`` as ``python3 child.py <spec-json>``.  It imports
``dbmlab`` from the checkout's ``src`` directory and builds the CLI parser,
then writes ``READY`` on stdout, so the parent can time set-up from process
start.  In ``probe`` mode it exits there.  Otherwise it runs the workload's
request stream through ``dbmlab.cli.main`` in this one process, from this
one thread, and writes one JSON result line on stdout.

Each request's config is written to a file in the work directory, and its
output is captured from stdout and checked after the timed loop.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def _import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import dbmlab
    from dbmlab import cli
    build = getattr(cli, "_build_parser", None)
    if build is not None:
        build()
    if not Path(dbmlab.__file__).resolve().is_relative_to(root / "src"):
        raise ImportError(f"dbmlab imported from {dbmlab.__file__}, not {root}/src")
    return dbmlab


def _call(cli, request, path: Path):
    """Run one request through ``cli.main``; never raises."""
    path.write_text(json.dumps(request.config))
    argv = [request.command, "--config", str(path), *request.flags]
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # escaped main: a failure, not the end of the run
        code = None
        error = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return latency, error, out.getvalue()


def _stream(spec, api):
    from workloads import GENERATORS
    gen = GENERATORS[spec["workload"]]
    return lambda index, size=spec["size"]: gen(api, spec["seed"], index, size)


def _run_pass(cli, make, path: Path, count: int, track=None):
    """Requests 0, 1, ..., ``count - 1``, one after the other.

    Each result is ``(index, work units, latency, error, text, scaled
    latency)``; the scaled latency is in reference seconds when a speed
    ``track`` is given (see ``speed.py``), else the latency itself.  Only
    atomic values are kept per request (the request itself is rebuilt from
    its index for checking), so the harness adds no objects for the
    program's garbage collector to traverse while it is being timed.
    """
    results = []
    for index in range(count):
        request = make(index)
        sample = track.between_requests() if track is not None else None
        latency, error, text = _call(cli, request, path)
        results.append((index, request.work_units, latency, error, text, sample))
    if track is None:
        return [r[:5] + (r[2],) for r in results]
    track.close()
    return [r[:5] + (r[2] * track.factor(r[5]),) for r in results]


def _traced(dbmlab, make, path: Path, count: int):
    """Each request once untraced and once traced, alternating which first.

    A fixed request count keeps per-layer counts comparable across commits;
    interleaving keeps machine drift out of the tracing overhead.
    """
    import tracing
    tracer = tracing.Tracer()
    results = []
    walls = {False: 0.0, True: 0.0}
    for index in range(count):
        request = make(index)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracing.install(tracer, dbmlab)
            try:
                latency, error, text = _call(dbmlab.cli, request, path)
            finally:
                tracer.uninstall()
            walls[traced] += latency
            results.append((index, request.work_units, latency, error, text,
                            latency))
    layers = tracing.layer_metrics(tracer, walls[False], walls[True])
    return results, layers, tracer.report()


def _check(results, make, reference_path, stats):
    """Count failed and incorrect requests; collect reference records."""
    import checks
    reference = {}
    if reference_path:
        reference = json.loads(Path(reference_path).read_text())["records"]
    failed = incorrect = 0
    problems: list[str] = []
    records = []
    for index, _, _, error, text, _ in results:
        request = make(index)
        ref = reference.get(str(index))
        if error is not None:
            failed += 1
            if text:  # a non-zero exit with a report: say what it flagged
                try:
                    found = checks.CHECKS[request.command](
                        request.config, json.loads(text), {})
                    error = "; ".join([error] + found[:3])
                except (ValueError, KeyError, TypeError, IndexError):
                    pass
            problems.append(f"request {index} ({request.command}): {error}")
            records.append({"error": error})
            continue
        try:
            out = json.loads(text)
            found = checks.CHECKS[request.command](request.config, out, stats)
            rec = checks.record(request.command, out)
            if ref is not None and "error" not in ref:
                found += checks.compare(rec, ref, stats)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
            rec = {"error": "unreadable output"}
        records.append(rec)
        if found:
            failed += 1
            incorrect += 1
            problems.append(f"request {index} ({request.command}): "
                            + "; ".join(found[:3]))
    return failed, incorrect, problems, records


def _work_rate(results, uniform: bool, column: int) -> float:
    """Work units per busy second, timed by ``results[i][column]``.

    Requests of one size (a scan, a verify) give one rate each and the
    median rate is robust to a request that a noisy neighbour slowed down.
    Requests whose cost differs a hundredfold (the query mix) only have a
    meaningful total: all work over all busy time.
    """
    import statistics
    if uniform:
        return statistics.median(r[1] / r[column] for r in results)
    return sum(r[1] for r in results) / sum(r[column] for r in results)


def _timings(results, uniform: bool, column: int) -> dict:
    """Latency quantiles of completed requests and the work rate."""
    latencies = [r[column] for r in results if r[3] is None] or [0.0]
    return {"work_per_s": _work_rate(results, uniform, column),
            "latency_p50_s": hd_quantile(latencies, 0.5),
            "latency_p90_s": hd_quantile(latencies, 0.9)}


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of all order statistics instead of one or two of
    them.  The query mix is exactly half ``rs`` requests, so its plain
    sample median sits in the gap between the fast ``region``/``poly``
    requests and the ``rs`` ones and jumps with a few milliseconds of noise.
    """
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ x)


def _blas_threads():
    """Thread count of NumPy's bundled OpenBLAS, or None when it cannot be read."""
    import ctypes
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    import os
    import platform
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": cpus,
        "nproc": len(os.sched_getaffinity(0)),
        "scan_pool_width": min(8, cpus or 1),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    root = Path(spec["root"])
    dbmlab = _import_program(root)
    print("READY", flush=True)
    if spec["mode"] == "probe":
        return 0

    import resource

    import speed
    from workloads import UNIFORM_REQUESTS
    from dbmlab.machine import FieldSpec, ModelParams

    cli = dbmlab.cli
    make = _stream(spec, (ModelParams, FieldSpec))
    path = Path(spec["workdir"]) / "request.json"
    stats: dict = {}
    result: dict = {"env": environment()}

    if spec["mode"] == "reference":
        results = _run_pass(cli, make, path, spec["count"])
        _, _, problems, records = _check(results, make, None, stats)
        result["records"] = {str(i): rec for i, rec in enumerate(records)}
        result["problems"] = problems
        print(json.dumps(result), flush=True)
        return 0

    # Warm-up: one smoke-size request pays first-call costs before timing.
    _call(cli, make(10**6, "smoke"), path)
    if spec["trace"]:
        results, result["layers"], result["trace_gaps"] = _traced(
            dbmlab, make, path, spec["trace_requests"])
    else:
        track = speed.Track()
        results = _run_pass(cli, make, path, spec["count"], track)
        result["reference_s"] = track.samples
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, incorrect, problems, _ = _check(results, make, spec["reference"],
                                            stats)
    uniform = spec["workload"] in UNIFORM_REQUESTS
    result.update({
        "attempted": len(results),
        "completed": sum(r[3] is None for r in results),
        "failed": failed,
        "incorrect": incorrect,
        "problems": problems[:50],
        "stats": stats,
        "scaled": _timings(results, uniform, 5),
        "raw": _timings(results, uniform, 2),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
