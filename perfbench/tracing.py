"""Span tracer that wraps the program's public functions from outside.

The program's modules call each other through module attributes
(``ghquad.expect``, ``rs_solver.rs_map``, the imported ``brentq`` and
``minimize`` names, ...), looked up at call time, so replacing those
attributes is enough to see every internal call.  ``cli`` dispatches through
its ``_HANDLERS`` table, so the scan handler is wrapped in that table.

Each thread keeps its own span stack and its own totals; the hot path takes
no lock (a thread registers its state once, under a lock, on its first
span).  Thread CPU time is read only on coarse spans, never per kernel call.
A span's self time is its wall time minus the wall time of the traced spans
it called on the same thread; work a span hands to a thread pool is not
subtracted.
"""
from __future__ import annotations

import inspect
import math
import threading
import time

_now = time.perf_counter


class _Totals:
    """Per-thread totals for one span name."""

    __slots__ = ("calls", "wall", "self_time", "cpu", "proc_cpu")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.self_time = 0.0
        self.cpu = 0.0
        self.proc_cpu = 0.0


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []      # child wall time per open span
        self.totals: dict[str, _Totals] = {}
        self.counters: dict[str, float] = {}
        self.best: list[float] = []       # best bound per open maximize_bound
        self.fixed_point_depth = 0


class Tracer:
    """Installs wrappers on module attributes and aggregates their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._register = threading.Lock()
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- state ---------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            with self._register:
                self._states.append(state)
            self._local.state = state
        return state

    def count(self, state: _ThreadState, name: str, amount: float) -> None:
        state.counters[name] = state.counters.get(name, 0.0) + amount

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, coarse: bool, after, before):
        state_of = self._state

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            if before is not None:
                before(state, args, kwargs)
            stack.append(0.0)
            if coarse:
                cpu0 = time.thread_time()
                proc0 = time.process_time()
            t0 = _now()
            result = None
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                wall = _now() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += wall
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = _Totals()
                totals.calls += 1
                totals.wall += wall
                totals.self_time += wall - child
                if coarse:
                    totals.cpu += time.thread_time() - cpu0
                    totals.proc_cpu += time.process_time() - proc0
                if after is not None:
                    try:
                        after(state, args, kwargs, result, failed)
                    except Exception:  # a changed signature must not break the call
                        self.count(state, "trace.hook_errors", 1)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_attr(self, owner, attr: str, name: str, *, coarse=False,
                  after=None, before=None) -> None:
        """Replace ``owner.attr`` (module attribute or dict entry) by a span."""
        is_dict = isinstance(owner, dict)
        fn = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if not callable(fn):
            self.absent.append(name)
            return
        wrapped = self._wrap(fn, name, coarse, after, before)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, fn))

    def report(self) -> dict:
        """Spans whose function is gone, and spans whose counters failed."""
        _, counters = self.totals()
        return {"absent": sorted(set(self.absent)),
                "hook_errors": int(counters.get("trace.hook_errors", 0))}

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._installed.clear()

    # -- aggregation -------------------------------------------------------------

    def totals(self) -> tuple[dict[str, _Totals], dict[str, float]]:
        merged: dict[str, _Totals] = {}
        counters: dict[str, float] = {}
        for state in self._states:
            for name, t in state.totals.items():
                m = merged.setdefault(name, _Totals())
                m.calls += t.calls
                m.wall += t.wall
                m.self_time += t.self_time
                m.cpu += t.cpu
                m.proc_cpu += t.proc_cpu
            for name, value in state.counters.items():
                counters[name] = counters.get(name, 0.0) + value
        return merged, counters


def _binder(fn):
    """Bind call arguments to parameter names, defaults applied."""
    signature = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


# Improvement a minimizer run must make over the best value found so far in
# its maximize_bound call to count as useful (values are O(1) pressures).
_USEFUL_GAIN = 1e-12


def install(tracer: Tracer, dbmlab) -> None:
    """Wrap every layer boundary the per-layer metrics are computed from."""
    ghquad = dbmlab.ghquad
    rs_solver = dbmlab.rs_solver
    skb = dbmlab.sk_chain_bound
    fvl = dbmlab.finite_volume_lab
    cli = dbmlab.cli
    default_order = getattr(ghquad, "DEFAULT_ORDER", 0)

    def expect_evals(state, args, kwargs, result, failed):
        field = kwargs.get("field", args[2] if len(args) > 2 else None)
        rule = kwargs.get("rule", args[3] if len(args) > 3 else None)
        atoms = len(getattr(field, "values", ()) or ()) or 1
        if getattr(field, "kind", "") in ("zero", "gaussian_centered"):
            atoms = 1
        order = getattr(rule, "order", default_order)
        tracer.count(state, "ghquad.expect.evals", atoms * order)

    tracer.wrap_attr(ghquad, "expect", "ghquad.expect", after=expect_evals)
    tracer.wrap_attr(ghquad, "expect_derivative_in_s",
                     "ghquad.expect_derivative_in_s")

    def rs_map_after(state, args, kwargs, result, failed):
        if state.fixed_point_depth:
            tracer.count(state, "rs_solver.solve_fixed_point.rs_map", 1)

    def solve_failed(state, args, kwargs, result, failed):
        if failed:
            tracer.count(state, "rs_solver.solve.failures", 1)

    def fixed_point_before(state, args, kwargs):
        state.fixed_point_depth += 1

    def fixed_point_after(state, args, kwargs, result, failed):
        state.fixed_point_depth -= 1
        solve_failed(state, args, kwargs, result, failed)

    tracer.wrap_attr(rs_solver, "rs_map", "rs_solver.rs_map",
                     after=rs_map_after)
    tracer.wrap_attr(rs_solver, "rs_pressure", "rs_solver.rs_pressure")
    tracer.wrap_attr(rs_solver, "check_at", "rs_solver.check_at")
    tracer.wrap_attr(rs_solver, "solve_nested", "rs_solver.solve_nested",
                     coarse=True, after=solve_failed)
    tracer.wrap_attr(rs_solver, "solve_fixed_point",
                     "rs_solver.solve_fixed_point", coarse=True,
                     before=fixed_point_before, after=fixed_point_after)
    tracer.wrap_attr(rs_solver, "brentq", "rs_solver.brentq")

    def bound_before(state, args, kwargs):
        state.best.append(-math.inf)

    def bound_after(state, args, kwargs, result, failed):
        state.best.pop()
        if not failed and getattr(result, "certified", False):
            tracer.count(state, "sk_chain_bound.certified", 1)

    def minimize_after(state, args, kwargs, result, failed):
        if failed:
            return
        tracer.count(state, "sk_chain_bound.minimize.nfev",
                     int(getattr(result, "nfev", 0)))
        if not state.best:
            return
        value = -float(result.fun)
        if value > state.best[-1] + _USEFUL_GAIN:
            tracer.count(state, "sk_chain_bound.minimize.useful", 1)
        state.best[-1] = max(state.best[-1], value)

    tracer.wrap_attr(skb, "maximize_bound", "sk_chain_bound.maximize_bound",
                     coarse=True, before=bound_before, after=bound_after)
    tracer.wrap_attr(skb, "minimize", "sk_chain_bound.minimize",
                     after=minimize_after)

    tracer.wrap_attr(cli, "main", "cli.main", coarse=True)
    handlers = getattr(cli, "_HANDLERS", None)
    if isinstance(handlers, dict):
        tracer.wrap_attr(handlers, "scan", "cli.cmd_scan", coarse=True)
    else:
        tracer.absent.append("cli.cmd_scan")

    machine = dbmlab.machine
    tracer.wrap_attr(machine, "classify_annealed", "machine.classify_annealed")
    tracer.wrap_attr(machine, "build_matrices", "machine.build_matrices")
    tracer.wrap_attr(dbmlab.chainpoly, "largest_zero", "chainpoly.largest_zero")

    def log_partition_after(state, args, kwargs, result, failed):
        sample = kwargs.get("sample", args[0] if args else None)
        n_spins = sample.assignment.N
        tracer.count(state, "finite_volume_lab.log_partition.configs",
                     2.0 ** n_spins)

    mc_pressure = getattr(fvl, "mc_pressure", None)
    mc_bind = _binder(mc_pressure) if callable(mc_pressure) else None

    def mc_after(state, args, kwargs, result, failed):
        call = mc_bind(args, kwargs)
        tracer.count(state, "finite_volume_lab.mc_pressure.spin_updates",
                     call["n_disorder"] * call["sweeps"] * call["replicas"]
                     * call["assignment"].N)
        if not failed and "nonequilibrated" in getattr(result, "flags", ()):
            tracer.count(state, "finite_volume_lab.mc_pressure.nonequilibrated", 1)

    tracer.wrap_attr(fvl, "sample_disorder", "finite_volume_lab.sample_disorder")
    tracer.wrap_attr(fvl, "log_partition", "finite_volume_lab.log_partition",
                     after=log_partition_after)
    tracer.wrap_attr(fvl, "mc_pressure", "finite_volume_lab.mc_pressure",
                     coarse=True, after=mc_after)
    tracer.wrap_attr(fvl, "covariance_report",
                     "finite_volume_lab.covariance_report", coarse=True)
    tracer.wrap_attr(fvl, "hamiltonian", "finite_volume_lab.hamiltonian")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, untraced_wall: float,
                  traced_wall: float) -> dict[str, float]:
    """Per-layer metric values from the traced run (see METRICS.md)."""
    spans, counters = tracer.totals()
    empty = _Totals()

    def span(name: str) -> _Totals:
        return spans.get(name, empty)

    out: dict[str, float] = {}
    expect = span("ghquad.expect")
    evals = counters.get("ghquad.expect.evals", 0.0)
    out["ghquad.expect.calls"] = expect.calls
    out["ghquad.expect.self_s"] = expect.self_time
    out["ghquad.expect.evals"] = evals
    out["ghquad.expect.evals_per_s"] = _ratio(evals, expect.wall)
    deriv = span("ghquad.expect_derivative_in_s")
    out["ghquad.expect_derivative_in_s.calls"] = deriv.calls
    out["ghquad.expect_derivative_in_s.self_s"] = deriv.self_time

    rs_map = span("rs_solver.rs_map")
    out["rs_solver.rs_map.calls"] = rs_map.calls
    out["rs_solver.rs_map.self_s"] = rs_map.self_time
    out["rs_solver.rs_pressure.calls"] = span("rs_solver.rs_pressure").calls
    out["rs_solver.check_at.calls"] = span("rs_solver.check_at").calls
    nested = span("rs_solver.solve_nested")
    out["rs_solver.solve_nested.calls"] = nested.calls
    out["rs_solver.solve_nested.wall_s"] = nested.wall
    out["rs_solver.solve_nested.cpu_s"] = nested.cpu
    fixed = span("rs_solver.solve_fixed_point")
    out["rs_solver.solve_fixed_point.calls"] = fixed.calls
    out["rs_solver.solve_fixed_point.wall_s"] = fixed.wall
    out["rs_solver.solve_fixed_point.cpu_s"] = fixed.cpu
    out["rs_solver.solve_fixed_point.rs_map_per_call"] = _ratio(
        counters.get("rs_solver.solve_fixed_point.rs_map", 0.0), fixed.calls)
    brentq = span("rs_solver.brentq")
    out["rs_solver.brentq.calls"] = brentq.calls
    out["rs_solver.brentq.wall_s"] = brentq.wall
    out["rs_solver.solve.failures"] = counters.get("rs_solver.solve.failures", 0.0)

    bound = span("sk_chain_bound.maximize_bound")
    out["sk_chain_bound.maximize_bound.calls"] = bound.calls
    out["sk_chain_bound.maximize_bound.wall_s"] = bound.wall
    out["sk_chain_bound.maximize_bound.cpu_s"] = bound.cpu
    out["sk_chain_bound.maximize_bound.wait_s"] = bound.wall - bound.cpu
    out["sk_chain_bound.maximize_bound.self_s"] = bound.self_time
    minimize = span("sk_chain_bound.minimize")
    out["sk_chain_bound.minimize.calls"] = minimize.calls
    out["sk_chain_bound.minimize.nfev"] = counters.get(
        "sk_chain_bound.minimize.nfev", 0.0)
    out["sk_chain_bound.minimize.useful_frac"] = _ratio(
        counters.get("sk_chain_bound.minimize.useful", 0.0), minimize.calls)
    out["sk_chain_bound.certified_frac"] = _ratio(
        counters.get("sk_chain_bound.certified", 0.0), bound.calls)

    main = span("cli.main")
    out["cli.main.calls"] = main.calls
    out["cli.main.self_s"] = main.self_time
    scan = span("cli.cmd_scan")
    out["cli.cmd_scan.wall_s"] = scan.wall
    out["cli.cmd_scan.cpu_util"] = _ratio(scan.proc_cpu, scan.wall)

    classify = span("machine.classify_annealed")
    out["machine.classify_annealed.calls"] = classify.calls
    out["machine.classify_annealed.self_s"] = classify.self_time
    out["machine.build_matrices.calls"] = span("machine.build_matrices").calls
    largest = span("chainpoly.largest_zero")
    out["chainpoly.largest_zero.calls"] = largest.calls
    out["chainpoly.largest_zero.self_s"] = largest.self_time

    disorder = span("finite_volume_lab.sample_disorder")
    out["finite_volume_lab.sample_disorder.calls"] = disorder.calls
    out["finite_volume_lab.sample_disorder.self_s"] = disorder.self_time
    logz = span("finite_volume_lab.log_partition")
    configs = counters.get("finite_volume_lab.log_partition.configs", 0.0)
    out["finite_volume_lab.log_partition.calls"] = logz.calls
    out["finite_volume_lab.log_partition.self_s"] = logz.self_time
    out["finite_volume_lab.log_partition.configs"] = configs
    out["finite_volume_lab.log_partition.configs_per_s"] = _ratio(configs, logz.wall)
    mc = span("finite_volume_lab.mc_pressure")
    updates = counters.get("finite_volume_lab.mc_pressure.spin_updates", 0.0)
    out["finite_volume_lab.mc_pressure.calls"] = mc.calls
    out["finite_volume_lab.mc_pressure.wall_s"] = mc.wall
    out["finite_volume_lab.mc_pressure.cpu_s"] = mc.cpu
    out["finite_volume_lab.mc_pressure.spin_updates"] = updates
    out["finite_volume_lab.mc_pressure.spin_updates_per_s"] = _ratio(updates, mc.wall)
    out["finite_volume_lab.mc_pressure.nonequilibrated"] = counters.get(
        "finite_volume_lab.mc_pressure.nonequilibrated", 0.0)
    out["finite_volume_lab.covariance_report.wall_s"] = span(
        "finite_volume_lab.covariance_report").wall
    ham = span("finite_volume_lab.hamiltonian")
    out["finite_volume_lab.hamiltonian.calls"] = ham.calls
    out["finite_volume_lab.hamiltonian.self_s"] = ham.self_time

    out["trace.overhead_frac"] = _ratio(traced_wall, untraced_wall) - 1.0
    return out


# Where each layer must be reached (> 0) and where it must stay idle (== 0),
# from the workload design: the bound and the scan pool only on scan-bound,
# the finite-volume stack only on verify-fv, kernel and solvers never there.
_FV_CALLS = ("finite_volume_lab.sample_disorder.calls",
             "finite_volume_lab.log_partition.calls",
             "finite_volume_lab.mc_pressure.calls",
             "finite_volume_lab.hamiltonian.calls")
EXPECTED = {
    "scan-bound": {
        "reached": ("ghquad.expect.calls", "ghquad.expect_derivative_in_s.calls",
                    "rs_solver.solve_nested.calls", "rs_solver.brentq.calls",
                    "sk_chain_bound.maximize_bound.calls",
                    "sk_chain_bound.minimize.calls", "cli.cmd_scan.wall_s",
                    "machine.classify_annealed.calls"),
        "zero": _FV_CALLS,
    },
    "query-mix": {
        "reached": ("ghquad.expect.calls", "rs_solver.rs_map.calls",
                    "rs_solver.solve_nested.calls",
                    "rs_solver.solve_fixed_point.calls",
                    "machine.classify_annealed.calls",
                    "machine.build_matrices.calls",
                    "chainpoly.largest_zero.calls", "cli.main.calls"),
        "zero": ("sk_chain_bound.maximize_bound.calls",
                 "sk_chain_bound.minimize.calls", "cli.cmd_scan.wall_s")
                + _FV_CALLS,
    },
    "verify-fv": {
        "reached": _FV_CALLS + ("finite_volume_lab.covariance_report.wall_s",),
        "zero": ("ghquad.expect.calls", "rs_solver.rs_map.calls",
                 "rs_solver.solve_nested.calls",
                 "rs_solver.solve_fixed_point.calls",
                 "sk_chain_bound.minimize.calls", "cli.cmd_scan.wall_s"),
    },
}


def expectation_violations(workload: str, layers: dict, absent) -> list[str]:
    """Layers reached where they must be idle, or idle where they must run.

    A span whose function no longer exists is absent, not a violation.
    """
    absent = set(absent)
    out = []
    for kind, names in EXPECTED[workload].items():
        for name in names:
            if name.rsplit(".", 1)[0] in absent:
                continue
            value = layers[name]
            if (kind == "reached") != (value > 0):
                out.append(f"{name} = {value} on {workload} (expected "
                           f"{'> 0' if kind == 'reached' else '0'})")
    return out
