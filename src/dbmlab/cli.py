"""Command-line surface: parameter files in, reports out.

One binary with subcommands:

``region``  annealed-region classification, optionally over a scan grid
``poly``    chain-polynomial report (activities, coefficients, zeros)
``rs``      consistency-equation solutions with certificates
``bound``   variational lower bound with certification flags
``verify``  finite-size ground-truth checks (trend, covariance, criteria)
``scan``    grid evaluation of selected quantities over 1-2 parameter axes

Every command reads a JSON config holding the model parameters plus
optional ``scan`` / ``solver`` / ``verify`` sections, and writes CSV or
JSON to ``--out`` (default: stdout).  Given the same config and seed, a
rerun produces byte-identical output.  Exit codes: 0 success, 1 invariant
or solver failure, 2 usage error (flags, a config that cannot be read or
parsed, an ``--out`` that cannot be written).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import chainpoly, ghquad, machine, rs_solver, sk_chain_bound
from .machine import FieldSpec, ModelParams

_OUTPUT_COLUMNS = {
    "region": ("verdict",),
    "rho": ("rho",),
    "rs_pressure": ("rs_pressure",),
    "bound": ("bound_value", "bound_certified"),
    "certificates": ("talagrand_ok", "at_ok", "stable_at_zero"),
}
_DEFAULT_OUTPUTS = ("region", "rho")
# Most interaction-matrix entries (points times K^2) in one scan stack,
# which bounds the memory of the stacked solver's arrays.
_STACK_ENTRIES = 1 << 16
# Most points in one scan grid (the product of its axis steps), checked
# before any work starts.
_SCAN_POINTS = 10**6
# Keys of the config's verify section, read by cmd_verify.
_VERIFY_KEYS = ("sizes", "n_disorder", "sweeps", "replicas",
                "covariance_total", "covariance_n_disorder", "n_pairs")

_AXIS_RE = re.compile(r"^(beta|lambda|fields)\[(\d+)\](\.v)?$")


class ConfigError(Exception):
    """Problem with the config file or flags; maps to exit code 2."""


class SolveFailure(Exception):
    """A solver could not evaluate a valid model; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ScanAxis:
    """One scanned parameter axis: a path plus an inclusive value range."""

    path: str
    kind: str  # "beta" | "lambda" | "field_v"
    index: int
    lo: float
    hi: float
    steps: int

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.steps)


@dataclasses.dataclass(frozen=True)
class ScanSpec:
    """Validated scan request: one or two axes and the outputs to tabulate."""

    axes: tuple[ScanAxis, ...]
    outputs: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class _Config:
    params: ModelParams
    scan: ScanSpec | None
    solver: dict
    verify: dict


def _parse_axis(obj: dict, params: ModelParams) -> ScanAxis:
    try:
        path = str(obj["path"])
        lo, hi = (machine.config_number(obj[key], f"'{key}'")
                  for key in ("min", "max"))
        steps = machine.config_number(obj["steps"], "'steps'", integral=True)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"scan axis needs path/min/max/steps: {exc}") from exc
    match = _AXIS_RE.match(path)
    if match is None:
        raise ConfigError(
            f"unknown parameter path '{path}' "
            "(expected beta[i], lambda[i] or fields[i].v)")
    name, index_text, suffix = match.groups()
    index = int(index_text)
    if name == "fields" and not suffix:
        raise ConfigError(
            f"field axes must target the variance, e.g. '{path}.v'")
    if name != "fields" and suffix:
        raise ConfigError(f"'.v' applies only to field paths, not '{path}'")
    limit = params.K - 1 if name == "beta" else params.K
    if not 0 <= index < limit:
        raise ConfigError(f"index out of range in '{path}' (K = {params.K})")
    if steps < 2:
        raise ConfigError("scan axes need at least 2 steps")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ConfigError(f"invalid range [{lo}, {hi}] for '{path}'")
    if name == "beta" and lo <= 0.0:
        raise ConfigError("inverse temperatures must stay positive on the grid")
    if name == "lambda" and not (0.0 <= lo and hi <= 1.0):
        raise ConfigError("layer weights must stay within [0, 1] on the grid")
    if name == "fields":
        if lo < 0.0:
            raise ConfigError("field variances must stay non-negative")
        if not params.fields[index].is_centred:
            raise ConfigError(
                f"'{path}' requires a zero or centred-Gaussian base field")
    kind = {"beta": "beta", "lambda": "lambda", "fields": "field_v"}[name]
    return ScanAxis(path=path, kind=kind, index=index, lo=lo, hi=hi, steps=steps)


def _parse_scan(obj, params: ModelParams) -> ScanSpec:
    if not isinstance(obj, dict):
        raise ConfigError("the scan section must be a JSON object")
    axes_raw = obj.get("axes")
    if not isinstance(axes_raw, list) or not 1 <= len(axes_raw) <= 2:
        raise ConfigError("scan needs an axes list with one or two entries")
    axes = tuple(_parse_axis(a, params) for a in axes_raw)
    if len({(axis.kind, axis.index) for axis in axes}) < len(axes):
        raise ConfigError(f"repeated scan axis '{axes[-1].path}'; "
                          "scan each parameter on one axis")
    if math.prod(axis.steps for axis in axes) > _SCAN_POINTS:
        raise ConfigError(f"the scan grid has more than {_SCAN_POINTS} "
                          "points; lower the axis steps")
    outputs = obj.get("outputs", list(_DEFAULT_OUTPUTS))
    if not (isinstance(outputs, list)
            and all(isinstance(o, str) for o in outputs)):
        raise ConfigError("scan outputs must be a JSON list of strings")
    outputs = tuple(outputs)
    unknown = [o for o in outputs if o not in _OUTPUT_COLUMNS]
    if unknown:
        raise ConfigError(
            f"unknown scan outputs {unknown}; "
            f"choose from {sorted(_OUTPUT_COLUMNS)}")
    repeated = sorted({o for o in outputs if outputs.count(o) > 1})
    if repeated:
        raise ConfigError(f"repeated scan outputs {repeated}; "
                          "name each output once")
    return ScanSpec(axes=axes, outputs=outputs)


def _load_config(path: str) -> _Config:
    """The config at ``path``, read as UTF-8 JSON text (RFC 8259).

    Line ends are read as text mode reads them (``\\r\\n`` and ``\\r`` as
    ``\\n``), so JSON's error positions count the same characters.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config is nested too deeply: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    try:
        params = ModelParams.from_dict(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid model parameters: {exc}") from exc
    scan = _parse_scan(raw["scan"], params) if "scan" in raw else None
    solver = raw.get("solver", {})
    verify = raw.get("verify", {})
    if not isinstance(solver, dict) or not isinstance(verify, dict):
        raise ConfigError("solver/verify sections must be JSON objects")
    unknown = sorted(set(solver) - {"tol"})
    if unknown:
        raise ConfigError(f"unknown solver settings {unknown}; "
                          "the solver section takes only 'tol'")
    unknown = sorted(set(verify) - set(_VERIFY_KEYS))
    if unknown:
        raise ConfigError(f"unknown verify settings {unknown}; "
                          f"the verify section takes {list(_VERIFY_KEYS)}")
    return _Config(params=params, scan=scan, solver=solver, verify=verify)


def _grid_stack(base: ModelParams, axes, start: int, stop: int):
    """The grid points ``start`` to ``stop`` (in ``itertools.product``
    order): their axis values, a row per point, and their models as one
    :class:`rs_solver._Stack`, written straight from the axes.

    Scanned values replace the base model's, a field axis gives its layer
    a centred Gaussian field, and scanned layer weights renormalize the
    rest (in proportion, or equally when the rest has no mass).  The base
    model and the axis ranges are checked already; the first invalid point
    raises :class:`ConfigError` with its own ``ModelParams`` message.
    """
    K = base.K
    n = stop - start
    index = np.unravel_index(np.arange(start, stop),
                             [axis.steps for axis in axes])
    points = np.empty((n, len(axes)))
    for k, (axis, i) in enumerate(zip(axes, index)):
        points[:, k] = axis.values()[i]
    fields = list(base.fields)
    beta, lam, v = np.empty((n, K - 1)), np.empty((n, K)), np.empty((n, K))
    beta[:], lam[:], v[:] = base.beta, base.lam, [field.v for field in fields]
    scanned: dict[int, np.ndarray] = {}
    for axis, column in zip(axes, points.T):
        if axis.kind == "beta":
            beta[:, axis.index] = column
        elif axis.kind == "field_v":
            fields[axis.index] = FieldSpec.zero()
            v[:, axis.index] = column
        else:
            scanned[axis.index] = column
    lam_error = np.zeros(n, dtype=bool)
    if scanned:
        total = sum(scanned.values())
        for i, column in scanned.items():
            lam[:, i] = column
        rest = [i for i in range(K) if i not in scanned]
        remaining = 1.0 - total
        if rest:
            lam_error = remaining < -1e-12
            rest_mass = sum(base.lam[i] for i in rest)
            if rest_mass > 0.0:
                lam[:, rest] = (np.asarray(base.lam)[rest] * remaining[:, None]
                                / rest_mass)
            else:
                lam[:, rest] = (remaining / len(rest))[:, None]
        else:
            lam_error = np.abs(total - 1.0) > 1e-9
    with np.errstate(over="ignore"):
        valid = (np.logical_and.reduce(
            (beta > 0.0) & np.isfinite(4.0 * beta * beta * beta * beta), axis=1)
                 & np.logical_and.reduce(np.isfinite(lam) & (lam >= 0.0), axis=1)
                 & (np.abs(lam.sum(axis=1) - 1.0) <= 1e-9))
    for i in np.flatnonzero(lam_error | ~valid).tolist():
        if lam_error[i]:
            if rest:
                raise ConfigError(f"scanned layer weights sum to "
                                  f"{float(total[i])} > 1 at a grid point")
            raise ConfigError(
                "scanning every layer weight requires the values to sum to one")
        try:
            ModelParams(K=K, beta=tuple(beta[i].tolist()),
                        lam=tuple(lam[i].tolist()))
        except ValueError as exc:
            raise ConfigError(f"invalid model at a grid point: {exc}") from exc
    table = ghquad.FieldTable(fields).take(np.arange(n * K) % K, v.ravel())
    return points, rs_solver._Stack.rows(beta, lam, table)


def _grid_stacks(base: ModelParams, axes):
    """The scan grid as :func:`_grid_stack` stacks of at most
    ``_STACK_ENTRIES`` matrix entries (points times ``K^2``), in grid
    order."""
    points = math.prod(axis.steps for axis in axes)
    size = max(1, _STACK_ENTRIES // base.K ** 2)
    for start in range(0, points, size):
        yield _grid_stack(base, axes, start, min(start + size, points))


# ---------------------------------------------------------------------------
# output formatting
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv_table(header, columns) -> str:
    """CSV text with the ``header`` line and one line per row of
    ``columns``, a list of values per column, each column formatted once."""
    lines = map(",".join, zip(*(map(_cell, column) for column in columns)))
    return "\n".join([",".join(header), *lines]) + "\n"


def _json_text(payload: dict) -> str:
    """``payload`` as indented JSON text, byte for byte
    ``json.dumps(payload, indent=2) + "\\n"`` (which, given an ``indent``,
    takes CPython's slower pure-Python encoder).

    That holds for dicts with ``str`` keys, lists, tuples, strings, ints,
    floats (``NaN``, ``Infinity`` and ``-Infinity`` spelled as ``json``
    spells them), booleans and ``None``, and for their subclasses, such as
    ``np.float64``.  Any other value, ``np.bool_`` and ``np.int64``
    included, raises ``TypeError`` as ``json.dumps`` does; so does any
    other key.  A container's ``float``, ``str``, ``bool`` and ``None``
    items are written inline, and the keys of the dicts that share a key
    set, such as a scan's rows, are encoded once, into one format string
    that every such dict fills.
    """
    return _json_value(payload, "\n", {}) + "\n"


# The JSON types, which _json_value dispatches on exactly.
_JSON_KINDS = frozenset((dict, list, tuple, str, int, float, bool, type(None)))
# json's spellings of the float reprs that are no JSON number.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_json_str = json.encoder.encode_basestring_ascii


def _json_value(value, newline: str, forms: dict) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the
    nesting level whose line break and indent is ``newline``.  ``forms``
    holds the format string of each dict key set met so far, keyed by its
    indent and keys."""
    kind = type(value)
    if kind not in _JSON_KINDS:
        kind = _json_base(value)
    if kind is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if kind is str:
        return _json_str(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        key = (inner, *value)
        form = forms.get(key)
        if form is None:
            # _json_str refuses a key that is no str, before it is kept.
            form = forms[key] = "{" + ",".join([
                inner + _json_str(name).replace("%", "%%") + ": %s"
                for name in value]) + newline + "}"
        return form % tuple(_json_items(value.values(), inner, forms))
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = _json_items(value, inner, forms)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    return "null"


def _json_items(values, newline: str, forms: dict) -> list[str]:
    """The texts of a container's items at the level of ``newline``: the
    scalars of the four common types inline, the others by
    :func:`_json_value`."""
    out = []
    for item in values:
        kind = type(item)
        if kind is float:
            text = float.__repr__(item)
            out.append(_NON_FINITE[text] if text in _NON_FINITE else text)
        elif kind is str:
            out.append(_json_str(item))
        elif item is None:
            out.append("null")
        elif kind is bool:
            out.append("true" if item else "false")
        else:
            out.append(_json_value(item, newline, forms))
    return out


def _json_base(value) -> type:
    """The JSON type a subclass instance is written as, in ``json``'s
    order of checks; ``TypeError`` for what ``json.dumps`` refuses."""
    for kind in (str, int, float, list, tuple, dict):
        if isinstance(value, kind):
            return kind
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _flatten_kv(prefix: str, value) -> list[tuple[str, object]]:
    if isinstance(value, dict):
        out = []
        for key, sub in value.items():
            out.extend(_flatten_kv(f"{prefix}.{key}" if prefix else key, sub))
        return out
    if isinstance(value, (list, tuple, np.ndarray)):
        out = []
        for i, sub in enumerate(value):
            out.extend(_flatten_kv(f"{prefix}[{i}]", sub))
        return out
    return [(prefix, value)]


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from exc


# ---------------------------------------------------------------------------
# shared solver plumbing
# ---------------------------------------------------------------------------


def _number(value, what: str, kind=float):
    """``value`` as a JSON number of type ``kind`` (``float`` or ``int``).

    Booleans, strings and, for ``int``, fractional numbers are usage
    errors (:func:`machine.config_number`).
    """
    try:
        return machine.config_number(value, what, integral=kind is int)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid value: {exc}") from exc


def _setting(section: dict, key: str, default, kind):
    """``section[key]`` (or ``default``) read by :func:`_number`."""
    return _number(section.get(key, default), f"'{key}'", kind)


def _tol(args, config: _Config) -> float:
    tol = (float(args.tol) if args.tol is not None
           else _setting(config.solver, "tol", 1e-10, float))
    if not 0.0 < tol < 1.0:
        raise ConfigError(
            f"the solver tolerance must lie in (0, 1), got {tol}")
    return tol


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_region(config: _Config, args) -> tuple[str, bool]:
    axes = config.scan.axes if config.scan is not None else ()
    columns = [axis.path for axis in axes] + ["rho", "verdict", "witness"]
    if axes:
        values = [[] for _ in columns]
        for points, stack in _grid_stacks(config.params, axes):
            regions = stack.regions
            parts = points.T.tolist() + [regions.rho, regions.verdict,
                                         regions.witness]
            for column, part in zip(values, parts):
                column += part
    else:
        params = config.params
        regions = machine._classify(params, machine.spectral_radius(params))
        values = [regions.rho, regions.verdict, regions.witness]
    if args.format == "json":
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        return _json_text({"command": "region", "rows": rows}), True
    return _csv_table(columns[:-1], values[:-1]), True


def cmd_poly(config: _Config, args) -> tuple[str, bool]:
    params = config.params
    t = machine.activities(params)
    # The largest zero is the spectral radius of the interaction matrix.
    zeros = [float(z) for z in chainpoly.zeros(t)]
    payload = {
        "command": "poly",
        "activities": [float(x) for x in t],
        "coefficients": [float(c) for c in chainpoly.coefficients(t)],
        "zeros": zeros,
        "largest_zero": zeros[-1],
        "spectral_radius": zeros[-1],
        "interlacing_ok": bool(chainpoly.interlacing_check(t)),
    }
    if args.format == "json":
        return _json_text(payload), True
    pairs = [*_flatten_kv("activity", payload["activities"]),
             *_flatten_kv("coefficient", payload["coefficients"]),
             *_flatten_kv("zero", payload["zeros"])]
    pairs += [(key, payload[key]) for key in
              ("largest_zero", "spectral_radius", "interlacing_ok")]
    return _csv_table(("key", "value"), zip(*pairs)), True


def cmd_rs(config: _Config, args) -> tuple[str, bool]:
    params = config.params
    tol = _tol(args, config)
    if min(params.lam) <= 0.0:
        raise ConfigError("the rs solver requires strictly positive layer "
                          "weights; prune zero-weight layers from the model")
    solution = rs_solver.solve_nested(params, tol).to_dict()
    p_annealed = float(machine.annealed_pressure(params))
    if args.format == "json":
        return _json_text({"command": "rs", "p_annealed": p_annealed,
                           "solutions": [solution]}), True
    pairs = _flatten_kv(solution.pop("method"), solution)
    pairs.append(("p_annealed", p_annealed))
    return _csv_table(("key", "value"), zip(*pairs)), True


def cmd_bound(config: _Config, args) -> tuple[str, bool]:
    params = config.params
    tol = _tol(args, config)
    try:
        params.require_fields("the bound")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if min(params.lam) <= 0.0:
        raise ConfigError("the bound requires strictly positive layer "
                          "weights; prune zero-weight layers from the model")
    try:
        data = sk_chain_bound.maximize_bound(params, tol).to_dict()
    except ValueError as exc:
        raise SolveFailure(f"the bound failed: {exc}") from exc
    p_annealed = float(machine.annealed_pressure(params))
    flags = [] if data["certified"] else ["uncertified"]
    payload = {"command": "bound", **data, "p_annealed": p_annealed,
               "annealed_gap": p_annealed - data["value"], "flags": flags}
    if args.format == "json":
        return _json_text(payload), True
    pairs = _flatten_kv("", {k: v for k, v in payload.items()
                             if k not in ("command", "flags")})
    pairs.append(("flags", ";".join(flags)))
    return _csv_table(("key", "value"), zip(*pairs)), True


def _criteria_consistent(params: ModelParams) -> bool:
    """Whether the spectral, chain-positivity and witness criteria agree.

    A witness withheld only because its recursion left the floats (an
    entry overflowed to ``inf`` or is not a number, and none is zero or
    negative) says nothing, so it agrees.
    """
    regions = machine._classify(params, machine.spectral_radius(params))
    inside = regions.rho[0] < 1.0
    return regions.verdict[0] == "boundary" or (
        inside == bool(np.all(regions.z_chain[0] > 0.0))
        and (min(params.lam) <= 0.0
             or inside == (regions.witness[0] is not None)
             or not np.any(machine.witness_recursion(params) <= 0.0)))


def cmd_verify(config: _Config, args) -> tuple[str, bool]:
    # Imported here, so that the other commands need not load it.
    from . import finite_volume_lab

    params = config.params
    section = config.verify
    totals = section.get("sizes", [12, 18, 24])
    if not isinstance(totals, list):
        raise ConfigError("'sizes' must be a JSON list of integers")
    totals = [_number(n, "'sizes' entries", int) for n in totals]
    n_disorder = _setting(section, "n_disorder", 200, int)
    sweeps = _setting(section, "sweeps", 400, int)
    replicas = _setting(section, "replicas", 21, int)
    cov_total = _setting(section, "covariance_total", 12, int)
    cov_n = _setting(section, "covariance_n_disorder", 1000, int)
    n_pairs = _setting(section, "n_pairs", 10, int)
    # Every size and count is checked before the first size is computed.
    cap = finite_volume_lab.MC_SPIN_CAP
    for what, counts in (("'sizes' entries", totals),
                         ("'covariance_total'", [cov_total])):
        if not all(1 <= n <= cap for n in counts):
            raise ConfigError(f"invalid value: {what} must lie between 1 "
                              f"and {cap}: verify is capped at {cap} spins")
    for key, n, low, high in (
            ("n_disorder", n_disorder, 1, finite_volume_lab.COUNT_CAP),
            ("sweeps", sweeps, 2, finite_volume_lab.COUNT_CAP),
            ("replicas", replicas, 1, finite_volume_lab.REPLICA_CAP),
            ("covariance_n_disorder", cov_n, 3, finite_volume_lab.COUNT_CAP),
            ("n_pairs", n_pairs, 1, finite_volume_lab.PAIR_CAP)):
        if not low <= n <= high:
            raise ConfigError(f"invalid value: '{key}' must lie between "
                              f"{low} and {high}")
    records = n_disorder * (sweeps - sweeps // 2) * replicas
    if (max(totals, default=0) > finite_volume_lab.EXACT_SPIN_CAP
            and records > finite_volume_lab.MC_RECORD_CAP):
        raise ConfigError(
            f"invalid value: the Monte Carlo records of n_disorder x "
            f"(sweeps - sweeps // 2) x replicas = {records} entries exceed "
            f"{finite_volume_lab.MC_RECORD_CAP}")
    try:
        assignments = [
            finite_volume_lab.LayerAssignment.from_weights(params.lam, n)
            for n in totals]
        report = finite_volume_lab.annealed_trend(
            params, assignments, n_disorder, args.seed,
            sweeps=sweeps, replicas=replicas)
        cov_assignment = finite_volume_lab.LayerAssignment.from_weights(
            params.lam, cov_total)
        cov_rows = finite_volume_lab.covariance_report(
            cov_assignment, params, cov_n, args.seed, n_pairs=n_pairs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    worst = max(row.standardized for row in cov_rows)
    consistent = _criteria_consistent(params)
    ok = bool(report.jensen_ok and worst < 5.0 and consistent)
    if args.format == "json":
        payload = {
            "command": "verify",
            "trend": report.to_dict(),
            "covariance": {"worst": float(worst),
                           "rows": [row.to_dict() for row in cov_rows]},
            "criteria_consistent": consistent,
            "ok": ok,
        }
        return _json_text(payload), ok
    columns = [f.name for f in dataclasses.fields(finite_volume_lab.TrendRow)]
    values = [[getattr(row, name) for row in report.rows] for name in columns]
    flags = columns.index("flags")
    values[flags] = [";".join(tags) for tags in values[flags]]
    return _csv_table(columns, values), ok


def cmd_scan(config: _Config, args) -> tuple[str, bool]:
    """Tabulate the scan outputs at every grid point.

    The grid's points share ``K``, so they are held as one stack of arrays,
    a point per row, written straight from the axes (:func:`_grid_stack`),
    and built, classified and solved as one: one classification, the
    stack's own (``_Stack.regions``, from its spectral radii), made only
    when ``region`` or ``rho`` is asked for or a zero-field point is solved,
    one solve (``rs_solver._solved``, which reads that classification off
    the stack and puts the zero-field points with a witness at ``q = 0``,
    and the others through one Newton iteration, and which the stack
    keeps), one bound read (``sk_chain_bound._bound_columns``, which reads
    the bound off the stack's solve) and one certificate pass serve every
    point, each with the bits of its own ``region``, ``rs`` or ``bound``
    run.  Every output is a column of the stack's results, read as it is
    (:func:`_scan_columns`): no per-point record is built.  A point whose
    solve fails gets ``rs_failed`` or ``bound_failed`` on its own row, and
    the other points go on.  A grid with more than ``_STACK_ENTRIES``
    matrix entries (points times ``K^2``) is cut into stacks of at most
    that many, solved one after the other.
    """
    if config.scan is None:
        raise ConfigError("the scan command requires a scan section in the config")
    scan = config.scan
    tol = _tol(args, config)
    columns = [axis.path for axis in scan.axes]
    for name in scan.outputs:
        columns.extend(_OUTPUT_COLUMNS[name])
    columns.append("flags")
    values = [[] for _ in columns]
    for points, stack in _grid_stacks(config.params, scan.axes):
        parts = _scan_columns(scan, tol, points, stack)
        for column, part in zip(values, parts):
            column += part
    if args.format == "json":
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        return _json_text({"command": "scan", "columns": columns,
                           "rows": rows}), True
    return _csv_table(columns, values), True


def _scan_columns(scan: ScanSpec, tol: float, points, stack) -> list:
    """The columns of the scan table at the grid points of ``stack``,
    whose axis values are the rows of ``points``, solved as one stack: the
    axis values, the outputs' columns and the flags, a list of values
    each.

    Each output column is read once off the stack's columns (its
    classification, ``_Stack.regions``, its solve, ``rs_solver._solved``,
    and its bound, ``sk_chain_bound._bound_columns``); a failed point's
    values are ``None``.  The flags are built from the failure columns:
    ``rs_failed`` where the consistency solve failed (when ``rs_pressure``
    or ``certificates`` is an output), ``bound_failed`` where the bound
    did, and ``uncertified`` where the bound's certificate is false.
    """
    outputs = scan.outputs
    columns = points.T.tolist()
    tags = []
    if "region" in outputs or "rho" in outputs:
        regions = stack.regions
    rs = "rs_pressure" in outputs or "certificates" in outputs
    if rs:
        solved = rs_solver._solved(stack, tol)
        tags.append(["rs_failed" if failure is not None else ""
                     for failure in solved.failure])
    for name in outputs:
        if name == "region":
            columns.append(regions.verdict)
        elif name == "rho":
            columns.append(regions.rho)
        elif name == "rs_pressure":
            columns.append(solved.pressure)
        elif name == "certificates":
            columns += [solved.talagrand_ok, solved.at_ok,
                        solved.stable_at_zero]
        elif name == "bound":
            bound = sk_chain_bound._bound_columns(stack, tol)
            columns += [bound.value, bound.certified]
            tags.append(["bound_failed" if failure is not None
                         else "" if certified else "uncertified"
                         for failure, certified in zip(bound.failure,
                                                       bound.certified)])
    columns.append([";".join(filter(None, point)) for point in zip(*tags)]
                   if tags else [""] * len(stack))
    return columns


_HANDLERS = {
    "region": cmd_region,
    "poly": cmd_poly,
    "rs": cmd_rs,
    "bound": cmd_bound,
    "verify": cmd_verify,
    "scan": cmd_scan,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` keeps no state between calls, so every call of
    :func:`main` can share it.
    """
    parser = argparse.ArgumentParser(
        prog="dbmlab",
        description="Numerics for layered mean-field spin systems: "
                    "region classification, chain polynomials, consistency "
                    "solutions, pressure bounds and finite-size checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "region": "classify points of the annealed region",
        "poly": "report the chain polynomial of the configured model",
        "rs": "solve the consistency equations with certificates",
        "bound": "maximize the variational lower bound",
        "verify": "run finite-size trend and covariance checks",
        "scan": "evaluate selected quantities over a parameter grid",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", required=True,
                       help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed of verify's random draws "
                            "(default 0); the other commands ignore it")
        p.add_argument("--out", default=None,
                       help="output file path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--tol", type=float, default=None,
                       help="solver tolerance (default: config or 1e-10)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        text, ok = _HANDLERS[args.command](config, args)
        _emit(text, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except rs_solver.SolverError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 1
    except SolveFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
