"""Layered chain spin models: parameters, activities, annealed quantities.

A model has ``K`` layers carrying fractions ``lam`` of the spins (a point on
the simplex), inverse temperatures ``beta_p > 0`` on the ``K-1`` consecutive
layer pairs, and an external field law per layer.  All interaction structure
is carried by three matrices:

* ``M0``: zero-diagonal tridiagonal with off-diagonal entries ``beta_p**2``;
* ``M1 = diag(lam) @ M0 @ diag(lam)`` (the quadratic-form weights);
* ``M  = 2 * M0 @ diag(lam)`` (the consistency-map linearisation at zero).

The characteristic polynomial of ``M`` is the chain matching polynomial with
activities ``t_p = 4 lam_p beta_p^4 lam_{p+1}`` (:mod:`dbmlab.chainpoly`), so
the spectral radius of ``M`` is the largest matching-polynomial zero.  The
annealed pressure is ``log 2 + sum_p lam_p beta_p^2 lam_{p+1}``, and the
annealed region is the set of parameters where ``rho(M) < 1`` — equivalently
where the chain values ``z_p = Delta_p(1; t)`` stay positive, equivalently
where the forward witness recursion for the layer inequality system stays
positive.

The functions of the parameters below also take a stack of ``P`` same-``K``
points, any object with ``beta`` ``(P, K - 1)`` and ``lam`` ``(P, K)``
arrays (a scan grid's rows), and give a row or an entry per point.  Their
arithmetic is element-wise and each sum runs along its own row, so every
point gets the bits of its own call.  :func:`classify_annealed` builds one
model's record; a stack, and ``region`` on one model, read the same
classification as columns (:func:`_classify`), which derive the chain
values and the witnesses only when they are read.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import chainpoly

__all__ = [
    "FieldSpec",
    "ModelParams",
    "RegionVerdict",
    "ExtremalLambda",
    "activities",
    "annealed_pressure",
    "interaction_half_quadratic",
    "build_matrices",
    "spectral_radius",
    "classify_annealed",
    "witness_recursion",
    "extremal_lambda",
    "config_number",
    "config_numbers",
    "json_form",
]

MAX_FIELD_ATOMS = 64
_SIMPLEX_TOL = 1e-9
# Half-width of the band about rho = 1 that classify_annealed reports as
# the boundary.
_BOUNDARY_TOL = 1e-9


def config_number(value, what: str, integral: bool = False):
    """``value`` read from a JSON config as a ``float``, or ``int`` if ``integral``.

    Only JSON numbers load: booleans and numeric strings raise
    ``ValueError`` although ``float()`` would take them, since ``true`` or
    ``"0.7"`` where a number belongs is a malformed config.  ``integral``
    also refuses numbers with a fractional part (``3.0`` loads as ``3``).
    """
    # ``float`` and ``int`` come first: the ABC checks cost far more.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{what} must be a JSON number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, (int, numbers.Integral)):
        return int(value)
    if not float(value).is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def config_numbers(values, what: str) -> tuple[float, ...]:
    """A JSON list of numbers as floats, each read as by :func:`config_number`."""
    values = list(values)
    # Plain ``int``/``float`` lists, the JSON case, skip the per-entry call.
    if not {type(v) for v in values} <= {float, int}:
        for v in values:
            config_number(v, what)
    return tuple(map(float, values))


def json_form(value):
    """``value`` in JSON's types: the ``to_dict`` of a result record.

    A dataclass becomes the dict of its fields, so a record's JSON keys
    follow its field order; arrays and tuples become lists, NumPy scalars
    the Python values they hold, and every other value (``bool``, ``int``,
    ``float``, ``str`` or ``None``) stays as it is.  Each field is converted
    in turn, so a record of records becomes a dict of dicts.
    """
    if dataclasses.is_dataclass(value):
        return {f.name: json_form(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [json_form(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


@dataclass(frozen=True)
class FieldSpec:
    """External field law for one layer: ``h = sqrt(v) z + X``.

    ``z`` is standard normal and ``X`` an independent discrete variable
    with atoms ``values`` and probabilities ``probs`` (at most
    ``MAX_FIELD_ATOMS``).  A field is its law, so a point mass at 0, a
    one-atom discrete law at 0 and a Gaussian of variance 0 are all the
    zero field and compare equal.  A Gaussian part is only allowed with the
    single atom 0: a law with both has no JSON form.  :attr:`kind` names
    the law for :meth:`to_dict` and for messages.
    """

    v: float = 0.0
    values: tuple[float, ...] = (0.0,)
    probs: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        v, values, probs = self.v, self.values, self.probs
        if not (math.isfinite(v) and v >= 0.0):
            raise ValueError("field variance v must be finite and >= 0")
        if values == (0.0,) and probs == (1.0,):
            return  # the centred atom: nothing more to check
        n = len(values)
        if not (1 <= n <= MAX_FIELD_ATOMS and len(probs) == n):
            raise ValueError(f"a field needs 1..{MAX_FIELD_ATOMS} atoms "
                             "and one probability per atom")
        if not all(map(math.isfinite, values)):
            raise ValueError("field atoms must be finite")
        # A NaN probability makes the sum NaN, which fails the test.
        if not (min(probs) >= 0.0 and abs(sum(probs) - 1.0) <= _SIMPLEX_TOL):
            raise ValueError("field probabilities must be a distribution")
        if v > 0.0 and (n > 1 or values[0] != 0.0):
            raise ValueError("a field cannot have both a Gaussian part "
                             "and atoms other than the single atom 0")
        if n == 1 and probs != (1.0,):
            object.__setattr__(self, "probs", (1.0,))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "FieldSpec":
        return FieldSpec()

    @staticmethod
    def gaussian(v: float) -> "FieldSpec":
        return FieldSpec(v=float(v))

    @staticmethod
    def point_mass(h0: float) -> "FieldSpec":
        return FieldSpec(values=(float(h0),))

    @staticmethod
    def discrete(values: Sequence[float], probs: Sequence[float]) -> "FieldSpec":
        return FieldSpec(values=tuple(float(x) for x in values),
                         probs=tuple(float(p) for p in probs))

    # -- the law ------------------------------------------------------------

    @property
    def kind(self) -> str:
        """``discrete`` for several atoms, ``point_mass`` for one nonzero
        atom, else ``gaussian_centered`` if ``v > 0`` and ``zero`` if not."""
        if len(self.values) > 1:
            return "discrete"
        if self.values[0] != 0.0:
            return "point_mass"
        return "gaussian_centered" if self.v > 0.0 else "zero"

    @property
    def is_centred(self) -> bool:
        """Every atom is 0: a zero or centred Gaussian field."""
        return not any(self.values)

    @property
    def is_zero(self) -> bool:
        return self.v == 0.0 and self.is_centred

    def to_dict(self) -> dict:
        """The JSON form, under the canonical :attr:`kind`."""
        kind = self.kind
        if kind == "zero":
            return {"kind": kind}
        if kind == "gaussian_centered":
            return {"kind": kind, "v": self.v}
        if kind == "point_mass":
            return {"kind": kind, "h0": self.values[0]}
        return {"kind": kind, "values": list(self.values), "probs": list(self.probs)}

    @staticmethod
    def from_dict(d: dict) -> "FieldSpec":
        """Field from its JSON form; numbers must be JSON numbers (:func:`config_number`)."""
        if not isinstance(d, dict):
            raise TypeError(f"a field must be an object, not {type(d).__name__}")
        kind = d.get("kind", "zero")
        if kind == "zero":
            return FieldSpec.zero()
        if kind == "gaussian_centered":
            return FieldSpec.gaussian(config_number(d["v"], "a field variance v"))
        if kind == "point_mass":
            return FieldSpec.point_mass(config_number(d["h0"], "a point-mass field h0"))
        if kind == "discrete":
            return FieldSpec.discrete(config_numbers(d["values"], "field atoms"),
                                      config_numbers(d["probs"], "field probabilities"))
        raise ValueError(f"unknown field kind {kind!r}")


def _fields_refused(what: str, layer: int, field: FieldSpec) -> ValueError:
    """The error of ``what``, which takes zero or centred Gaussian fields
    alone, refusing ``field``, the first other field, on layer ``layer``."""
    return ValueError(f"{what} requires zero or centred Gaussian external fields "
                      f"on every layer (layer {layer} has kind '{field.kind}')")


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a K-layer chain model.

    ``beta`` has ``K - 1`` positive entries, ``lam`` is a point on the
    K-simplex (layer widths), and ``fields`` holds one :class:`FieldSpec` per
    layer (defaulting to all-zero fields).
    """

    K: int
    beta: tuple[float, ...]
    lam: tuple[float, ...]
    fields: tuple[FieldSpec, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.K, int) or self.K < 1:
            raise ValueError("K must be a positive integer")
        if self.K > chainpoly.MAX_LAYERS:
            raise ValueError(f"K exceeds MAX_LAYERS = {chainpoly.MAX_LAYERS}")
        if len(self.beta) != self.K - 1:
            raise ValueError("beta must have K - 1 entries")
        if not all(math.isfinite(b) and b > 0.0 for b in self.beta):
            raise ValueError("beta entries must be finite and positive")
        if not all(math.isfinite(4.0 * b * b * b * b) for b in self.beta):
            raise ValueError("beta entries must keep 4 beta^4 finite "
                             "(it bounds the chain activities)")
        if len(self.lam) != self.K:
            raise ValueError("lambda must have K entries")
        lam = np.asarray(self.lam, dtype=float)
        if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
            raise ValueError("lambda entries must be finite and nonnegative")
        if abs(lam.sum() - 1.0) > _SIMPLEX_TOL:
            raise ValueError("lambda must sum to one")
        if self.fields == ():
            object.__setattr__(self, "fields", tuple(FieldSpec.zero() for _ in range(self.K)))
        if len(self.fields) != self.K:
            raise ValueError("fields must have one entry per layer")
        if not all(isinstance(f, FieldSpec) for f in self.fields):
            raise ValueError("fields entries must be FieldSpec instances")

    @property
    def zero_fields(self) -> bool:
        return all(f.is_zero for f in self.fields)

    def require_fields(self, what: str) -> None:
        """Raise ``ValueError`` naming the first layer that ``what`` cannot
        take: every layer must have a zero or centred Gaussian field
        (:attr:`FieldSpec.is_centred`)."""
        for p, f in enumerate(self.fields):
            if not f.is_centred:
                raise _fields_refused(what, p, f)

    def to_dict(self) -> dict:
        return {
            "K": self.K,
            "beta": list(self.beta),
            "lambda": list(self.lam),
            "fields": [f.to_dict() for f in self.fields],
        }

    @staticmethod
    def from_dict(d: dict) -> "ModelParams":
        """Model from its JSON form; numbers must be JSON numbers (:func:`config_number`)."""
        fields = tuple(FieldSpec.from_dict(f) for f in d.get("fields", []))
        return ModelParams(
            K=config_number(d["K"], "K", integral=True),
            beta=config_numbers(d["beta"], "beta entries"),
            lam=config_numbers(d["lambda"], "lambda entries"),
            fields=fields,
        )


@dataclass(frozen=True)
class RegionVerdict:
    """Result of the annealed-region classification.

    ``verdict`` is ``inside`` / ``outside`` / ``boundary`` (the latter when
    ``|rho - 1| <= 1e-9``, :func:`classify_annealed`'s boundary band);
    ``z_chain`` holds the chain values ``(z_0, ..., z_K)`` at ``x = 1``;
    ``feasible_a`` is the witness for the layer inequality system when inside
    (``None`` when outside, on the boundary, when some layer width
    vanishes, or when some entry is not a positive finite float; the empty
    tuple for K = 1).
    The witness saturates the first ``K - 1`` inequalities exactly and
    satisfies the last one strictly; strict interior witnesses follow by an
    arbitrarily small perturbation.
    """

    verdict: str
    rho: float
    z_chain: tuple[float, ...]
    feasible_a: tuple[float, ...] | None


@dataclass(frozen=True)
class ExtremalLambda:
    """Supremum of the spectral radius over layer widths, with maximizers.

    ``value = max_p beta_p^2``.  ``maximizers`` lists width vectors achieving
    the value: equal halves on the endpoints of each maximal edge, and — when
    two consecutive edges are both maximal — the midpoint of the interior
    family ``(x, 1/2, 1/2 - x)`` supported on those three layers.
    """

    value: float
    maximizers: tuple[tuple[float, ...], ...]


# ---------------------------------------------------------------------------
# basic quantities
# ---------------------------------------------------------------------------


def activities(params: ModelParams) -> np.ndarray:
    """Chain activities ``t_p = 4 lam_p beta_p^4 lam_{p+1}``; one row per
    point for a stack."""
    lam = np.asarray(params.lam)
    beta = np.asarray(params.beta)
    return 4.0 * lam[..., :-1] * beta**4 * lam[..., 1:]


def interaction_half_quadratic(params: ModelParams, u: Sequence[float]):
    """``(1/2) u^T M1 u = sum_p lam_p beta_p^2 lam_{p+1} u_p u_{p+1}``.

    Shared by the annealed pressure (``u = 1``) and the replica-symmetric
    pressure functional, so that the two agree exactly where they should.
    A float for one model; for a stack, ``u`` has one row per point and
    the result one entry per point, each the sum of its own row.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(params.lam)
    if u.shape != lam.shape:
        raise ValueError("u must have one entry per layer")
    beta = np.asarray(params.beta)
    terms = lam[..., :-1] * beta**2 * lam[..., 1:] * u[..., :-1] * u[..., 1:]
    # A sum along the last axis adds each row in the order of a row alone.
    total = np.sum(terms, axis=-1)
    return float(total) if total.ndim == 0 else total


def annealed_pressure(params: ModelParams) -> float:
    """``log 2 + sum_p lam_p beta_p^2 lam_{p+1}`` (no field contribution)."""
    return math.log(2.0) + interaction_half_quadratic(params, np.ones(params.K))


def build_matrices(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interaction matrices ``(M0, M1, M)`` (see the module docstring),
    ``(K, K)`` each, or ``(P, K, K)`` for a stack of ``P`` points.

    With ``D = diag(lam)``, ``M1 = D M0 D`` and ``M = 2 M0 D`` are
    scalings of ``M0``'s entries, ``M1_ij = lam_i M0_ij lam_j`` and
    ``M_ij = 2 M0_ij lam_j``; every other term of the matrix products is
    an exact zero, so the scalings have the products' bits.
    """
    lam = np.asarray(params.lam, dtype=float)
    beta_sq = np.asarray(params.beta, dtype=float) ** 2
    K = lam.shape[-1]
    M0 = np.zeros(lam.shape[:-1] + (K, K))
    bonds = np.arange(K - 1)
    M0[..., bonds, bonds + 1] = M0[..., bonds + 1, bonds] = beta_sq
    M1 = lam[..., :, None] * M0 * lam[..., None, :]
    M = 2.0 * M0 * lam[..., None, :]
    return M0, M1, M


def spectral_radius(params: ModelParams):
    """Spectral radius of ``M`` (the largest matching-polynomial zero); one
    per point for a stack."""
    return chainpoly.largest_zero(activities(params))


# ---------------------------------------------------------------------------
# annealed-region classification
# ---------------------------------------------------------------------------


def witness_recursion(params: ModelParams) -> np.ndarray:
    """The witness entries ``a_1, ..., a_{K-1}`` and the last slack, in
    floats; one row per point for a stack.

    The forward recursion

        a_1 = 1 / (2 lam_1 beta_1^2),
        a_p = 1 / (2 lam_p beta_p^2) - (beta_{p-1}^2 / beta_p^2) / a_{p-1},

    gives ``a_p = z_p / (2 lam_p beta_p^2 z_{p-1})``, and the last slack is
    ``1 / (2 lam_K) - beta_{K-1}^2 / a_{K-1}``.  Tiny weights or
    temperatures make it leave the floats, without a warning: entries come
    back as ``inf`` or ``nan``.  Needs ``K >= 2``.
    """
    lam = np.asarray(params.lam, dtype=float).T
    beta_sq = np.asarray(params.beta, dtype=float).T ** 2
    K = lam.shape[0]
    out = np.empty(lam.shape)
    with np.errstate(all="ignore"):
        out[0] = 1.0 / (2.0 * lam[0] * beta_sq[0])
        for p in range(1, K - 1):
            out[p] = 1.0 / (2.0 * lam[p] * beta_sq[p]) - (beta_sq[p - 1] / beta_sq[p]) / out[p - 1]
        out[K - 1] = 1.0 / (2.0 * lam[K - 1]) - beta_sq[K - 2] / out[K - 2]
    return out.T


def classify_annealed(params: ModelParams) -> RegionVerdict:
    """Classify the parameters against the annealed region.

    Computes the spectral radius ``rho``, the chain values
    ``z_p = Delta_p(1; t)``, and — strictly inside with all layer widths
    positive — the feasibility witness: the entries of
    :func:`witness_recursion`, given only when they are finite and they and
    the last slack are positive.  Verdicts within ``1e-9`` of ``rho = 1``
    are reported as ``boundary``.

    Returns a :class:`RegionVerdict`, built from the one row of the
    classification's columns (:func:`_classify`), which a stack of
    same-``K`` points (:attr:`rs_solver._Stack.regions`) reads as they
    are, with one :func:`chainpoly.largest_zero` call, one chain recursion
    and one witness recursion, each a row expression, so every point gets
    the verdict of its own call.
    """
    regions = _classify(params, spectral_radius(params))
    return RegionVerdict(verdict=regions.verdict[0], rho=regions.rho[0],
                         z_chain=tuple(regions.z_chain[0].tolist()),
                         feasible_a=regions.witness[0])


class _Regions:
    """The classification of same-K points as columns, a point per entry.

    ``verdict`` and ``rho`` are lists, the fields of each point's
    :class:`RegionVerdict`.  :attr:`z_chain` and :attr:`witness` derive
    the other two fields on first use, once, from the points' ``beta``
    ``(P, K - 1)`` and ``lam`` ``(P, K)`` arrays (one model's ``(K - 1,)``
    and ``(K,)``, whose recursions run on scalars), by one chain recursion
    and one witness recursion, so that a scan that reads the verdicts alone
    derives neither.
    """

    def __init__(self, beta, lam, rho):
        self.beta, self.lam, self.rho = beta, lam, rho
        self.verdict = ["inside" if r < 1.0 - _BOUNDARY_TOL
                        else "outside" if r > 1.0 + _BOUNDARY_TOL
                        else "boundary" for r in rho]

    @functools.cached_property
    def z_chain(self) -> np.ndarray:
        """The ``(P, K + 1)`` array of the points' chain values."""
        return chainpoly.eval_sequence(1.0, activities(self)).reshape(
            len(self.rho), -1)

    @functools.cached_property
    def witness(self) -> list:
        """The points' ``feasible_a``: strictly inside with every width
        positive, the entries of :func:`witness_recursion` when they are
        finite and they and the last slack are positive, else ``None``."""
        K = self.lam.shape[-1]
        inside = [verdict == "inside" for verdict in self.verdict]
        witness = [() if within and K == 1 else None for within in inside]
        if K > 1 and any(inside):
            entries = witness_recursion(self).reshape(len(self.rho), K)
            a = entries[:, :-1]
            valid = (np.logical_and.reduce((0.0 < a) & (a < math.inf), axis=1)
                     & (entries[:, -1] > 0.0)
                     & (np.minimum.reduce(self.lam, axis=-1) > 0.0)).tolist()
            for i, (ok, within, row) in enumerate(zip(valid, inside,
                                                      a.tolist())):
                if ok and within:
                    witness[i] = tuple(row)
        return witness


def _classify(params: ModelParams, rho) -> _Regions:
    """The :func:`classify_annealed` columns (:class:`_Regions`) of
    ``params`` whose spectral radius is ``rho``, a float for one model, or
    one per point for a stack: the verdicts and radii at once, the chain
    values and witnesses when asked for."""
    lam = np.asarray(params.lam, dtype=float)
    return _Regions(np.asarray(params.beta, dtype=float), lam,
                    [rho] if lam.ndim == 1 else rho.tolist())


# ---------------------------------------------------------------------------
# extremal layer widths
# ---------------------------------------------------------------------------


def extremal_lambda(beta: Sequence[float]) -> ExtremalLambda:
    """Supremum over layer widths of the spectral radius, ``max_p beta_p^2``.

    Maximizers returned: for each edge ``p`` with maximal ``beta_p``, the
    vector with ``1/2`` on layers ``p`` and ``p+1``; for each pair of
    consecutive maximal edges, the midpoint ``(..., 1/4, 1/2, 1/4, ...)`` of
    the one-parameter family that also achieves the value.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size < 1:
        raise ValueError("need at least one edge")
    if np.any(beta <= 0.0) or not np.all(np.isfinite(beta)):
        raise ValueError("beta entries must be finite and positive")
    K = beta.size + 1
    beta_sq = beta**2
    value = float(beta_sq.max())
    tol = 1e-12 * value
    maximizers: list[tuple[float, ...]] = []
    for p in range(K - 1):
        if beta_sq[p] >= value - tol:
            lam = np.zeros(K)
            lam[p] = lam[p + 1] = 0.5
            maximizers.append(tuple(lam))
    for p in range(1, K - 1):
        if beta_sq[p - 1] >= value - tol and beta_sq[p] >= value - tol:
            lam = np.zeros(K)
            lam[p - 1], lam[p], lam[p + 1] = 0.25, 0.5, 0.25
            maximizers.append(tuple(lam))
    return ExtremalLambda(value=value, maximizers=tuple(maximizers))
