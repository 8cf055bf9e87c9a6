"""Seeded random model instances, and the CSV spelling of JSON values,
shared across the test suite."""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from dbmlab.machine import FieldSpec, ModelParams


def random_lambda(rng: np.random.Generator, K: int, floor: float = 0.0) -> tuple[float, ...]:
    """Random point on the simplex, optionally bounded away from the faces."""
    lam = rng.dirichlet(np.ones(K))
    if floor > 0.0:
        lam = (1.0 - K * floor) * lam + floor
    return tuple(float(v) for v in lam)


def random_field(rng: np.random.Generator, kind: str,
                 v_lo: float = 0.05, v_hi: float = 1.0) -> FieldSpec:
    if kind == "zero":
        return FieldSpec.zero()
    if kind == "gaussian":
        return FieldSpec.gaussian(float(rng.uniform(v_lo, v_hi)))
    if kind == "point_mass":
        return FieldSpec.point_mass(float(rng.uniform(-1.0, 1.0)))
    if kind == "discrete":
        n = int(rng.integers(2, 5))
        values = rng.uniform(-1.5, 1.5, size=n)
        probs = rng.dirichlet(np.ones(n))
        return FieldSpec.discrete(tuple(values), tuple(probs))
    raise ValueError(kind)


def random_params(rng: np.random.Generator,
                  K: int | None = None,
                  k_range: tuple[int, int] = (2, 10),
                  beta_range: tuple[float, float] = (0.2, 1.5),
                  lam_floor: float = 0.0,
                  field_kind: str = "zero",
                  v_range: tuple[float, float] = (0.05, 1.0)) -> ModelParams:
    """Draw a random chain model.

    ``field_kind`` is one of ``zero | gaussian | point_mass | discrete |
    mixed`` (``mixed`` draws a kind per layer).
    """
    if K is None:
        K = int(rng.integers(k_range[0], k_range[1] + 1))
    beta = tuple(float(b) for b in rng.uniform(*beta_range, size=max(K - 1, 0)))
    lam = random_lambda(rng, K, floor=lam_floor)
    kinds = {"zero", "gaussian", "point_mass", "discrete"}
    fields = []
    for _ in range(K):
        kind = field_kind
        if field_kind == "mixed":
            kind = rng.choice(sorted(kinds))
        fields.append(random_field(rng, kind, *v_range))
    return ModelParams(K=K, beta=beta, lam=lam, fields=tuple(fields))


def _normalized(weights) -> list[float]:
    total = sum(weights)
    return [w / total for w in weights]


def field_specs() -> st.SearchStrategy:
    """Hypothesis strategy over every field kind."""
    atoms = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.01, 1.0)),
                     min_size=1, max_size=4)
    return st.one_of(
        st.just(FieldSpec.zero()),
        st.floats(0.0, 5.0).map(FieldSpec.gaussian),
        st.floats(-3.0, 3.0).map(FieldSpec.point_mass),
        atoms.map(lambda pairs: FieldSpec.discrete(
            [h for h, _ in pairs], _normalized([w for _, w in pairs]))),
    )


@st.composite
def model_params(draw, k_range: tuple[int, int] = (1, 6),
                 zero_weights: bool = True,
                 beta_max: float = 3.0) -> ModelParams:
    """Hypothesis strategy over chain models with any mix of field kinds.

    ``zero_weights=False`` keeps every layer weight positive; couplings are
    drawn from ``[0.05, beta_max]``.
    """
    K = draw(st.integers(*k_range))
    beta = draw(st.lists(st.floats(0.05, beta_max), min_size=K - 1,
                         max_size=K - 1))
    weight = st.floats(0.01, 1.0)
    if zero_weights:
        weight = st.one_of(st.just(0.0), weight)
    weights = draw(st.lists(weight, min_size=K, max_size=K).filter(any))
    fields = draw(st.lists(field_specs(), min_size=K, max_size=K))
    return ModelParams(K=K, beta=tuple(beta), lam=tuple(_normalized(weights)),
                       fields=tuple(fields))


# Booleans and numeric strings stand where numbers belong; ``float()`` would
# take them, the config loader must not.
_NOT_NUMBERS = st.one_of(st.booleans(),
                         st.sampled_from(["0.7", "1", "2", "0.5", "nan"]))
_JSON_LEAVES = st.one_of(st.none(), _NOT_NUMBERS, st.integers(-2, 14),
                         st.floats(), st.text(max_size=4),
                         st.sampled_from([1e-300, 1e77, 1e300, 10**400]))
_FIELD_KEYS = ("kind", "v", "h0", "values", "probs")
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(_FIELD_KEYS), children,
                                        max_size=3)),
    max_leaves=8)
_SECTION_PARTS = ("K", "beta", "lambda", "fields", "beta[]", "lambda[]",
                  "fields[]")


@st.composite
def model_sections(draw, k_range: tuple[int, int] = (1, 4)) -> dict:
    """Hypothesis strategy over the model section of a JSON config.

    Starts from a valid model and replaces or deletes up to two of its
    parts (a whole key or one list entry) with arbitrary JSON values.
    """
    section = draw(model_params(k_range)).to_dict()
    for part in draw(st.lists(st.sampled_from(_SECTION_PARTS), max_size=2,
                              unique=True)):
        key = part.rstrip("[]")
        if part != key:
            entries = section.get(key)
            if isinstance(entries, list) and entries:
                index = draw(st.integers(0, len(entries) - 1))
                entries[index] = draw(_JSON_VALUES)
        elif draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(_JSON_VALUES)
    return section


@st.composite
def mistyped_model_sections(draw, k_range: tuple[int, int] = (1, 4)) -> dict:
    """A valid model section with one of its numbers replaced by a boolean
    or a numeric string: ``K``, a ``beta`` or ``lambda`` entry, or a number
    of a field."""
    section = draw(model_params(k_range)).to_dict()
    slots = [(section, "K")]
    slots += [(section[key], i) for key in ("beta", "lambda")
              for i in range(len(section[key]))]
    for field in section["fields"]:
        slots += [(field, key) for key in ("v", "h0") if key in field]
        slots += [(field[key], i) for key in ("values", "probs")
                  if key in field for i in range(len(field[key]))]
    container, key = draw(st.sampled_from(slots))
    container[key] = draw(_NOT_NUMBERS)
    return section


def csv_text(value) -> str:
    """A JSON value as the CSV reports spell it: ``null`` as the empty
    cell, booleans as ``true``/``false`` and a float by its ``repr``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)
