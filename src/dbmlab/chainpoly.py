"""Matching polynomials of weighted chains.

The polynomial family ``Delta_p(x; t)`` attached to nonnegative edge
activities ``t = (t_1, ..., t_{K-1})`` is defined by the three-term recursion

    Delta_0 = 1,  Delta_1 = x,  Delta_{p+1} = x * Delta_p - t_p * Delta_{p-1}.

``Delta_K`` is the matching polynomial of the K-vertex path with edge weights
``t_p``: writing ``f_d`` for the sum over d-edge matchings of the product of
their activities,

    Delta_K(x) = sum_d (-1)^d f_d x^(K - 2d).

Its zeros are the eigenvalues of the symmetric tridiagonal matrix with zero
diagonal and off-diagonal entries ``sqrt(t_p)``; they are therefore real, are
simple whenever every ``t_p > 0``, and the zero sets of consecutive
polynomials interlace.  The largest zero of ``Delta_K`` is the spectral radius
of that matrix, and localisation of all zeros inside ``(-r, r)`` is equivalent
to positivity of every ``Delta_p(r)``.

Chains are capped at ``MAX_LAYERS`` vertices; values are plain float64, which
can overflow for deep chains at large ``|x|``.  At ``x = 1``, where the
annealed-region test evaluates the chain, ``Delta_{p+1} = Delta_p - t_p
Delta_{p-1} <= Delta_p`` while both are positive: the values fall from
``Delta_1 = 1``, and the first non-positive one, which decides the test,
comes before any overflow.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal

__all__ = [
    "MAX_LAYERS",
    "eval_sequence",
    "matching_sums",
    "coefficients",
    "zeros",
    "zeros_sequence",
    "largest_zero",
    "interlacing_check",
    "zeros_in_interval",
]

MAX_LAYERS = 512


def _check_activities(t: Sequence[float]) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError("activities must be a one-dimensional sequence")
    if t.size + 1 > MAX_LAYERS:
        raise ValueError(f"chain length {t.size + 1} exceeds MAX_LAYERS = {MAX_LAYERS}")
    if not np.isfinite(t).all():
        raise ValueError("activities must be finite")
    if (t < 0.0).any():
        raise ValueError("activities must be nonnegative")
    return t


def eval_sequence(x: float, t: Sequence[float]) -> np.ndarray:
    """Values ``(Delta_0(x), ..., Delta_K(x))`` with ``K = len(t) + 1``.

    Plain float64 recursion; deep chains at large ``|x|`` overflow to ``inf``
    and ``nan``, but not at ``x = 1`` (see the module docstring).
    """
    t = _check_activities(t)
    K = t.size + 1
    vals = np.empty(K + 1)
    vals[0] = 1.0
    vals[1] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for p in range(1, K):
            vals[p + 1] = x * vals[p] - t[p - 1] * vals[p - 1]
    return vals


def matching_sums(t: Sequence[float]) -> np.ndarray:
    """Matching sums ``f_d`` of the chain, for ``d = 0 .. K // 2``.

    ``f_d`` is the sum over d-edge matchings of the product of activities,
    computed by the edge-by-edge recursion
    ``f_{d,p} = f_{d,p-1} + t_{p-1} * f_{d-1,p-2}``.
    """
    t = _check_activities(t)
    K = t.size + 1
    max_d = K // 2
    # table[d, p] = f_d for the leading p-vertex chain
    table = np.zeros((max_d + 1, K + 1))
    table[0, :] = 1.0
    for p in range(2, K + 1):
        dmax_p = p // 2
        for d in range(1, dmax_p + 1):
            table[d, p] = table[d, p - 1] + t[p - 2] * table[d - 1, p - 2]
    return table[:, K].copy()


def coefficients(t: Sequence[float]) -> np.ndarray:
    """Ascending coefficient vector of ``Delta_K`` (length ``K + 1``)."""
    t = _check_activities(t)
    K = t.size + 1
    f = matching_sums(t)
    coeffs = np.zeros(K + 1)
    for d in range(K // 2 + 1):
        coeffs[K - 2 * d] = (-1.0) ** d * f[d]
    return coeffs


def zeros(t: Sequence[float]) -> np.ndarray:
    """Sorted real zeros of ``Delta_K``.

    Computed as the eigenvalues of the symmetric tridiagonal matrix with zero
    diagonal and off-diagonals ``sqrt(t_p)``.
    """
    t = _check_activities(t)
    K = t.size + 1
    if K == 1:
        return np.zeros(1)
    return eigh_tridiagonal(np.zeros(K), np.sqrt(t), eigvals_only=True)


def zeros_sequence(t: Sequence[float]) -> list[np.ndarray]:
    """Zero sets of ``Delta_1, ..., Delta_K`` (leading sub-chains)."""
    t = _check_activities(t)
    return [zeros(t[: p - 1]) for p in range(1, t.size + 2)]


def largest_zero(t: Sequence[float]) -> float:
    """Largest zero of ``Delta_K`` (= max ``|zero|`` by sign symmetry)."""
    return float(zeros(t)[-1])


def interlacing_check(t: Sequence[float], strict: bool = False, tol: float = 1e-12) -> bool:
    """Whether consecutive zero sets interlace along the whole chain.

    Weak interlacing (``strict=False``) allows coincident zeros up to ``tol``,
    which occur when some activities vanish; with every ``t_p > 0`` the
    interlacing is strict.
    """
    zs = zeros_sequence(t)
    for prev, cur in zip(zs, zs[1:]):
        lo, hi = cur[:-1], cur[1:]
        if strict:
            if not (np.all(lo < prev) and np.all(prev < hi)):
                return False
        else:
            if not (np.all(lo <= prev + tol) and np.all(prev <= hi + tol)):
                return False
    return True


def zeros_in_interval(t: Sequence[float], radius: float, method: str = "signs") -> bool:
    """Whether every zero of ``Delta_K`` lies strictly inside ``(-radius, radius)``.

    ``method="signs"`` checks positivity of every ``Delta_p(radius)`` along the
    chain (no eigensolve) through the ratios ``Delta_p / Delta_{p-1}``, which
    lie in ``(0, radius]`` until the first non-positive one and so cannot
    overflow; ``method="eigen"`` compares ``radius`` with the largest zero.
    The two agree away from the boundary case ``radius = max |zero|``.
    """
    t = _check_activities(t)
    if method == "signs":
        radius = ratio = float(radius)
        for tp in t.tolist():
            if not ratio > 0.0:
                return False
            ratio = radius - tp / ratio
        return ratio > 0.0
    if method == "eigen":
        z = zeros(t)
        return bool(np.abs(z).max() < radius)
    raise ValueError(f"unknown method {method!r} (expected 'signs' or 'eigen')")
