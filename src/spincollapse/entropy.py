"""Binary Shannon entropy and the four measurement-entropy functionals.

All entropies are reported in units of the configured logarithm base
(natural log by default, base 2 for bits); changing the base rescales values
by a positive constant and never moves an argmin.
"""

from __future__ import annotations

import math

import numpy as np

from .spin import Axis, PureState, born_up, eigenpair, overlap, unit_vector

__all__ = ["binary_entropy", "s_i", "s_up", "s_down"]

_SLACK = 1e-12


def _check_base(base: float) -> None:
    if not (math.isfinite(base) and base > 0.0 and base != 1.0):
        raise ValueError(f"invalid logarithm base: {base!r}")


def binary_entropy(p: float, base: float = math.e) -> float:
    """Entropy -p*log(p) - (1-p)*log(1-p) of a two-outcome distribution.

    0*log(0) is 0 by continuity.  Inputs within 1e-12 outside [0, 1] are
    clamped; anything farther out (or NaN) is rejected.  The result is
    symmetric under p <-> 1-p bit-for-bit: both arguments reduce to the same
    (lo, hi) pair, with hi >= 1/2 so that lo = 1 - hi is computed exactly.
    """
    _check_base(base)
    if not (-_SLACK <= p <= 1.0 + _SLACK):
        raise ValueError(f"probability out of range: {p!r}")
    hi = min(1.0, max(p, 1.0 - p))
    lo = 1.0 - hi
    if lo == 0.0:
        return 0.0
    h = -lo * math.log(lo) - hi * math.log(hi)
    return h if base == math.e else h / math.log(base)


def _binary_entropy_grid(p: np.ndarray, base: float = math.e) -> np.ndarray:
    """Vectorized `binary_entropy` for pre-clamped probability grids."""
    hi = np.minimum(np.maximum(p, 1.0 - p), 1.0)
    lo = 1.0 - hi
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.where(lo > 0.0, -lo * np.log(lo), 0.0) - hi * np.log(hi)
    return h if base == math.e else h / math.log(base)


def s_i(state: PureState, axis_i: Axis, base: float = math.e) -> float:
    """Outcome-distribution entropy of measuring the state along axis_i; given
    a candidate next axis instead, it is that axis's entropy s_f."""
    return binary_entropy(born_up(state, axis_i), base)


def s_up(axis_i: Axis, axis_f: Axis, base: float = math.e) -> float:
    """Entropy along axis_f of the +1 eigenstate of axis_i.

    That eigenstate's Bloch vector is the axis itself, so the distribution is
    ((1 + n_i . n_f)/2, (1 - n_i . n_f)/2).
    """
    return _s_up_vectors(unit_vector(axis_i), unit_vector(axis_f), base)


def _s_up_vectors(n_i: np.ndarray, n_f: np.ndarray, base: float) -> float:
    """`s_up` from the two unit vectors, for a caller that already holds them."""
    q = 0.5 * (1.0 + float(np.dot(n_i, n_f)))
    return binary_entropy(min(1.0, max(0.0, q)), base)


def s_down(axis_i: Axis, axis_f: Axis, base: float = math.e) -> float:
    """Entropy along axis_f of the -1 eigenstate of axis_i.

    Evaluated through the eigenspinor overlap rather than sphere geometry, so
    it reaches the same value as `s_up` by an independent route.
    """
    up_f, _ = eigenpair(axis_f)
    _, down_i = eigenpair(axis_i)
    q = abs(overlap(up_f, down_i)) ** 2
    return binary_entropy(min(1.0, max(0.0, q)), base)
