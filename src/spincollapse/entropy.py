"""Binary Shannon entropy and the four measurement-entropy functionals.

All entropies are reported in units of the configured logarithm base
(natural log by default, base 2 for bits); changing the base rescales values
by a positive constant and never moves an argmin.
"""

from __future__ import annotations

import math

from .spin import DEFAULT_ATOL, Axis, PureState, _dot3, _unit_xyz, born_up, eigenpair, overlap

__all__ = ["binary_entropy", "s_i", "s_up", "s_down"]

_log, _E = math.log, math.e  # module aliases for the scalar hot path


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
    return _binary_entropy(p, base)


def _binary_entropy(p: float, base: float) -> float:
    """`binary_entropy` for a base its caller has already checked.

    The larger of p and 1 - p is hi; at or past 1 the entropy is 0 (the
    clamp), and below 1 the complement lo = 1 - hi is exact and nonzero.
    """
    if not (-DEFAULT_ATOL <= p <= 1.0 + DEFAULT_ATOL):
        raise ValueError(f"probability out of range: {p!r}")
    q = 1.0 - p
    hi = p if p >= q else q
    if hi >= 1.0:
        return 0.0
    lo = 1.0 - hi
    h = -lo * _log(lo) - hi * _log(hi)
    return h if base == _E else h / _log(base)


def s_i(state: PureState, axis_i: Axis, base: float = math.e) -> float:
    """Outcome-distribution entropy of measuring the state along axis_i; given
    a candidate next axis instead, it is that axis's entropy s_f."""
    return binary_entropy(born_up(state, axis_i), base)


def s_up(axis_i: Axis, axis_f: Axis, base: float = math.e) -> float:
    """Entropy along axis_f of the +1 eigenstate of axis_i.

    That eigenstate's Bloch vector is the axis itself, so the distribution is
    ((1 + n_i . n_f)/2, (1 - n_i . n_f)/2).
    """
    _check_base(base)
    return _dot_entropy(_dot3(_unit_xyz(axis_i), _unit_xyz(axis_f)), base)


def _dot_entropy(dot: float, base: float) -> float:
    """binary_entropy((1 + dot)/2), the probability clipped to [0, 1]: the
    entropy of measuring along one unit vector the +1 eigenstate of another,
    given their dot product.  The caller has already checked `base`.

    A probability outside the open interval, NaN and +-inf included, is
    certain: the clip would send it to 0 or 1, where the entropy is 0."""
    p = 0.5 * (1.0 + dot)
    if not 0.0 < p < 1.0:
        return 0.0
    return _binary_entropy(p, base)


def s_down(axis_i: Axis, axis_f: Axis, base: float = math.e) -> float:
    """Entropy along axis_f of the -1 eigenstate of axis_i.

    Evaluated through the eigenspinor overlap rather than sphere geometry, so
    it reaches the same value as `s_up` by an independent route.
    """
    up_f, _ = eigenpair(axis_f)
    _, down_i = eigenpair(axis_i)
    return binary_entropy(abs(overlap(up_f, down_i)) ** 2, base)
