"""Binary entropy: frozen values, exact symmetry, base handling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincollapse import (
    Axis, PureState, antipode, binary_entropy, born_up, s_down, s_i, s_up,
)
from spincollapse.entropy import _SLACK, _binary_entropy, _dot_entropy
from spincollapse.solver import _binary_entropy_grid

from helpers import s_down_clamped, uniform_axis, uniform_state

# independently derived with 50-digit arithmetic and rounded to double
H_THREE_QUARTERS = 0.5623351446188083
LN2 = 0.6931471805599453


class TestFrozenValues:
    def test_half_is_ln2_bitwise(self):
        assert binary_entropy(0.5) == math.log(2.0) == LN2

    def test_three_quarters(self):
        assert binary_entropy(0.75) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)
        assert binary_entropy(0.25) == pytest.approx(H_THREE_QUARTERS, abs=1e-15)

    def test_endpoints_exact_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_base_two_half_is_one(self):
        assert binary_entropy(0.5, base=2.0) == 1.0

    def test_base_two_rescales_natural_log(self):
        for p in (0.1, 0.25, 0.6180339887, 0.9):
            assert binary_entropy(p, base=2.0) == pytest.approx(
                binary_entropy(p) / LN2, abs=1e-15
            )


class TestSymmetryAndRange:
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_is_bit_exact(self, p):
        assert binary_entropy(p) == binary_entropy(1.0 - p)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= math.log(2.0)

    @given(st.floats(min_value=0.0, max_value=0.5))
    def test_monotone_on_lower_half(self, p):
        assert binary_entropy(p) <= binary_entropy(min(0.5, p + 1e-3)) + 1e-15

    def test_maximum_at_half(self):
        for p in np.linspace(0.0, 1.0, 1001):
            assert binary_entropy(float(p)) <= binary_entropy(0.5)


class TestValidation:
    def test_tiny_overshoot_clamps_to_zero(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0

    @pytest.mark.parametrize("p", [-1e-9, 1.0 + 1e-9, 2.0, -1.0, math.nan, math.inf])
    def test_out_of_range_raises(self, p):
        with pytest.raises(ValueError):
            binary_entropy(p)

    @pytest.mark.parametrize("base", [0.0, 1.0, -2.0, math.nan, math.inf])
    def test_bad_base_raises(self, base):
        with pytest.raises(ValueError):
            binary_entropy(0.3, base=base)


def _binary_entropy_minmax(p: float, base: float) -> float:
    """The earlier spelling of `_binary_entropy`, through `min`/`max`, kept
    as the oracle of the one-comparison core."""
    if not (-_SLACK <= p <= 1.0 + _SLACK):
        raise ValueError(f"probability out of range: {p!r}")
    hi = min(1.0, max(p, 1.0 - p))
    lo = 1.0 - hi
    if lo == 0.0:
        return 0.0
    h = -lo * math.log(lo) - hi * math.log(hi)
    return h if base == math.e else h / math.log(base)


def _dot_entropy_minmax(dot: float, base: float) -> float:
    return _binary_entropy_minmax(min(1.0, max(0.0, 0.5 * (1.0 + dot))), base)


TINY = 5e-324  # the smallest subnormal
EDGE_PROBABILITIES = [
    0.0, -0.0, 1.0, 0.5, 1.0 - 2.0**-53, 2.0**-53, 1.0 - 2.0**-52,
    math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0),
    TINY, 1e-310, 2.2250738585072014e-308, 1.0 - TINY,
    -1e-12, 1.0 + 1e-12, -1e-13, 1.0 + 1e-13, 1e-12, 1.0 - 1e-12,
]
EDGE_DOTS = [
    -1.0, 1.0, 0.0, -0.0, 1.0 - 2.0**-53, -1.0 + 2.0**-53, TINY, -TINY,
    1.0 + 2.0**-52, -1.0 - 2.0**-52, 1.0 + 1e-12, -1.0 - 1e-12, 2.0, -2.0,
    math.nextafter(1.0, 0.0), math.nextafter(-1.0, 0.0), 1e308, -1e308,
]
# dots whose probability (1 + dot)/2 is not inside (0, 1): a certain outcome
CERTAIN_DOTS = [
    1.0, -1.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0), 1.0 + 1e-12,
    -1.0 - 1e-12, math.nan, -math.nan, math.inf, -math.inf,
]


class TestScalarCoreMatchesOracle:
    """`_binary_entropy` picks the larger of p and 1 - p with one comparison
    and returns 0 once it reaches 1; every result is the `min`/`max`
    spelling's, bit for bit."""

    @staticmethod
    def _same(got: float, want: float) -> None:
        assert type(got) is float and got.hex() == want.hex()

    @settings(max_examples=500)
    @given(p=st.floats(min_value=-1e-12, max_value=1.0 + 1e-12),
           base=st.sampled_from([math.e, 2.0]))
    def test_any_probability(self, p, base):
        self._same(_binary_entropy(p, base), _binary_entropy_minmax(p, base))

    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("p", EDGE_PROBABILITIES)
    def test_edges(self, p, base):
        self._same(_binary_entropy(p, base), _binary_entropy_minmax(p, base))

    @pytest.mark.parametrize("p", [
        math.nextafter(-1e-12, -1.0), math.nextafter(1.0 + 1e-12, 2.0),
        -1e-9, 1.0 + 1e-9, 2.0, -1.0, math.nan, math.inf, -math.inf,
    ])
    def test_out_of_range_raises_alike(self, p):
        with pytest.raises(ValueError) as want:
            _binary_entropy_minmax(p, math.e)
        with pytest.raises(ValueError) as got:
            _binary_entropy(p, math.e)
        assert str(got.value) == str(want.value)

    @settings(max_examples=500)
    @given(dot=st.floats(min_value=-1.0 - 1e-12, max_value=1.0 + 1e-12),
           base=st.sampled_from([math.e, 2.0]))
    def test_any_dot(self, dot, base):
        self._same(_dot_entropy(dot, base), _dot_entropy_minmax(dot, base))

    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("dot", EDGE_DOTS)
    def test_dot_edges(self, dot, base):
        self._same(_dot_entropy(dot, base), _dot_entropy_minmax(dot, base))

    @pytest.mark.parametrize("base", [math.e, 2.0])
    @pytest.mark.parametrize("dot", CERTAIN_DOTS)
    def test_certain_dot_has_zero_entropy(self, dot, base):
        # NaN and +-inf fail `0 < p < 1` like the probabilities outside it,
        # and the `min`/`max` clip sends all of them to 0 or 1
        self._same(_dot_entropy(dot, base), 0.0)
        self._same(_dot_entropy(dot, base), _dot_entropy_minmax(dot, base))

    @settings(max_examples=500)
    @given(theta_i=st.floats(-7.0, 7.0), phi_i=st.floats(-7.0, 7.0),
           theta_f=st.floats(-7.0, 7.0), phi_f=st.floats(-7.0, 7.0),
           base=st.sampled_from([math.e, 2.0]))
    def test_s_down_without_clamp(self, theta_i, phi_i, theta_f, phi_f, base):
        # |<up_f|down_i>|**2 is never negative, and binary_entropy takes it
        # up to 1 + 1e-12, where the clamp sent it to 1: entropy 0 either way
        for a, b in [(Axis(theta_i, phi_i), Axis(theta_f, phi_f)),
                     (Axis(theta_i, phi_i), Axis(theta_i, phi_i))]:
            self._same(s_down(a, b, base), s_down_clamped(a, b, base))
            self._same(s_down(a, antipode(b), base), s_down_clamped(a, antipode(b), base))


class TestGridHelper:
    @pytest.mark.parametrize("base", [math.e, 2.0])
    def test_matches_scalar(self, base):
        p = np.linspace(0.0, 1.0, 513)
        grid = _binary_entropy_grid(p, base)
        for pi, hi in zip(p, grid):
            assert hi == pytest.approx(binary_entropy(float(pi), base), abs=1e-14)

    def test_silent_at_endpoints(self):
        with np.errstate(all="raise"):
            out = _binary_entropy_grid(np.array([0.0, 0.5, 1.0]), math.e)
        assert out[0] == 0.0 and out[2] == 0.0


class TestStateEntropies:
    def test_s_i_is_entropy_of_born_probability(self, rng):
        for _ in range(50):
            state, axis = uniform_state(rng), uniform_axis(rng)
            assert s_i(state, axis) == binary_entropy(born_up(state, axis))

    def test_transfer_entropy_symmetric(self, rng):
        for _ in range(100):
            a, b = uniform_axis(rng), uniform_axis(rng)
            assert s_up(a, b) == pytest.approx(s_up(b, a), abs=1e-15)

    def test_transfer_entropy_self_is_negligible(self, rng):
        for _ in range(100):
            a = uniform_axis(rng)
            assert s_up(a, a) <= 1e-12

    def test_up_and_down_transfer_entropies_agree(self, rng):
        # two deliberately different routes: axis geometry vs eigenspinor overlap
        for _ in range(300):
            a, b = uniform_axis(rng), uniform_axis(rng)
            assert abs(s_up(a, b) - s_down(a, b)) <= 1e-12

    def test_antipodal_axis_swaps_nothing(self, rng):
        # s_up depends on the axes only through |alignment| via H's symmetry
        from spincollapse import antipode

        for _ in range(50):
            a, b = uniform_axis(rng), uniform_axis(rng)
            assert s_up(a, b) == pytest.approx(s_up(a, antipode(b)), abs=1e-12)

    def test_base_two_known_pair(self):
        a, b = Axis(0.0, 0.0), Axis(math.pi / 2, 0.0)
        # orthogonal axes: p = 1/2, one full bit
        assert s_up(a, b, base=2.0) == pytest.approx(1.0, abs=1e-15)
