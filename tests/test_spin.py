"""Axis canonicalization, spin operator algebra, states, and the Born rule."""

import cmath
import dataclasses
import math
import pickle
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincollapse import (
    Axis,
    PureState,
    Spinor,
    amplitudes,
    antipode,
    axis_from_vector,
    bloch_vector,
    born_up,
    eigenpair,
    overlap,
    spin_operator,
    state_from_amplitudes,
    state_from_bloch,
    state_from_eigenvector,
    unit_vector,
)
from spincollapse.spin import _dot3, _xyz_angles

from helpers import (
    angle_between,
    axis_from_vector_own_reader,
    born_up_min_max,
    born_up_unclamped,
    pure_state_fields,
    state_from_bloch_clamped,
    uniform_axis,
    uniform_state,
    xyz_angles_reduced,
)

finite_angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
# vector components reaching signed zeros, pole-snap-sized offsets, NaN and inf
vector_components = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-14, -1e-14, 1e-300, math.nan, math.inf, -math.inf]),
    st.floats(),
)
TWO_PI = 2.0 * math.pi
# amplitude parts at unit scale, subnormal, huge and zero
amplitude_parts = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(-2.0**-1022, 2.0**-1022),
    st.floats(1e290, 1e308), st.floats(-1e308, -1e290),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-323]),
)
# 3-vectors whose component products neither underflow nor overflow, where the
# float sum's relative error bound holds; signed zeros included
dot_component = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(math.copysign, st.floats(2.0**-300, 2.0**300), st.sampled_from([1.0, -1.0])),
)
dot_triples = st.tuples(dot_component, dot_component, dot_component)


def in_normal_range(vec) -> bool:
    """Whether the largest |part| of a 3-vector lies in [2**-1022, 2**1022),
    where the 3-vector readers take the parts as given."""
    return 2.0**-1022 <= max(map(abs, vec)) < 2.0**1022


class TestAxisCanonicalization:
    @given(finite_angles, finite_angles)
    def test_canonical_ranges(self, theta, phi):
        a = Axis(theta, phi)
        assert 0.0 <= a.theta <= math.pi
        assert 0.0 <= a.phi < TWO_PI

    @given(finite_angles, finite_angles)
    def test_idempotent_bitwise(self, theta, phi):
        a = Axis(theta, phi)
        b = Axis(a.theta, a.phi)
        assert (b.theta, b.phi) == (a.theta, a.phi)

    @given(finite_angles, finite_angles)
    def test_direction_preserved(self, theta, phi):
        a = Axis(theta, phi)
        v = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        assert float(np.dot(unit_vector(a), v)) >= 1.0 - 1e-12

    @given(
        st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
        st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    )
    def test_negated_colatitude_equals_shifted_azimuth(self, theta, phi):
        assert Axis(-theta, phi) == Axis(theta, phi + math.pi)

    def test_poles_zero_the_azimuth(self):
        assert Axis(0.0, 2.5).phi == 0.0
        assert Axis(math.pi, -1.0).phi == 0.0
        assert Axis(0.0, 2.5) == Axis(0.0, 0.0)

    def test_no_negative_zero(self):
        a = Axis(-0.0, -0.0)
        assert math.copysign(1.0, a.theta) == 1.0
        assert math.copysign(1.0, a.phi) == 1.0

    def test_full_turn_is_identity_within_float_noise(self):
        a, b = Axis(1.2, 3.4), Axis(1.2 + TWO_PI, 3.4)
        assert abs(a.theta - b.theta) <= 1e-12
        assert abs(a.phi - b.phi) <= 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError) as exc:
            Axis(bad, 0.0)
        assert str(exc.value) == f"axis angles must be finite, got ({bad!r}, 0.0)"
        with pytest.raises(ValueError) as exc:
            Axis(0.0, bad)
        assert str(exc.value) == f"axis angles must be finite, got (0.0, {bad!r})"


class TestAxisArguments:
    """`Axis` converts its arguments with float() before any test, as
    `PureState` does: what float() takes gives the axis of its float, and
    what it refuses raises float()'s own error, which names the argument's
    type instead of an operator."""

    @pytest.mark.parametrize("raw", [
        "1.0", " 2.5 ", "-7", np.float64(1.2), np.float32(0.5), np.longdouble(3.0),
        np.float64(-0.0), Fraction(1, 3), Fraction(22, 7), True, False, 3,
    ], ids=repr)
    def test_float_convertible_matches_float(self, raw):
        for got, want in ((Axis(raw, 1.0), Axis(float(raw), 1.0)),
                          (Axis(1.0, raw), Axis(1.0, float(raw)))):
            assert type(got.theta) is float and type(got.phi) is float
            assert (got.theta.hex(), got.phi.hex()) == (want.theta.hex(), want.phi.hex())

    @pytest.mark.parametrize("bad", [None, 1 + 0j, complex(0.5, 0.0), "one", [1.0], object()],
                             ids=repr)
    def test_unconvertible_raises_what_float_raises(self, bad):
        with pytest.raises(Exception) as expected:
            float(bad)
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(expected.type) as raised:
                Axis(*args)
            assert str(raised.value) == str(expected.value)
            assert "'<' not supported" not in str(raised.value)
            # PureState reports the same argument the same way
            with pytest.raises(expected.type) as state_raised:
                PureState(*args)
            assert str(state_raised.value) == str(raised.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", np.float64(math.nan)], ids=repr)
    def test_non_finite_after_conversion_names_the_argument(self, bad):
        with pytest.raises(ValueError) as exc:
            Axis(bad, 0.0)
        assert str(exc.value) == f"axis angles must be finite, got ({bad!r}, 0.0)"


class TestVectors:
    @given(finite_angles, finite_angles)
    def test_unit_norm(self, theta, phi):
        assert abs(np.linalg.norm(unit_vector(Axis(theta, phi))) - 1.0) <= 1e-12

    def test_round_trip(self, rng):
        for _ in range(300):
            a = uniform_axis(rng)
            assert angle_between(axis_from_vector(unit_vector(a)), a) <= 1e-12

    def test_scale_invariance(self, rng):
        for _ in range(50):
            a = uniform_axis(rng)
            scaled = axis_from_vector(7.5 * unit_vector(a))
            assert angle_between(scaled, axis_from_vector(unit_vector(a))) <= 1e-12

    def test_pole_snap(self):
        assert axis_from_vector(np.array([0.0, 0.0, 5.0])) == Axis(0.0, 0.0)
        assert axis_from_vector(np.array([0.0, 0.0, -1.0])) == Axis(math.pi, 0.0)
        assert axis_from_vector(np.array([1e-20, 0.0, 1.0])) == Axis(0.0, 0.0)

    @given(
        vector_components,
        vector_components,
        vector_components,
        st.sampled_from([1.0, 1e-9, 7.5, 1e9]),
    )
    @example(1e-20, 0.0, 1.0, 1.0)  # snapped onto the north pole
    @example(0.0, -1e-14, -3.0, 1.0)  # snapped onto the south pole
    @example(-0.0, -0.0, 2.0, 1.0)
    @example(-1.0, -0.0, 0.0, 7.5)  # phi = atan2(-0.0, -1) = -pi
    @example(0.0, 0.0, 0.0, 1.0)
    @example(math.nan, 0.0, 1.0, 1.0)
    @example(1.0, math.inf, 0.0, 1.0)
    def test_float_entry_matches_array_route(self, x, y, z, scale):
        v = (x * scale, y * scale, z * scale)
        if not all(map(math.isfinite, v)) or v == (0.0, 0.0, 0.0):
            # outside what `_xyz_angles` takes: the reader rejects it first
            with pytest.raises(ValueError):
                axis_from_vector(np.array(v))
            return
        if not in_normal_range(v):
            return  # the array route rescales first: `TestVectorReaders` checks it
        axis = axis_from_vector(np.array(v))
        # already canonical: `Axis` leaves the angles bitwise unchanged
        assert tuple(map(float.hex, _xyz_angles(*v))) == (axis.theta.hex(), axis.phi.hex())

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            axis_from_vector(np.zeros(3))
        with pytest.raises(ValueError):
            axis_from_vector(np.array([1.0, math.nan, 0.0]))
        with pytest.raises(ValueError):
            axis_from_vector(np.array([1.0, 2.0]))

    def test_antipode_is_opposite_direction(self, rng):
        for _ in range(100):
            a = uniform_axis(rng)
            assert float(np.dot(unit_vector(a), unit_vector(antipode(a)))) <= -1.0 + 1e-12
            assert angle_between(antipode(antipode(a)), a) <= 1e-12


class TestDot3:
    """`_dot3`, the one dot product of the scalar path."""

    @given(dot_triples, dot_triples)
    def test_symmetric_and_within_rounding_bound(self, u, v):
        got = _dot3(u, v)
        assert float.hex(got) == float.hex(_dot3(v, u))
        products = [Fraction(a) * Fraction(b) for a, b in zip(u, v)]
        # a 3-term float dot product: |error| <= 3 * 2^-53 * sum |u_k v_k|
        bound = 3 * Fraction(1, 2**53) * sum(abs(p) for p in products)
        assert abs(Fraction(got) - sum(products)) <= bound


class TestSpinOperator:
    def test_z_axis_is_diag(self):
        assert np.array_equal(spin_operator(Axis(0.0, 0.0)), np.diag([1.0, -1.0]))

    def test_x_y_axes(self):
        x = spin_operator(Axis(math.pi / 2, 0.0))
        y = spin_operator(Axis(math.pi / 2, math.pi / 2))
        assert np.allclose(x, np.array([[0, 1], [1, 0]]), atol=1e-15)
        assert np.allclose(y, np.array([[0, -1j], [1j, 0]]), atol=1e-15)

    def test_algebra(self, rng):
        for _ in range(200):
            s = spin_operator(uniform_axis(rng))
            assert np.allclose(s, s.conj().T, atol=1e-15)  # hermitian
            assert abs(np.trace(s)) <= 1e-15
            assert np.linalg.det(s) == pytest.approx(-1.0, abs=1e-12)
            assert np.allclose(s @ s, np.eye(2), atol=1e-12)  # involution

    def test_linear_in_direction(self, rng):
        for _ in range(50):
            a, b = uniform_axis(rng), uniform_axis(rng)
            v = unit_vector(a) + unit_vector(b)
            n = np.linalg.norm(v)
            if n < 1e-6:
                continue
            lhs = spin_operator(axis_from_vector(v)) * n
            assert np.allclose(lhs, spin_operator(a) + spin_operator(b), atol=1e-12)


class TestEigenpairs:
    def test_eigen_relations(self, rng):
        for _ in range(300):
            a = uniform_axis(rng)
            s = spin_operator(a)
            up, down = eigenpair(a)
            assert np.linalg.norm(s @ up.as_array() - up.as_array()) <= 1e-12
            assert np.linalg.norm(s @ down.as_array() + down.as_array()) <= 1e-12

    def test_orthonormal(self, rng):
        for _ in range(200):
            up, down = eigenpair(uniform_axis(rng))
            assert abs(np.linalg.norm(up.as_array()) - 1.0) <= 1e-12
            assert abs(overlap(up, down)) <= 1e-12

    def test_phase_convention_second_component_real_nonneg(self, rng):
        for _ in range(200):
            up, down = eigenpair(uniform_axis(rng))
            assert abs(up.down.imag) <= 1e-15 and up.down.real >= 0.0
            assert abs(down.down.imag) <= 1e-15 and down.down.real >= 0.0

    def test_overlap_conjugate_symmetry(self, rng):
        for _ in range(50):
            u1, d1 = eigenpair(uniform_axis(rng))
            assert overlap(u1, d1) == pytest.approx(
                overlap(d1, u1).conjugate(), abs=1e-15
            )

    def test_spinor_requires_unit_norm(self):
        with pytest.raises(ValueError):
            Spinor(1.0, 1.0)
        with pytest.raises(ValueError):
            Spinor(0.5, 0.5)


class TestPureState:
    def test_clamp_slack(self):
        assert PureState(-1e-13, 1.0).rho == 0.0
        assert PureState(1.0 + 1e-13, 1.0).rho == 1.0

    def test_phase_zeroed_at_poles(self):
        assert PureState(0.0, 2.2).tau == 0.0
        assert PureState(1.0, 2.2).tau == 0.0

    @pytest.mark.parametrize(
        "rho, tau, message",
        [
            (-1e-9, 0.0, "rho must lie in [0, 1], got -1e-09"),
            (1.0 + 1e-9, 0.0, "rho must lie in [0, 1], got 1.000000001"),
            (2, 0.0, "rho must lie in [0, 1], got 2.0"),
            (math.nan, 0.0, "state parameters must be finite, got (nan, 0.0)"),
            (math.inf, 0.0, "state parameters must be finite, got (inf, 0.0)"),
            (0.5, -math.inf, "state parameters must be finite, got (0.5, -inf)"),
            (0.5, math.nan, "state parameters must be finite, got (0.5, nan)"),
        ],
    )
    def test_out_of_range_rejected(self, rho, tau, message):
        with pytest.raises(ValueError) as exc:
            PureState(rho, tau)
        assert str(exc.value) == message

    def test_phase_wraps(self):
        assert PureState(0.5, -1.0).tau == pytest.approx(TWO_PI - 1.0, abs=1e-15)
        assert 0.0 <= PureState(0.5, 123.456).tau < TWO_PI
        assert PureState(0.5, -1e-300).tau == 0.0  # tau % 2pi rounds up to 2pi

    def test_amplitudes_recover_weights(self, rng):
        for _ in range(100):
            s = uniform_state(rng)
            spinor = amplitudes(s)
            assert abs(spinor.up) ** 2 == pytest.approx(s.rho, abs=1e-12)
            assert abs(spinor.down) ** 2 == pytest.approx(1.0 - s.rho, abs=1e-12)
            assert spinor.down.imag == 0.0 and spinor.down.real >= 0.0

    def test_bloch_vector_unit_norm_and_z(self, rng):
        for _ in range(100):
            s = uniform_state(rng)
            m = bloch_vector(s)
            assert abs(np.linalg.norm(m) - 1.0) <= 1e-12
            assert m[2] == pytest.approx(2.0 * s.rho - 1.0, abs=1e-15)


def _wrapped_state(rho: float, tau: float) -> PureState:
    """A `PureState` holding the given floats, built without `__init__`: the
    least memory a state can take."""
    state = object.__new__(PureState)
    object.__setattr__(state, "rho", rho)
    object.__setattr__(state, "tau", tau)
    return state


# raw parameters at the edges of the region 0 < rho < 1, 0 < tau < 2 pi
_EDGE_RHOS = [0.0, -0.0, 1.0, 5e-324, 2.0**-1022, math.nextafter(1.0, 0.0), -1e-13,
              1.0 + 1e-13, -1e-9, 0.5, 1, 0, True, np.float64(0.5), Fraction(1, 3),
              math.nan, math.inf]
_EDGE_TAUS = [0.0, -0.0, TWO_PI, math.nextafter(TWO_PI, 0.0), math.pi,
              -1e-300, 5e-324, -5e-324, 7.5, -1.0, 3, np.float64(1.0),
              Fraction(TWO_PI) - Fraction(1, 2**80), Decimal(TWO_PI).next_minus(),
              math.nan, -math.inf]


class TestStateFastPath:
    """Two plain floats inside 0 < rho < 1, 0 < tau < 2*pi are stored as
    given; for every input, `PureState` stores the floats of the full route
    (`helpers.pure_state_fields`) or raises its error."""

    @settings(max_examples=500, deadline=None)
    @given(
        rho=st.one_of(st.floats(0.0, 1.0), st.floats(), st.sampled_from(_EDGE_RHOS)),
        tau=st.one_of(st.floats(0.0, TWO_PI), st.floats(), st.sampled_from(_EDGE_TAUS)),
    )
    @example(rho=0.3, tau=math.nextafter(TWO_PI, 0.0))
    @example(rho=0.3, tau=-0.0)
    @example(rho=5e-324, tau=1.0)
    @example(rho=0.0, tau=1.0)
    @example(rho=1.0, tau=1.0)
    @example(rho=0.3, tau=math.pi + math.pi)  # phi + pi landing on 2*pi
    @example(rho=Fraction(1, 3), tau=Fraction(TWO_PI) - Fraction(1, 2**80))
    def test_matches_full_route(self, rho, tau):
        try:
            expected = pure_state_fields(rho, tau)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                PureState(rho, tau)
            assert str(raised.value) == str(err)
            return
        state = PureState(rho, tau)
        assert type(state.rho) is float and type(state.tau) is float
        assert [state.rho.hex(), state.tau.hex()] == [v.hex() for v in expected]

    @settings(max_examples=300, deadline=None)
    @given(theta=st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, math.pi, 1e-300])),
           phi=st.one_of(st.floats(0.0, TWO_PI),
                         st.sampled_from([0.0, math.pi, math.nextafter(math.pi, 0.0),
                                          math.nextafter(math.pi, 4.0),
                                          math.nextafter(TWO_PI, 0.0)])),
           s=st.sampled_from([1, -1]))
    @example(theta=1.0, phi=math.pi, s=-1)  # phi + pi is exactly 2*pi
    def test_eigenstate_matches_full_route(self, theta, phi, s):
        # the -1 eigenstate reduces phi + pi by one exact subtraction
        axis = Axis(theta, phi)
        half = 0.5 * axis.theta
        rho, tau = ((math.cos(half) ** 2, axis.phi) if s == 1
                    else (math.sin(half) ** 2, axis.phi + math.pi))
        state = state_from_eigenvector(axis, s)
        assert [state.rho.hex(), state.tau.hex()] == [
            v.hex() for v in pure_state_fields(rho, tau)]

    def test_canonical_state_allocates_no_more_than_wrapping(self):
        # filling the instance `__dict__` would build a dict per state, and
        # the full route two new floats (48 bytes) per state
        def allocated(make) -> int:
            tracemalloc.start()
            try:
                states = [make(0.3, 2.0) for _ in range(1000)]  # alive while measured
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # a few dozen bytes of drift, not an object per state
        assert allocated(PureState) <= allocated(_wrapped_state) + 1000


class TestBornRule:
    def test_three_routes_agree(self, rng):
        # closed form vs eigenspinor overlap vs Bloch alignment
        for _ in range(500):
            state, axis = uniform_state(rng), uniform_axis(rng)
            p = born_up(state, axis)
            psi = amplitudes(state).as_array()
            up_f, _ = eigenpair(axis)
            via_overlap = abs(np.vdot(up_f.as_array(), psi)) ** 2
            via_bloch = 0.5 * (1.0 + float(np.dot(unit_vector(axis), bloch_vector(state))))
            assert abs(p - via_overlap) <= 1e-12
            assert abs(p - via_bloch) <= 1e-12

    def test_range(self, rng):
        for _ in range(200):
            p = born_up(uniform_state(rng), uniform_axis(rng))
            assert 0.0 <= p <= 1.0

    def test_eigen_alignment(self):
        assert born_up(PureState(1.0, 0.0), Axis(0.0, 0.0)) == 1.0
        assert born_up(PureState(0.0, 0.0), Axis(0.0, 0.0)) == 0.0


# the values of a state's and an axis's angles nearest their edges
_NEAR_TWO_PI = math.nextafter(TWO_PI, 0.0)
born_states = st.builds(
    PureState,
    st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5, 1e-20, 1.0 - 1e-16])),
    st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi, _NEAR_TWO_PI])),
)
born_axes = st.builds(
    Axis,
    st.one_of(st.floats(0.0, math.pi), st.sampled_from([0.0, 0.5 * math.pi, math.pi])),
    st.one_of(st.floats(0.0, TWO_PI), st.sampled_from([0.0, math.pi, _NEAR_TWO_PI])),
)


class TestBornClamp:
    """`born_up` clamps its closed form to [0, 1] by comparison; bit for bit
    that is the `min`/`max` clamp of `born_up_min_max`."""

    @settings(max_examples=500, deadline=None)
    @given(born_states, born_axes)
    def test_matches_min_max_oracle(self, state, axis):
        assert born_up(state, axis).hex() == born_up_min_max(state, axis).hex()

    def test_edges_match_min_max_oracle(self, rng):
        # certain states read on the poles and off them, eigenstates read on
        # their own axis and its antipode, and p = 1/2 on the equator
        pairs = [(PureState(rho, 0.0), Axis(theta, 0.0))
                 for rho in (0.0, 1.0) for theta in (0.0, math.pi, 1.0)]
        for _ in range(200):
            axis = uniform_axis(rng)
            for s in (1, -1):
                state = state_from_eigenvector(axis, s)
                pairs += [(state, axis), (state, antipode(axis))]
            tau = float(rng.uniform(0.0, TWO_PI))
            pairs.append((PureState(0.5, tau), Axis(0.5 * math.pi, tau)))
        raw = [born_up_unclamped(state, axis) for state, axis in pairs]
        assert min(raw) < 0.0 and max(raw) > 1.0  # both ends are crossed
        for state, axis in pairs:
            assert born_up(state, axis).hex() == born_up_min_max(state, axis).hex()

    def test_nan_probability_reads_zero(self):
        # unreachable from a valid state; a NaN phase makes the closed form NaN
        state = SimpleNamespace(rho=0.5, tau=math.nan)
        assert math.isnan(born_up_unclamped(state, Axis(1.0, 1.0)))
        assert born_up(state, Axis(1.0, 1.0)).hex() == born_up_min_max(
            state, Axis(1.0, 1.0)).hex() == "0x0.0p+0"


class TestStateConstructors:
    def test_state_from_eigenvector_is_certain(self, rng):
        for _ in range(200):
            axis = uniform_axis(rng)
            up_state = state_from_eigenvector(axis, +1)
            down_state = state_from_eigenvector(axis, -1)
            assert born_up(up_state, axis) >= 1.0 - 1e-12
            assert born_up(down_state, axis) <= 1e-12
            assert np.allclose(bloch_vector(up_state), unit_vector(axis), atol=1e-12)
            assert np.allclose(bloch_vector(down_state), -unit_vector(axis), atol=1e-12)

    @pytest.mark.parametrize("bad", [
        0, 2, -2, True, False, 1.0, -1.0, np.float64(1.0), np.True_, Fraction(1),
        1 + 0j, "1", None,
    ])
    def test_state_from_eigenvector_validates_sign(self, bad):
        # a bool or a float equal to +-1 is not an outcome either
        with pytest.raises(ValueError) as exc:
            state_from_eigenvector(Axis(1.0, 1.0), bad)
        assert str(exc.value) == f"outcome must be +1 or -1, got {bad!r}"

    @pytest.mark.parametrize("s", [np.int64(1), np.int8(-1), np.uint8(1), np.int32(-1)])
    def test_state_from_eigenvector_takes_numpy_integers(self, s):
        axis = Axis(1.0, 1.0)
        assert state_from_eigenvector(axis, s) == state_from_eigenvector(axis, int(s))

    def test_state_from_amplitudes_gauge(self, rng):
        for _ in range(200):
            z = rng.normal(size=4)
            a_up = complex(z[0], z[1])
            a_down = complex(z[2], z[3])
            norm = math.sqrt(abs(a_up) ** 2 + abs(a_down) ** 2)
            if norm < 1e-6:
                continue
            s = state_from_amplitudes(a_up, a_down)
            b = amplitudes(s)
            # same ray: the two amplitude pairs differ by a global phase only
            ip = (a_up / norm) * b.up.conjugate() + (a_down / norm) * b.down.conjugate()
            assert abs(ip) == pytest.approx(1.0, abs=1e-12)

    def test_state_from_amplitudes_normalizes(self):
        s = state_from_amplitudes(3.0, 4.0)
        assert s.rho == pytest.approx(9.0 / 25.0, abs=1e-15)

    def test_state_from_amplitudes_poles(self):
        assert state_from_amplitudes(2.0, 0.0) == PureState(1.0, 0.0)
        assert state_from_amplitudes(0.0, 1j) == PureState(0.0, 0.0)

    def test_state_from_amplitudes_rejects_zero(self):
        with pytest.raises(ValueError):
            state_from_amplitudes(0.0, 0.0)

    @pytest.mark.parametrize("up, down, same_as", [
        # tiny but nonzero: only an exact zero is rejected
        (1e-12, 0.0, (1.0, 0.0)),
        (3e-13, 4e-13, (3.0, 4.0)),
        # subnormal: rescaled before the norm loses its bits
        (3 * 2.0**-1070, 4j * 2.0**-1070, (3.0, 4j)),
        # a norm that overflows: rescaled instead of collapsing to rho = 1
        (1.5e308, 1.5e308, (1.0, 1.0)),
        (complex(1.5, 1.0) * 2.0**1023, -1.5 * 2.0**1023, (1.5 + 1j, -1.5)),
    ])
    def test_state_from_amplitudes_extreme_scales(self, up, down, same_as):
        assert state_from_amplitudes(up, down) == state_from_amplitudes(*same_as)

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(
            st.one_of(st.just(0.0), st.floats(2.0**-20, 7.99), st.floats(-7.99, -2.0**-20)),
            min_size=4, max_size=4,
        ).filter(any),
        k=st.integers(-1000, 1020),
    )
    def test_state_from_amplitudes_scale_free(self, parts, k):
        # parts in [2**-20, 8) scale by 2**k without rounding over the whole range
        up, down = complex(parts[0], parts[1]), complex(parts[2], parts[3])
        scaled = [math.ldexp(x, k) for x in parts]
        got = state_from_amplitudes(complex(*scaled[:2]), complex(*scaled[2:]))
        assert got == state_from_amplitudes(up, down)

    def test_state_from_amplitudes_phase(self):
        tau = 1.1
        s = state_from_amplitudes(cmath.exp(-1j * tau) * math.sqrt(0.3), math.sqrt(0.7))
        assert s.rho == pytest.approx(0.3, abs=1e-12)
        assert s.tau == pytest.approx(tau, abs=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(parts=st.lists(amplitude_parts, min_size=4, max_size=4).filter(any))
    # a subnormal |down| once gave rho = 0.8125 here through an inexact phase factor
    @example(parts=[0.6181578968185409, 0.006276010528103414, 1e-323, 5e-324])
    @example(parts=[0.0, 1e300, -5e-324, 0.0])
    @example(parts=[2.0**-1074, 0.0, 1e-310, -3e-320])
    def test_state_from_amplitudes_exact(self, parts):
        # rho and tau against the exact rational rho and the phase of up * conj(down)
        u_re, u_im, d_re, d_im = map(Fraction, parts)
        n_up, n_down = u_re * u_re + u_im * u_im, d_re * d_re + d_im * d_im
        rho = n_up / (n_up + n_down)
        got = state_from_amplitudes(complex(*parts[:2]), complex(*parts[2:]))
        assert abs(Fraction(got.rho) - rho) <= Fraction(1, 10**12)
        if Fraction(1, 10**9) < rho < 1 - Fraction(1, 10**9):
            re, im = u_re * d_re + u_im * d_im, u_im * d_re - u_re * d_im
            big = max(abs(re), abs(im))  # atan2 is scale-free: bring both to [-1, 1]
            gap = (got.tau + math.atan2(float(im / big), float(re / big))) % TWO_PI
            assert min(gap, TWO_PI - gap) <= 1e-9

    def test_state_from_bloch_round_trip(self, rng):
        for _ in range(200):
            s = uniform_state(rng)
            if min(s.rho, 1.0 - s.rho) < 1e-6:
                continue
            t = state_from_bloch(bloch_vector(s))
            assert t.rho == pytest.approx(s.rho, abs=1e-12)
            assert min(
                abs(t.tau - s.tau), TWO_PI - abs(t.tau - s.tau)
            ) <= 1e-9

    @pytest.mark.parametrize("vec, state", [
        (np.array([0.0, 0.0, 0.5]), PureState(1.0, 0.0)),
        # lengths whose square overflows, then underflows twice
        ([0.0, 0.0, 1e200], PureState(1.0, 0.0)),
        ([0.0, 0.0, 1e-200], PureState(1.0, 0.0)),
        # normalizes to (0.6, 0.8 - 1 ulp, 0)
        ([3e-170, 4e-170, 0.0], PureState(0.5, math.atan2(0.7999999999999999, 0.6))),
    ])
    def test_state_from_bloch_normalizes(self, vec, state):
        assert state_from_bloch(vec) == state


def _circular_gap(a: float, b: float) -> float:
    gap = abs(a - b) % TWO_PI
    return min(gap, TWO_PI - gap)


def _exact_direction(vec) -> tuple[float, float, float, float]:
    """theta, phi, rho and sin(theta) of a float 3-vector, from 50 digits."""
    with mpmath.workdps(50):
        x, y, z = (mpmath.mpf(float(c)) for c in vec)
        r_xy = mpmath.hypot(x, y)
        norm = mpmath.sqrt(x * x + y * y + z * z)
        phi = mpmath.atan2(y, x) % (2 * mpmath.pi)
        return (float(mpmath.atan2(r_xy, z)), float(phi), float((1 + z / norm) / 2),
                float(r_xy / norm))


def _assert_exact_direction(vec) -> None:
    """`axis_from_vector` and `state_from_bloch` of a finite nonzero 3-vector
    point along it to a few ulps, or the axis is snapped onto a pole."""
    axis, state = axis_from_vector(vec), state_from_bloch(vec)
    theta, phi, rho, sin_theta = _exact_direction(vec)
    if axis.theta in (0.0, math.pi) and axis.phi == 0.0 and sin_theta <= 1.01e-13:
        assert abs(axis.theta - theta) <= 1.01e-13  # snapped onto a pole
    else:
        assert abs(axis.theta - theta) <= 2e-15
        assert _circular_gap(axis.phi, phi) <= 2e-15
    assert abs(state.rho - rho) <= 2e-15
    if 0.0 < state.rho < 1.0:
        assert _circular_gap(state.tau, phi) <= 2e-15


class TestVectorReaders:
    """`axis_from_vector` and `state_from_bloch` share one 3-vector reader,
    and `state_from_bloch` leaves the range of rho and the tau of a pole to
    `PureState`.  Where the largest part is in the normal range, every result
    and message is the old spelling's, bit for bit; everywhere, the direction
    is the exact one of the float vector."""

    @staticmethod
    def _outcome(make, vec):
        try:
            value = make(vec)
        except ValueError as exc:
            return str(exc)
        return tuple(getattr(value, f).hex() for f in value.__dataclass_fields__)

    @settings(max_examples=500, deadline=None)
    @given(vector_components, vector_components, vector_components,
           st.sampled_from([1.0, 2.0**-1074, 1e-300, 1e300]))
    @example(-0.0, 0.0, -2.0, 1.0)
    @example(0.0, -0.0, 5e-324, 1.0)
    @example(-1e-300, 0.0, 1.0, 1.0)
    @example(3.0, 4.0, 0.0, 1e300)
    def test_same_as_old_spelling(self, x, y, z, scale):
        vec = [x * scale, y * scale, z * scale]
        if all(map(math.isfinite, vec)) and not in_normal_range(vec) and any(vec):
            return  # rescaled on purpose: `test_exact_direction` checks these
        assert self._outcome(state_from_bloch, vec) == self._outcome(
            state_from_bloch_clamped, vec)
        assert self._outcome(axis_from_vector, vec) == self._outcome(
            axis_from_vector_own_reader, vec)

    @settings(max_examples=500, deadline=None)
    @given(vector_components, vector_components, vector_components,
           st.sampled_from([1.0, 2.0**-1074, 2.0**-1060, 1e-300, 1e300, 2.0**1000]))
    # past DBL_MAX the length overflowed and the axis snapped onto the north
    # pole; every part divided by inf gave rho = 1/2
    @example(-1.2711610061536464e308, 0.0, 1.2711610061536462e308, 1.0)
    @example(1e308, -1e308, 1e308, 1.0)
    # the length of subnormal parts rounded to a multiple of 5e-324
    @example(5e-324, 5e-324, 5e-324, 1.0)
    @example(3e-323, -1e-323, 2e-323, 1.0)
    @example(1.0, 1.0, 1.0, 2.0**-1074)
    @example(0.0, 0.0, -1.0, 1e-320)
    def test_exact_direction(self, x, y, z, scale):
        vec = [x * scale, y * scale, z * scale]
        if all(map(math.isfinite, vec)) and any(vec):
            _assert_exact_direction(vec)  # else rejected, as the old spelling did

    @pytest.mark.parametrize("k", [-1074, -1060, -1000, 900, 1020])
    def test_scale_free(self, k, rng):
        # parts in [2**-20, 8) scale by 2**k without rounding when 2**k is
        # at least 2**-1002; below that the parts round, and the direction
        # moves by their rounding
        for _ in range(50):
            parts = [math.copysign(math.ldexp(rng.uniform(1.0, 2.0), int(e)), sign)
                     for e, sign in zip(rng.integers(-20, 3, 3), rng.choice([-1.0, 1.0], 3))]
            scaled = [math.ldexp(c, k) for c in parts]
            if k >= -1002:
                for make in (axis_from_vector, state_from_bloch):
                    assert make(scaled) == make(parts)
            if any(scaled):  # at 2**-1074 every part can round to zero
                _assert_exact_direction(scaled)

    @pytest.mark.parametrize("vec", [[1.0, 2.0], [[0.0, 0.0, 1.0]], np.zeros((3, 1))])
    def test_shape_messages_unchanged(self, vec):
        for make, old in [(state_from_bloch, state_from_bloch_clamped),
                          (axis_from_vector, axis_from_vector_own_reader)]:
            assert self._outcome(make, vec) == self._outcome(old, vec)
            assert self._outcome(make, vec).startswith("expected a 3-vector")


class TestAtan2Reduction:
    """`_xyz_angles` reduces its `atan2` angles itself: bit for bit what
    `_reduce_angles` makes of them (`xyz_angles_reduced`), on every finite
    nonzero input."""

    @settings(max_examples=1000, deadline=None)
    @given(vector_components, vector_components, vector_components,
           st.sampled_from([1.0, 2.0**-1074, 1e-300, 1e300]))
    @example(-1.0, 0.0, 0.5, 1.0)  # phi = atan2(+0.0, x < 0) = pi
    @example(-1.0, -0.0, 0.5, 1.0)  # phi = atan2(-0.0, x < 0) = -pi, reads pi
    @example(1.0, -1e-300, 0.5, 1.0)  # phi + 2 pi rounds to 2 pi, reads 0.0
    @example(2.0, -0.0, -1.0, 1.0)  # phi = -0.0 reads 0.0
    @example(-1.0, -1e-300, 0.0, 1.0)  # phi = atan2(-1e-300, -1) rounds to -pi
    @example(1e-20, 0.0, 1.0, 1.0)  # snapped onto the north pole
    def test_same_bits_as_reduce_angles(self, x, y, z, scale):
        v = x * scale, y * scale, z * scale
        if not all(map(math.isfinite, v)) or not any(v):
            return  # outside what `_xyz_angles` takes: `_floats3` rejects it
        expected = tuple(map(float.hex, xyz_angles_reduced(*v)))
        assert tuple(map(float.hex, _xyz_angles(*v))) == expected


@pytest.mark.parametrize("make, args, message", [
    (Spinor, (math.nan, 0.0), "spinor components must be finite"),
    (Spinor, (0.6, complex(0.0, math.inf)), "spinor components must be finite"),
    (state_from_amplitudes, (complex(math.inf, 0.0), 1.0), "amplitudes must be finite"),
    (state_from_amplitudes, (1.0, complex(0.0, math.nan)), "amplitudes must be finite"),
    (state_from_amplitudes, (0.0, 0.0), "amplitude pair has zero norm"),
    (state_from_amplitudes, (-0.0, complex(0.0, -0.0)), "amplitude pair has zero norm"),
    (state_from_bloch, ([1.0, 0.0],), "expected a 3-vector, got shape (2,)"),
    (state_from_bloch, ([[0.0, 0.0, 1.0]],), "expected a 3-vector, got shape (1, 3)"),
    (state_from_bloch, ([0.0, math.nan, 1.0],), "vector components must be finite"),
    (state_from_bloch, ([0.0, 0.0, -math.inf],), "vector components must be finite"),
    (state_from_bloch, ([0.0, -0.0, 0.0],), "cannot orient a zero vector"),
])
def test_rejects_with_message(make, args, message):
    with pytest.raises(ValueError) as exc:
        make(*args)
    assert str(exc.value) == message


VALUE_TYPES = [
    # (type, its fields, positional input, canonical field values)
    (Axis, ("theta", "phi"), (-1.0, 0.5), (1.0, 0.5 + math.pi)),
    (Axis, ("theta", "phi"), (0, True), (0.0, 0.0)),  # a pole: phi forced to 0
    (Axis, ("theta", "phi"), (np.float64(2.0), 7), (2.0, 7.0 - TWO_PI)),
    (PureState, ("rho", "tau"), (0.25, -1.0), (0.25, TWO_PI - 1.0)),
    (PureState, ("rho", "tau"), (True, 2.0), (1.0, 0.0)),  # rho = 1: tau is gauge
    (PureState, ("rho", "tau"), (np.float64(0.5), 3), (0.5, 3.0)),
]


class TestValueTypeContract:
    """`Axis` and `PureState` canonicalize in their own `__init__`; the
    dataclass surface around it stays that of a frozen dataclass."""

    @pytest.mark.parametrize("cls, names, args, canonical", VALUE_TYPES)
    def test_construction_stores_canonical_floats(self, cls, names, args, canonical):
        value = cls(*args)
        assert value == cls(**dict(zip(names, args)))
        assert tuple(getattr(value, n) for n in names) == canonical
        assert all(type(getattr(value, n)) is float for n in names)
        fields_repr = ", ".join(f"{n}={v!r}" for n, v in zip(names, canonical))
        assert repr(value) == f"{cls.__name__}({fields_repr})"
        assert hash(value) == hash(cls(*canonical))

    @pytest.mark.parametrize("cls, names, args, canonical", VALUE_TYPES)
    def test_dataclass_surface(self, cls, names, args, canonical):
        value = cls(*args)
        assert tuple(f.name for f in dataclasses.fields(cls)) == names
        assert cls.__match_args__ == names
        match value:
            case cls(first, second):
                assert (first, second) == canonical
        # replace goes through the constructor, so it canonicalizes too
        assert dataclasses.replace(value, **{names[0]: args[0]}) == cls(args[0], canonical[1])
        restored = pickle.loads(pickle.dumps(value))
        assert restored == value and repr(restored) == repr(value)
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 0.5)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert tuple(getattr(value, n) for n in names) == canonical

