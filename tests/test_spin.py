"""Axis canonicalization, spin operator algebra, states, and the Born rule."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
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

from helpers import angle_between, uniform_axis, uniform_state

finite_angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
TWO_PI = 2.0 * math.pi


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
        with pytest.raises(ValueError):
            Axis(bad, 0.0)
        with pytest.raises(ValueError):
            Axis(0.0, bad)


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

    @pytest.mark.parametrize("rho", [-1e-9, 1.0 + 1e-9, 2.0, math.nan])
    def test_out_of_range_rejected(self, rho):
        with pytest.raises(ValueError):
            PureState(rho, 0.0)

    def test_phase_wraps(self):
        assert PureState(0.5, -1.0).tau == pytest.approx(TWO_PI - 1.0, abs=1e-15)
        assert 0.0 <= PureState(0.5, 123.456).tau < TWO_PI

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

    def test_state_from_eigenvector_validates_sign(self):
        with pytest.raises(ValueError):
            state_from_eigenvector(Axis(1.0, 1.0), 0)

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

    def test_state_from_amplitudes_phase(self):
        tau = 1.1
        s = state_from_amplitudes(cmath.exp(-1j * tau) * math.sqrt(0.3), math.sqrt(0.7))
        assert s.rho == pytest.approx(0.3, abs=1e-12)
        assert s.tau == pytest.approx(tau, abs=1e-12)

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

    def test_state_from_bloch_normalizes(self):
        assert state_from_bloch(np.array([0.0, 0.0, 0.5])) == PureState(1.0, 0.0)
