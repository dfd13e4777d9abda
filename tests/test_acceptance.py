"""Acceptance gate: ten numbered end-to-end checks at fixed tolerances.

Each test prints exactly one `[criterion N] PASS` or `[criterion N] FAIL`
line so a plain pytest run doubles as a scorecard.
"""

import ast
import contextlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import spincollapse
from spincollapse import (
    Axis,
    PureState,
    SimConfig,
    amplitudes,
    binary_entropy,
    bloch_vector,
    born_up,
    brute_force_oracle,
    constraint_residual,
    eigenpair,
    feasible_set,
    make_rng,
    overlap,
    s_down,
    s_i,
    s_up,
    simulate,
    solve,
    spin_operator,
    state_from_eigenvector,
    step,
    unit_vector,
)
from spincollapse.cli import main as cli_main

from helpers import non_eigen_pair, triple_product, uniform_axis, uniform_state


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL ({label})")
        raise
    print(f"[criterion {number}] PASS ({label})")


def test_criterion_01_up_down_transfer_entropies_agree():
    rng = make_rng(101)
    with criterion(1, "s_up == s_down to 1e-12 over 10^4 axis pairs"):
        for _ in range(10_000):
            a, b = uniform_axis(rng), uniform_axis(rng)
            assert abs(s_up(a, b) - s_down(a, b)) <= 1e-12


def test_criterion_02_cross_overlap_completeness():
    rng = make_rng(102)
    with criterion(2, "|<up_f|up_i>|^2 + |<up_f|down_i>|^2 == 1 to 1e-12"):
        for _ in range(10_000):
            a_i, a_f = uniform_axis(rng), uniform_axis(rng)
            up_i, down_i = eigenpair(a_i)
            up_f, _ = eigenpair(a_f)
            total = abs(overlap(up_f, up_i)) ** 2 + abs(overlap(up_f, down_i)) ** 2
            assert abs(total - 1.0) <= 1e-12


def test_criterion_03_eigen_relations():
    rng = make_rng(103)
    with criterion(3, "spin operator eigen-relations to 1e-12 over 10^3 axes"):
        for _ in range(1_000):
            axis = uniform_axis(rng)
            op = spin_operator(axis)
            up, down = eigenpair(axis)
            assert np.linalg.norm(op @ up.as_array() - up.as_array()) <= 1e-12
            assert np.linalg.norm(op @ down.as_array() + down.as_array()) <= 1e-12


def test_criterion_04_born_probability_three_ways():
    rng = make_rng(104)
    with criterion(4, "born_up == |overlap|^2 == (1 + n.m)/2 to 1e-12"):
        for _ in range(10_000):
            state, axis = uniform_state(rng), uniform_axis(rng)
            p = born_up(state, axis)
            psi = amplitudes(state).as_array()
            up_f, _ = eigenpair(axis)
            via_overlap = abs(np.vdot(up_f.as_array(), psi)) ** 2
            via_bloch = 0.5 * (
                1.0 + float(np.dot(unit_vector(axis), bloch_vector(state)))
            )
            assert abs(p - via_overlap) <= 1e-12
            assert abs(p - via_bloch) <= 1e-12


def test_criterion_05_strict_solver_vs_grid_oracle():
    rng = make_rng(105)
    started = time.monotonic()
    with criterion(
        5, "strict minimizers feasible to 1e-9 and beat the 400x800 oracle"
    ):
        for _ in range(100):
            state, axis = non_eigen_pair(rng, margin=0.05)
            sol = solve(state, axis, "strict")
            for a in sol.minimizers:
                assert abs(constraint_residual(state, axis, a)) <= 1e-9
            _, oracle_objective = brute_force_oracle(
                state, axis, grid=(400, 800), constraint_tol=5e-3
            )
            assert sol.objective <= oracle_objective + 0.01
        assert time.monotonic() - started < 60.0


def test_criterion_06_reflective_geometry_and_closed_form():
    rng = make_rng(106)
    with criterion(
        6, "reflective minimizers in-plane, closed-form value, oracle-bounded"
    ):
        for _ in range(100):
            while True:
                state, axis = non_eigen_pair(rng, margin=0.05)
                cos_b = float(np.dot(unit_vector(axis), bloch_vector(state)))
                beta = math.acos(min(1.0, max(-1.0, cos_b)))
                # keep the mirror pair clear of the excluded neighborhoods
                if min(2.0 * beta, math.pi - 2.0 * beta) > 0.3:
                    break
            sol = solve(state, axis, "reflective")
            m = bloch_vector(state)
            n_i = unit_vector(axis)
            closed_form = binary_entropy(0.5 * (1.0 + abs(math.cos(2.0 * beta))))
            for a in sol.minimizers:
                assert abs(triple_product(m, n_i, unit_vector(a))) <= 1e-9
            assert abs(sol.objective - closed_form) <= 1e-9
            # independent route: the mirror is the azimuth-pi point of the
            # feasible circle through the measured axis
            fs = feasible_set(state, axis)
            circle_route = s_up(axis, fs.axis_on_circle(0, math.pi))
            assert abs(sol.objective - circle_route) <= 1e-9
            # the excluded-neighborhood grid search never does better than
            # the mirror value by more than its own resolution allows
            _, oracle_objective = brute_force_oracle(
                state, axis, grid=(200, 400), constraint_tol=5e-3, exclude=0.2
            )
            assert oracle_objective <= sol.objective + 0.02


def test_criterion_07_no_collapse_on_eigenstates():
    rng = make_rng(107)
    with criterion(7, "eigenstate inputs keep the axis and zero entropies"):
        cases = [
            (PureState(1.0, 0.0), Axis(0.0, 0.0)),
            (PureState(0.0, 0.0), Axis(0.0, 0.0)),
        ]
        for _ in range(10):
            axis = uniform_axis(rng)
            for sign in (+1, -1):
                cases.append((state_from_eigenvector(axis, sign), axis))
        for state, axis in cases:
            assert min(born_up(state, axis), 1.0 - born_up(state, axis)) <= 1e-12
            sol = solve(state, axis)
            assert sol.no_collapse
            assert sol.minimizers == (axis,)
            assert sol.objective == 0.0
            assert s_i(state, axis) <= 1e-12
            for record in simulate(state, axis, SimConfig(steps=2)):
                assert record.no_collapse
                assert record.axis_measured == axis
                assert record.axis_next == axis
                assert record.s_i <= 1e-12
                assert record.s_up_next == 0.0


def test_criterion_08_trajectory_documents_bit_identical():
    runner = CliRunner()
    with criterion(8, "identical simulate invocations emit identical bytes"):
        for argv in (
            ["simulate", "--rho", "0.64", "--tau", "2.2", "--theta-i", "1.2",
             "--phi-i", "0.3", "--steps", "6", "--mode", "reflective",
             "--outcome", "born", "--seed", "2024"],
            ["simulate", "--rho", "1", "--tau", "0", "--theta-i", "1.0471975512",
             "--steps", "4", "--mode", "strict",
             "--outcome", "risk:born-surprise"],
        ):
            first = runner.invoke(cli_main, argv)
            second = runner.invoke(cli_main, argv)
            assert first.exit_code == 0 and second.exit_code == 0
            assert first.output == second.output
            json.loads(first.output)  # well-formed machine-readable document


def test_criterion_09_born_frequency_at_three_quarters():
    with criterion(9, "10^4 born samples at p_up = 3/4 land in [0.73, 0.77]"):
        state = PureState(1.0, 0.0)
        axis = Axis(math.pi / 3, 0.0)
        assert born_up(state, axis) == pytest.approx(0.75, abs=1e-12)
        rng = make_rng(7)
        config = SimConfig(steps=1, outcome="born", seed=0)
        hits = sum(
            step(state, axis, config, rng).s == +1 for _ in range(10_000)
        )
        assert 0.73 <= hits / 10_000 <= 0.77


def test_criterion_10_entropy_base_does_not_move_minimizers():
    rng = make_rng(110)
    with criterion(10, "base-e and base-2 solves return the same minimizers"):
        for _ in range(100):
            state, axis = non_eigen_pair(rng)
            for mode in ("strict", "reflective"):
                nat = solve(state, axis, mode, base=math.e)
                two = solve(state, axis, mode, base=2.0)
                assert len(nat.minimizers) == len(two.minimizers)
                for a, b in zip(nat.minimizers, two.minimizers):
                    assert abs(a.theta - b.theta) <= 1e-9
                    assert abs(a.phi - b.phi) <= 1e-9


def test_no_module_builds_values_past_their_constructor():
    # `object.__new__` makes an instance without its `__init__`: a value type
    # has one constructor, and it validates and canonicalizes
    paths = sorted(Path(spincollapse.__file__).parent.glob("*.py"))
    assert {"spin.py", "solver.py", "simulate.py"} <= {path.name for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
