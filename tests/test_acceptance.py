"""Acceptance gate: ten numbered end-to-end checks at fixed tolerances.

Each test prints exactly one `[criterion N] PASS` or `[criterion N] FAIL`
line so a plain pytest run doubles as a scorecard.  The tests after them
check rules that hold across the package: each kind of argument is read in
one place, and every value goes through its constructor.
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
    azimuth_descent,
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


def _where(match) -> set[str]:
    """Each function of `src/spincollapse`, as "module.qualname", that holds
    a node `match` accepts; a module-level node counts as the module."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        if match(node):
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    paths = sorted(Path(spincollapse.__file__).parent.glob("*.py"))
    assert {"spin.py", "solver.py", "simulate.py"} <= {path.name for path in paths}
    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


def _named(module: str, *names: str):
    """Matches `module.name` and `from module import name`, for each name."""
    def match(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == module and any(a.name in names for a in node.names)
        return (isinstance(node, ast.Attribute) and node.attr in names
                and isinstance(node.value, ast.Name) and node.value.id == module)
    return match


def _isinstance_bool(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and any(isinstance(n, ast.Name) and n.id == "bool"
                    for n in ast.walk(node.args[1])))


def test_no_module_builds_values_past_their_constructor():
    # `object.__new__` makes an instance without its `__init__`: a value type
    # has one constructor, and it validates and canonicalizes
    assert _where(_named("object", "__new__")) == set()


UP_Z = PureState(1.0, 0.0)
TILT = Axis(math.pi / 3, 0.0)

# every integer argument: a call that takes it, a plain int it accepts, and
# the message that refuses anything else
INTEGER_ARGUMENTS = {
    "outcome": (lambda v: state_from_eigenvector(Axis(1.0, 1.0), v), 1,
                lambda v: f"outcome must be +1 or -1, got {v!r}"),
    "level": (lambda v: azimuth_descent(PureState(0.3, 0.0), TILT, v, 1.0), 1,
              lambda v: f"level must lie in [0, 1] for this pair (2 feasible circle(s)), got {v!r}"),
    "grid": (lambda v: brute_force_oracle(UP_Z, TILT, grid=(v, 24)), 16,
             lambda v: f"grid must be two integer sizes, got {(v, 24)!r}"),
    "steps": (lambda v: simulate(UP_Z, TILT, SimConfig(steps=v, outcome="born", seed=1)), 3,
              lambda v: f"steps must be a positive integer, got {v!r}"),
    "seed": (lambda v: simulate(UP_Z, TILT, SimConfig(steps=3, outcome="born", seed=v)), 5,
             lambda v: f"seed must be None or a non-negative integer, got {v!r}"),
    "index": (lambda v: step(UP_Z, TILT, SimConfig(steps=1, outcome="risk:constant"), index=v), 3,
              lambda v: f"index must be a non-negative integer, got {v!r}"),
}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{getattr(value, '__name__', repr(value))}")
    for site in INTEGER_ARGUMENTS
    for value in (np.int64, np.uint8, True, np.True_, 1.0, "1", None)
    if not (site == "seed" and value is None)  # seed=None is no seed
])
def test_one_integer_rule(site, value):
    # a numpy integer is the plain int it holds; a bool, a float, a string
    # and None are no integer, and each argument refuses them in its words
    run, plain, message = INTEGER_ARGUMENTS[site]
    if isinstance(value, type):
        assert repr(run(value(plain))) == repr(run(plain))
        return
    with pytest.raises(ValueError) as exc:
        run(value)
    assert str(exc.value) == message(value)


def test_each_argument_rule_is_written_once():
    # what an integer is: `spin._integer`
    assert _where(_named("operator", "index")) == {"spin._integer"}
    assert _where(_isinstance_bool) == {"spin._integer"}
    # the finite test, zero test and rescale of a raw vector or amplitude
    # pair: `spin._raw_parts`; `state_from_amplitudes` rescales a subnormal
    # |down| after normalizing.  The other finite tests are of an angle
    # pair, a spinor's norm, a state's (rho, tau), a log base and a start
    # azimuth.
    assert _where(_named("math", "frexp", "ldexp")) == {
        "spin._raw_parts", "spin.state_from_amplitudes"}
    assert _where(_named("math", "isfinite")) == {
        "spin._raw_parts", "spin.Axis.__init__", "spin.Spinor.__post_init__",
        "spin.PureState.__init__", "entropy._check_base", "solver.azimuth_descent"}
    # the readers of `_floats3`'s parts test nothing again
    readers = {"spin._xyz_angles", "spin.axis_from_vector", "spin.state_from_bloch"}
    assert readers & _where(lambda node: isinstance(node, ast.Raise)) == set()
