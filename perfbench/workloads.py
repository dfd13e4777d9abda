"""Seeded inputs, timed operations and output checks for each workload.

A workload makes a fixed pool of inputs from its seed (`inputs`), which the
benchmark measures over and over.  `run` is the timed operation; `check`
validates the first output for an input, outside the timed region, and
returns a list of problems (empty when the output is right); every repeat
must then reproduce that output exactly.  The checks
never depend on the coordinate frame: reflective mode may return either of
the mirror pair +-r, so they test conservation, coplanarity and objective
consistency rather than pinning a representative.

Inputs come from `random.Random(seed)`, not numpy, so they do not change
with the numpy version.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass, replace
from types import SimpleNamespace

import spincollapse as sc
from spincollapse import (
    Axis,
    PureState,
    SimConfig,
    binary_entropy,
    born_up,
    constraint_residual,
    s_up,
    simulate,
    solve,
)

OUTCOMES = ("born", "risk:born-surprise", "risk:alignment", "risk:constant")
EXCLUDE = 0.2  # trivial-axis exclusion radius for the excluded oracle (rad)
ORACLE_GRID = (400, 800)  # brute_force_oracle's default grid
TOL = 1e-9  # conservation / coplanarity tolerance on O(1) quantities


@dataclass(frozen=True)
class Sizes:
    traj_steps: int = 20
    descent_starts: int = 4
    cli_steps: int = 1000
    cli_grid: tuple[int, int] = (200, 400)


FULL = Sizes()
TINY = Sizes(traj_steps=6, descent_starts=2, cli_steps=40, cli_grid=(20, 40))


# ---------------------------------------------------------------------------
# input generation and frame-free geometry


def _unit(rng: random.Random) -> tuple[float, float, float]:
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(max(0.0, 1.0 - z * z))
    return (r * math.cos(phi), r * math.sin(phi), z)


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _vec(axis: Axis):
    st = math.sin(axis.theta)
    return (st * math.cos(axis.phi), st * math.sin(axis.phi), math.cos(axis.theta))


def _bloch(state: PureState):
    r = 2.0 * math.sqrt(state.rho * (1.0 - state.rho))
    return (r * math.cos(state.tau), r * math.sin(state.tau), 2.0 * state.rho - 1.0)


def make_pair(rng: random.Random, beta: float, n=None) -> tuple[PureState, Axis]:
    """A state whose Bloch vector makes angle `beta` with the axis `n`."""
    n = n or _unit(rng)
    while True:  # a random direction perpendicular to n
        u = _cross(n, _unit(rng))
        norm = math.sqrt(_dot(u, u))
        if norm > 0.1:
            break
    u = tuple(c / norm for c in u)
    m = tuple(math.cos(beta) * a + math.sin(beta) * b for a, b in zip(n, u))
    rho = min(1.0, max(0.0, 0.5 * (1.0 + m[2])))
    tau = math.atan2(m[1], m[0]) % (2.0 * math.pi)
    theta = math.acos(min(1.0, max(-1.0, n[2])))
    phi = math.atan2(n[1], n[0]) % (2.0 * math.pi)
    return PureState(rho, tau), Axis(theta, phi)


TRANSITION_GAP = 0.15


def generic_beta(rng: random.Random) -> float:
    """Tilt with Born probability in [0.02, 0.98], so every pair collapses and
    the excluded oracle stays feasible (2*beta > EXCLUDE on both sides), kept
    TRANSITION_GAP away from the basin transitions at pi/4 and 3*pi/4, where
    the psi = pi critical point flattens and azimuth descent stalls before
    reaching it within its iteration cap."""
    while True:
        beta = math.acos(rng.uniform(-0.96, 0.96))
        if min(abs(beta - math.pi / 4), abs(beta - 3 * math.pi / 4)) > TRANSITION_GAP:
            return beta


def in_plane_error(state: PureState, axis_i: Axis, axis_f: Axis) -> float:
    """|n_f . (m x n_i)|: distance of n_f from the plane of m and n_i."""
    return abs(_dot(_vec(axis_f), _cross(_bloch(state), _vec(axis_i))))


def check_oracle(state, axis, result, exclude, grid, tag) -> list[str]:
    """The grid minimum agrees with the closed form within the grid's bound.

    Over the feasible circles |n_i . n_f| takes every value up to 1, so the
    constrained minimum of s_up with the trivial caps of radius R removed is
    H((1 + cos R)/2), approached at the cap boundary (0 for R = 0).  Some
    feasible grid point lies within two cell diagonals of that point.
    """
    axis_o, obj = result
    radius = exclude or 0.0
    cell = math.hypot(math.pi / (grid[0] - 1), 2.0 * math.pi / grid[1])
    lower = binary_entropy(0.5 * (1.0 + math.cos(radius)))
    upper = binary_entropy(0.5 * (1.0 + math.cos(radius + 2.0 * cell)))
    problems = []
    if not lower - 1e-12 <= obj <= upper:
        problems.append(f"{tag}: objective {obj!r} outside [{lower!r}, {upper!r}]")
    if abs(obj - s_up(axis, axis_o)) > TOL:
        problems.append(f"{tag}: objective {obj!r} != s_up at its axis")
    if abs(constraint_residual(state, axis, axis_o)) > 5e-3 + 1e-12:
        problems.append(f"{tag}: axis violates the entropy constraint")
    return problems


def check_solution(state, axis, sol, mode) -> list[str]:
    """Closed-form solve: conservation, coplanarity and objective, frame-free."""
    if sol.no_collapse or len(sol.minimizers) != 2:
        return [f"{mode}: expected two minimizers, got {sol}"]
    problems = []
    for a in sol.minimizers:
        if abs(constraint_residual(state, axis, a)) > TOL:
            problems.append(f"{mode}: minimizer {a} violates conservation")
        if in_plane_error(state, axis, a) > TOL:
            problems.append(f"{mode}: minimizer {a} is off the plane of m and n_i")
        if abs(s_up(axis, a) - sol.objective) > TOL:
            problems.append(f"{mode}: objective {sol.objective!r} != s_up at {a}")
    u, v = (_vec(a) for a in sol.minimizers)
    if max(abs(x + y) for x, y in zip(u, v)) > TOL:
        problems.append(f"{mode}: minimizers are not antipodal")
    if mode == "strict":
        n = _vec(axis)
        if sol.objective != 0.0 or abs(abs(_dot(u, n)) - 1.0) > TOL:
            problems.append("strict: minimizers are not the measured axis pair")
    else:
        cosb = 2.0 * born_up(state, axis) - 1.0  # (1 + cos 2b)/2 = cos^2 b
        if abs(sol.objective - binary_entropy(min(1.0, cosb * cosb))) > TOL:
            problems.append(f"reflective: objective {sol.objective!r} != H(cos^2 beta)")
    return problems


def expected_solve_results(sol) -> dict:
    """The `results` block the CLI's solve command should print for `sol`."""

    def ax(a):
        return {"theta": a.theta, "phi": a.phi}

    return {
        "no_collapse": sol.no_collapse,
        "minimizers": [ax(a) for a in sol.minimizers],
        "objective": sol.objective,
        "extrema": [
            {"axis": ax(e.axis), "value": e.value, "kind": e.kind} for e in sol.extrema
        ],
    }


# ---------------------------------------------------------------------------
# workloads


class Trajectory:
    """Independent `simulate` runs from seeded (state, axis) pairs.

    Four in five are reflective, cycling over the outcome rules; one in five
    is strict, which absorbs after its first collapse and then takes the
    no_collapse branch.  Work unit: one trajectory step.
    """

    name = "trajectory"
    ref_every, ref_units = 8, 1  # a reference unit after every 8 runs
    pool = 64

    def __init__(self, seed: int, sizes: Sizes, tracer=None) -> None:
        self.seed, self.sizes = seed, sizes

    def inputs(self) -> list:
        rng = random.Random(self.seed)
        pool = []
        for k in range(self.pool):
            state, axis = make_pair(rng, generic_beta(rng))
            if k % 5 == 4:
                mode, outcome = "strict", OUTCOMES[(k // 5) % 4]
            else:
                mode, outcome = "reflective", OUTCOMES[k % 5]
            config = SimConfig(
                steps=self.sizes.traj_steps,
                mode=mode,
                outcome=outcome,
                seed=rng.randrange(2**32) if outcome == "born" else None,
            )
            pool.append((state, axis, config))
        return pool

    def run(self, inp):
        return sc.simulate(*inp)

    def work(self, inp, out) -> int:
        return len(out)

    def check(self, inp, out) -> list[str]:
        state, axis, config = inp
        if len(out) != config.steps:
            return [f"trajectory has {len(out)} steps, expected {config.steps}"]
        problems = []
        for ts in out:
            if (ts.state_before, ts.axis_measured) != (state, axis):
                problems.append(f"step {ts.index}: does not continue the trajectory")
            if ts.no_collapse:
                if ts.state_after != ts.state_before or ts.axis_next != ts.axis_measured:
                    problems.append(f"step {ts.index}: no_collapse moved the state or axis")
            else:
                res = constraint_residual(ts.state_before, ts.axis_measured, ts.axis_next)
                if abs(res) > TOL:
                    problems.append(f"step {ts.index}: constraint residual {res!r}")
                err = in_plane_error(ts.state_before, ts.axis_measured, ts.axis_next)
                if err > TOL:
                    problems.append(f"step {ts.index}: in-plane error {err!r}")
            state, axis = ts.state_after, ts.axis_next
        return problems


class OracleSweep:
    """Closed form against brute force for seeded (state, axis) pairs.

    Each case solves in both modes, scans the default 400x800 grid plainly
    and with the trivial axes excluded, and descends along every feasible
    circle from starts on either side of its two critical points.  Pairs
    cycle through tilts on both sides of the basin transitions at pi/4 and
    3*pi/4, the merged great circle (p = 1/2) and an axis at a pole, in fixed
    proportions.  A descent costs from 0.1 to 25 ms depending on where it
    stalls, so the pool holds enough cases to average that out.  Work unit:
    one case.
    """

    name = "oracle_sweep"
    ref_every, ref_units = 1, 4  # four reference units after each case
    pool = 36

    def __init__(self, seed: int, sizes: Sizes, tracer=None) -> None:
        self.seed, self.sizes = seed, sizes

    def inputs(self) -> list:
        rng = random.Random(self.seed)
        q, gap = math.pi / 4, TRANSITION_GAP
        tilts = ((0.3, q - gap), (q + gap, 2 * q - 0.05),
                 (2 * q + 0.05, 3 * q - gap), (3 * q + gap, math.pi - 0.3))
        pool = []
        for k in range(self.pool):
            kind = k % 6
            if kind < 4:
                pair = make_pair(rng, rng.uniform(*tilts[kind]))
            elif kind == 4:
                pair = make_pair(rng, math.pi / 2)
            else:
                pole = (0.0, 0.0, rng.choice((1.0, -1.0)))
                pair = make_pair(rng, rng.uniform(*tilts[(k // 6) % 4]), pole)
            # starts on either side of psi = 0 and of psi = pi
            starts = [(j % 2) * math.pi + (-1) ** (j // 2) * rng.uniform(0.2, 0.6)
                      for j in range(self.sizes.descent_starts)]
            pool.append((*pair, starts))
        return pool

    def run(self, inp):
        state, axis, starts = inp
        levels = len(sc.feasible_set(state, axis).levels)
        return (
            sc.solve(state, axis, "strict"),
            sc.solve(state, axis, "reflective"),
            sc.brute_force_oracle(state, axis),
            sc.brute_force_oracle(state, axis, exclude=EXCLUDE),
            [sc.azimuth_descent(state, axis, lv, psi) for lv in range(levels) for psi in starts],
        )

    def work(self, inp, out) -> int:
        return 1

    def check(self, inp, out) -> list[str]:
        state, axis, _ = inp
        strict, refl, plain, excl, descents = out
        problems = check_solution(state, axis, strict, "strict")
        problems += check_solution(state, axis, refl, "reflective")
        problems += check_oracle(state, axis, plain, None, ORACLE_GRID, "oracle")
        problems += check_oracle(state, axis, excl, EXCLUDE, ORACLE_GRID, "excluded oracle")
        for psi, _ in descents:
            if min(abs(psi), abs(psi - math.pi), abs(psi - 2.0 * math.pi)) > 1e-6:
                problems.append(f"descent settled at psi = {psi!r}, not 0 or pi")
        return problems


class Cli:
    """Sequential `python -m spincollapse.cli` invocations of one fixed
    cycle on one seeded (state, axis): solve, simulate (1000 Born steps),
    landscape (200x400 CSV), excluded oracle.  Work unit: one invocation.
    The subprocesses inherit this process's PYTHONPATH, which puts ``src``
    on it.  With a tracer the commands run in-process through
    ``main(args, standalone_mode=False)`` instead, so spans can see inside.
    """

    name = "cli"
    ref_every, ref_units = 1, 20  # twenty after each invocation
    kinds = ("solve", "simulate", "landscape", "oracle")
    in_process = False

    def __init__(self, seed: int, sizes: Sizes, tracer=None) -> None:
        import spincollapse.cli

        self.seed, self.sizes, self.tracer = seed, sizes, tracer
        self.main = spincollapse.cli.main
        # one buffer for every in-process call: click caches a wrapper per
        # stream object and the cache keeps each one alive
        self.stdout = io.StringIO()

    def inputs(self) -> list:
        """One cycle of the four commands on one seeded (state, axis)."""
        rng = random.Random(self.seed)
        state, axis = make_pair(rng, generic_beta(rng))
        flags = [
            "--rho", repr(state.rho), "--tau", repr(state.tau),
            "--theta-i", repr(axis.theta), "--phi-i", repr(axis.phi),
        ]
        seed = rng.randrange(2**32)
        commands = (
            ["solve", *flags, "--mode", "reflective"],
            ["simulate", *flags, "--steps", str(self.sizes.cli_steps),
             "--mode", "reflective", "--outcome", "born", "--seed", str(seed)],
            ["landscape", *flags, "--grid", "{}x{}".format(*self.sizes.cli_grid)],
            ["oracle", *flags, "--mode", "reflective", "--exclude-trivial", repr(EXCLUDE)],
        )
        return [(kind, args, state, axis, seed) for kind, args in zip(self.kinds, commands)]

    def run(self, inp):
        args = inp[1]
        if self.tracer is None and not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "spincollapse.cli", *args],
                capture_output=True, timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr
        buf = self.stdout
        buf.seek(0)
        buf.truncate()
        with redirect_stdout(buf):
            if self.tracer is None:
                self.main.main(args, standalone_mode=False)
            else:
                self.tracer.span("cli.main", self.main.main, args, standalone_mode=False)
        out = buf.getvalue().encode()
        if self.tracer is not None and self.tracer.active:
            self.tracer.count("cli.bytes_out", len(out))
        return 0, out, b""

    def work(self, inp, out) -> int:
        return 1

    def check(self, inp, out) -> list[str]:
        kind, args, state, axis, seed = inp
        code, stdout, stderr = out
        if code != 0:
            return [f"{kind}: exit code {code}: {stderr.decode(errors='replace')[-300:]}"]
        try:
            problems = getattr(self, "_check_" + kind)(stdout, state, axis, seed)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"{kind}: malformed output ({exc!r})"]
        return problems

    def _check_solve(self, stdout, state, axis, seed):
        res = json.loads(stdout)["results"]
        if res != expected_solve_results(solve(state, axis, "reflective")):
            return ["solve: results differ from the in-process solve"]
        printed = SimpleNamespace(
            no_collapse=res["no_collapse"],
            minimizers=tuple(Axis(a["theta"], a["phi"]) for a in res["minimizers"]),
            objective=res["objective"],
        )
        return check_solution(state, axis, printed, "cli solve")

    def _check_simulate(self, stdout, state, axis, seed):
        doc = json.loads(stdout)["results"]
        config = SimConfig(self.sizes.cli_steps, "reflective", "born", seed)
        expected = [ts.to_dict() for ts in simulate(state, axis, config)]
        if doc["rng"] != "numpy.random.PCG64" or doc["trajectory"] != expected:
            return ["simulate: trajectory differs from the in-process simulate"]
        return []

    def _check_landscape(self, stdout, state, axis, seed):
        n_theta, n_phi = self.sizes.cli_grid
        lines = stdout.decode().split("\n")
        if lines[0] != "theta_f,phi_f,p_up,s_f,constraint_residual,s_up":
            return [f"landscape: bad header {lines[0]!r}"]
        if len(lines) != n_theta * n_phi + 2 or lines[-1] != "":
            return [f"landscape: {len(lines) - 2} rows, expected {n_theta * n_phi}"]
        rng = random.Random(seed)
        s_i = binary_entropy(born_up(state, axis))
        problems = []
        for _ in range(16):
            row = rng.randrange(n_theta * n_phi)
            i, j = divmod(row, n_phi)
            got = [float(x) for x in lines[row + 1].split(",")]
            a = Axis(got[0], got[1])
            p = born_up(state, a)
            want = [
                math.pi * i / (n_theta - 1), 2.0 * math.pi * j / n_phi,
                p, binary_entropy(p), binary_entropy(p) - s_i, s_up(axis, a),
            ]
            if len(got) != 6 or max(abs(g - w) for g, w in zip(got, want)) > TOL:
                problems.append(f"landscape: row {row} is {got}, recomputed {want}")
        return problems

    def _check_oracle(self, stdout, state, axis, seed):
        res = json.loads(stdout)["results"]
        sol = solve(state, axis, "reflective")
        if res["solver"] != expected_solve_results(sol):
            return ["oracle: solver block differs from the in-process solve"]
        found = (Axis(res["oracle"]["axis"]["theta"], res["oracle"]["axis"]["phi"]),
                 res["oracle"]["objective"])
        problems = check_oracle(state, axis, found, EXCLUDE, ORACLE_GRID, "cli oracle")
        if res["discrepancy"] != found[1] - sol.objective:
            problems.append("oracle: discrepancy is not oracle minus solver objective")
        return problems


class CliInProcess(Cli):
    """The `cli` cycle run in-process through ``main(args,
    standalone_mode=False)``, at sizes whose commands take milliseconds:
    simulate 100 steps, landscape 50x100 (the oracle keeps its default
    400x800 grid).  Interpreter start-up is left to `setup_s`, a fresh
    import of ``spincollapse.cli``.  Half-second subprocesses do not time
    steadily on a shared host; this variant still measures the CLI layer's
    parsing, grid table and JSON/CSV output."""

    name = "cli_inproc"
    ref_every, ref_units = 1, 1  # one after each command
    in_process = True

    def __init__(self, seed: int, sizes: Sizes, tracer=None) -> None:
        sizes = replace(sizes, cli_steps=min(sizes.cli_steps, 100),
                        cli_grid=min(sizes.cli_grid, (50, 100)))
        super().__init__(seed, sizes, tracer)


WORKLOADS = {w.name: w for w in (Trajectory, OracleSweep, Cli, CliInProcess)}
