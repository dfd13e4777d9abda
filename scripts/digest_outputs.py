#!/usr/bin/env python3
"""Print one sha256 per output family over a fixed seeded set of inputs.

Run it on two versions of the package and diff the two outputs: a family
whose digest moved emits different bytes somewhere.  The input pairs are
fixed (a `random.Random` seed): generic pairs, axes and states at the poles,
pairs at p = 1/2 (the merged great circle) and near-eigenstates.  The
families are

* ``solve``: `repr` of `solve` in both modes and entropy bases;
* ``feasible_set``: the float bytes of `feasible_set`;
* ``oracle.plain``, ``oracle.exclude``, ``oracle.base2``,
  ``oracle.infeasible``: the `brute_force_oracle` result, or its error;
* ``oracle.tol``: the oracle on its default 400x800 grid at tolerances from
  1e-9 to 0.3 (where the two entropy levels merge into one band), with and
  without exclusion, over every fourth pair;
* ``landscape``: the stdout bytes of ``spincollapse landscape``;
* ``landscape.shapes``: the same over every fourth pair on grids 2x2, 3x4,
  10x20, 11x20 and 10x21: odd and even row and column counts, where rows
  pair off with their antipodal rows or one stands in the middle;
* ``cli.json``: the exit code and ``--out`` bytes of the JSON documents over
  every fourth pair: ``solve`` in both modes, with ``--entropy-base 2`` and
  with ``--degrees``; ``oracle`` on a 40x80 grid, plain, with
  ``--exclude-trivial`` and on the infeasible 8x8 band (exit code 3);
  ``simulate`` under every outcome rule in both modes, and with ``--tol 0``;
* ``cli.simulate_long``: the ``--out`` bytes of ``simulate --steps 1000``
  under every outcome rule in both modes, over every eighth pair: documents
  of the size the subprocess ``cli`` benchmark workload writes, with
  hundreds of collapsing reflective records and long absorbed strict tails;
* ``cli.pinned.<name>``: one line per hand-picked CLI command in `PINNED`
  (whose comments say what each one covers), so a moved line names the
  command: its exit code and stdout bytes;
* ``simulate``: the step documents of `simulate` for every outcome rule;
* ``simulate.long``: 60-step `simulate` documents over every fourth pair,
  with ``eigen_tol`` 1e-12 and 0: long absorbed tails in strict mode, and
  reflective runs past the ~46 steps after which a last-ulp change in one
  step has grown to O(1);
* ``simulate.born_long``: Born runs of 773 steps over every eighth pair, in
  both modes and entropy bases: hundreds of collapsing reflective steps,
  each reading its own draw of the run's uniform array, and strict runs
  that absorb after their first draw;
* ``eigen_tol0``: near-eigenstates with ``eigen_tol=0``, where `n_i . m`
  can round to +-1: `solve`, `feasible_set`, the oracle and `simulate`;
* ``kernels``: the scalar kernels of one step over every pair plus edge
  pairs (``rho`` 0 and 1, poles, axes along and against the Bloch vector,
  p = 1/2, ``tau`` just under 2*pi): the `float.hex` of `born_up`, the
  collapse frame at ``eigen_tol`` 0, 1e-12 and 0.3 or its error, and the
  outcome and risk value `select_outcome` picks under each builtin rule;
* ``amplitudes``: the `float.hex` of the (rho, tau) of
  `state_from_amplitudes` over seeded pairs at unit scale, at 1e300 and
  1e-300, with every part subnormal (the largest one too), and with one
  amplitude zero;
* ``vectors``: the `float.hex` of `axis_from_vector` and of
  `state_from_bloch` over seeded 3-vectors at unit scale, at 1e300 and
  1e-300, with subnormal parts beside a normal one, with signed zeros,
  along the negative x axis (phi = pi), just below the positive x axis
  (phi rounds to 2*pi and reads 0), and at and near the poles.  Every
  vector's largest part lies in [2**-1022, 2**1022): the readers rescale
  vectors outside that range, on purpose, and none is recorded here.

Each line reads ``family  records  sha256``.  The script takes no options.

Example:
    PYTHONPATH=src python3 scripts/digest_outputs.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
import sys
import tempfile
from pathlib import Path

from spincollapse import (
    Axis,
    PureState,
    RiskContext,
    SimConfig,
    antipode,
    axis_from_vector,
    born_up,
    brute_force_oracle,
    builtin_risks,
    feasible_set,
    select_outcome,
    simulate,
    solve,
    state_from_amplitudes,
    state_from_bloch,
    state_from_eigenvector,
    unit_vector,
)
from spincollapse.solver import _collapse_frame
from spincollapse.spin import _unit_xyz

# the suite's in-process CLI runner, so these lines hash what the tests see
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from helpers import run_cli  # noqa: E402

SEED = 20261018
ORACLE_GRIDS = ((40, 80), (37, 91))
ORACLE_TOLS = (1e-9, 5e-3, 0.3)
OUTCOMES = ("risk:born-surprise", "risk:alignment", "risk:constant", "born")
BORN_LONG_STEPS = 3 * 256 + 5
CLI_LONG_STEPS = 1000
FRAME_TOLS = (0.0, 1e-12, 0.3)
LANDSCAPE_FLAGS = (("--format", "tsv"), ("--entropy-base", "2"), ())
LANDSCAPE_SHAPES = ("2x2", "3x4", "10x20", "11x20", "10x21")
AMPLITUDE_SCALES = (1.0, 1e300, 1e-300, 2.0**-1060)
VECTOR_SCALES = (1.0, 1e300, 1e-300)

# The commands of the ``cli.pinned.<name>`` lines: (name, argv, exit code).  The
# first ones cover solve in both modes and bases, the oracle plain, excluded,
# on an eigenstate and infeasible (exit 3), simulate under each outcome rule,
# and landscape csv and tsv; the reordered argv lists pin the input echo to
# the declared flag order.
_STATE = "--rho 0.7 --tau 0.4 --theta-i 0.9 --phi-i 1.1"
_ORACLE = f"oracle {_STATE} --mode reflective --grid 64x128"
_SIMULATE = f"simulate {_STATE} --steps 6 --mode reflective --outcome"
PINNED = [
    ("solve-strict-e", f"solve {_STATE}", 0),
    ("solve-strict-2", f"solve {_STATE} --entropy-base 2", 0),
    ("solve-reflective-e", f"solve {_STATE} --mode reflective", 0),
    ("solve-reflective-2", f"solve {_STATE} --mode reflective --entropy-base 2", 0),
    ("oracle", _ORACLE, 0),
    ("oracle-exclude", f"{_ORACLE} --exclude-trivial 0.25", 0),
    ("oracle-eigenstate", "oracle --rho 1 --theta-i 0", 0),
    ("oracle-infeasible", "oracle --rho 0.9 --tau 0.3 --theta-i 1.0 --phi-i 0.5 "
     "--grid 8x8 --constraint-tol 1e-9", 3),
    ("simulate-born", f"{_SIMULATE} born --seed 11", 0),
    ("simulate-born-surprise", f"{_SIMULATE} risk:born-surprise", 0),
    ("simulate-alignment", f"{_SIMULATE} risk:alignment", 0),
    ("simulate-constant", f"{_SIMULATE} risk:constant", 0),
    ("simulate-flags-reordered", "simulate --outcome risk:constant --steps 6 "
     "--mode reflective --phi-i 1.1 --theta-i 0.9 --tau 0.4 --rho 0.7", 0),
    ("oracle-exclude-flags-reordered", "oracle --exclude-trivial 0.25 --grid 64x128 "
     "--mode reflective --phi-i 1.1 --theta-i 0.9 --tau 0.4 --rho 0.7", 0),
    ("landscape-csv", f"landscape {_STATE} --grid 20x40", 0),
    ("landscape-tsv", f"landscape {_STATE} --grid 20x40 --format tsv", 0),
    ("solve-degrees",
     "solve --rho 0.7 --tau 30 --theta-i 60 --phi-i 45 --degrees --mode reflective", 0),
    ("solve-degrees-flags-reordered",
     "solve --mode reflective --degrees --phi-i 45 --theta-i 60 --tau 30 --rho 0.7", 0),
    ("solve-amplitudes", "solve --amp-up 0.6+0.2j --amp-down 0.5 --theta-i 0.9 "
     "--phi-i 1.1 --mode reflective", 0),
    # small and odd grids, base 2, degrees, amplitudes and the merged circle
    ("landscape-2x3-base2-degrees",
     f"landscape {_STATE} --grid 2x3 --entropy-base 2 --degrees", 0),
    ("landscape-tsv-amplitudes", "landscape --amp-up 0.6+0.2j --amp-down 0.5 "
     "--theta-i 0.9 --phi-i 1.1 --grid 7x5 --format tsv", 0),
    ("oracle-odd-grid-base2-exclude", f"oracle {_STATE} --mode reflective --grid 37x91 "
     "--entropy-base 2 --exclude-trivial 0.1", 0),
    ("oracle-merged-circle", "oracle --rho 0.5 --theta-i 0 --mode reflective --grid 64x128",
     0),
    # a strict run that absorbs (records with "no_collapse": true, an echo
    # with "seed": null) and a base-2 Born run at --tol 0
    ("simulate-strict-absorbs", f"simulate {_STATE} --steps 4", 0),
    ("simulate-born-tol0-base2",
     f"simulate {_STATE} --steps 6 --outcome born --seed 0 --tol 0 --entropy-base 2", 0),
    # the landscape's antipodal row pairing: a middle row left unpaired, a
    # pole axis, an eigenstate, an odd column count (no antipodal column),
    # and the default 200x400 grid
    ("landscape-odd-rows", f"landscape {_STATE} --grid 11x16", 0),
    ("landscape-pole-axis", "landscape --rho 0.7 --tau 0.4 --theta-i 0 --grid 12x24", 0),
    ("landscape-eigenstate", "landscape --rho 1 --theta-i 0 --grid 8x8", 0),
    ("landscape-odd-columns", f"landscape {_STATE} --grid 10x15", 0),
    ("landscape-default-grid", f"landscape {_STATE}", 0),
    # cells that orjson spells unlike `repr`: 8 in [1e-5, 1e-4), 12 below
    ("landscape-respelled-cells", "landscape --rho 0.999999999 --tau 0.4 --theta-i 0.9 "
     "--phi-i 1.1 --grid 400x4 --format tsv", 0),
    # records with cells orjson spells unlike `repr`, in [1e-5, 1e-4) and below
    ("simulate-near-pole", "simulate --rho 0.9999999 --tau 0.3 --theta-i 2e-6 "
     "--phi-i 0.5 --steps 6 --mode reflective --outcome risk:alignment", 0),
    # values no JSON document can hold are usage errors: an infinite oracle
    # flag, and a seed beyond 64 bits (the largest 64-bit seed runs); and
    # non-ASCII echoes, escaped as json.dumps escapes them
    ("oracle-constraint-tol-inf", f"oracle {_STATE} --grid 16x32 --constraint-tol inf", 2),
    ("oracle-exclude-trivial-inf", f"oracle {_STATE} --grid 16x32 --exclude-trivial inf", 2),
    ("simulate-seed-beyond-64-bits",
     f"simulate {_STATE} --steps 3 --mode reflective --outcome born "
     "--seed 1180591620717411303424", 2),
    ("simulate-seed-64-bit-max",
     f"simulate {_STATE} --steps 3 --mode reflective --outcome born "
     "--seed 18446744073709551615", 0),
    ("solve-fullwidth-amplitude", "solve --amp-up \uff10.6 --amp-down 0.8 --theta-i 0.9", 0),
    ("solve-astral-amplitude", "solve --amp-up \U0001d7ce.6 --amp-down 0.8 --theta-i 0.9", 0),
    # the argv parser's edges: a value that reads like an option (a negative
    # literal after a space), --flag=value, a repeated option (the last
    # wins), and the usage errors that print nothing to stdout: an unknown
    # option, a value given to a switch, a value option ending the argv, no
    # arguments at all and an unknown command
    ("solve-negative-amplitude", "solve --amp-up -0.6+0.2j --amp-down 0.5 --theta-i 0.9 "
     "--phi-i 1.1", 0),
    ("simulate-equals-values", "simulate --rho=0.7 --tau=0.4 --theta-i=0.9 --phi-i 1.1 "
     "--steps=4 --outcome=born --seed=5", 0),
    ("solve-repeated-mode", f"solve {_STATE} --mode reflective --mode strict", 0),
    ("solve-unknown-option", f"solve {_STATE} --bogus 1", 2),
    ("solve-degrees-with-value", f"solve {_STATE} --degrees=1", 2),
    ("simulate-missing-value", f"simulate {_STATE} --steps", 2),
    ("no-arguments", "", 2),
    ("unknown-command", f"measure {_STATE}", 2),
]


def _random_axis(rng: random.Random) -> Axis:
    return Axis(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _random_state(rng: random.Random) -> PureState:
    return PureState(rng.random(), rng.uniform(0.0, 2.0 * math.pi))


def _pairs() -> dict[str, list[tuple[PureState, Axis]]]:
    rng = random.Random(SEED)
    generic = [(_random_state(rng), _random_axis(rng)) for _ in range(24)]
    poles = [(_random_state(rng), Axis(0.0, 0.0)) for _ in range(3)]
    poles += [(_random_state(rng), Axis(math.pi, 0.0)) for _ in range(3)]
    poles += [(PureState(rho, 0.0), _random_axis(rng)) for rho in (0.0, 1.0, 0.0, 1.0)]
    half = [(PureState(0.5, rng.uniform(0.0, 2.0 * math.pi)), Axis(0.0, 0.0))
            for _ in range(3)]
    for _ in range(5):  # a Bloch vector perpendicular to a random axis
        axis = _random_axis(rng)
        n = unit_vector(axis).tolist()
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        d = sum(a * b for a, b in zip(n, v))
        half.append((state_from_bloch([a - d * b for a, b in zip(v, n)]), axis))
    near = [(PureState(rho, 0.3), Axis(0.0, 0.0)) for rho in (1e-20, 1e-17, 1e-13, 1e-11)]
    near += [(PureState(1.0 - eps, 1.1), Axis(0.0, 0.0)) for eps in (1e-16, 1e-13)]
    for s in (1, -1):  # eigenstates of random axes, p a few ulps from 0 or 1
        axis = _random_axis(rng)
        near.append((state_from_eigenvector(axis, s), axis))
    return {"generic": generic, "poles": poles, "half": half, "near": near}


def _edge_pairs(rng: random.Random) -> list[tuple[PureState, Axis]]:
    """Pairs at the edges of the kernels: certain, antipodal and even odds."""
    below_two_pi = math.nextafter(2.0 * math.pi, 0.0)
    edges = [(PureState(rho, 0.0), Axis(theta, 0.0))
             for rho in (0.0, 1.0) for theta in (0.0, math.pi, 1.0)]
    for _ in range(12):
        axis = _random_axis(rng)
        for s in (1, -1):  # along and against the axis, read on it and its antipode
            state = state_from_eigenvector(axis, s)
            edges += [(state, axis), (state, antipode(axis))]
        tau = rng.uniform(0.0, 2.0 * math.pi)  # p = (1 + cos(phi - tau))/2 at the equator
        edges += [(PureState(0.5, tau), Axis(0.5 * math.pi, tau)),
                  (PureState(0.5, tau), Axis(0.5 * math.pi, tau + math.pi))]
    edges += [(PureState(0.3, below_two_pi), Axis(1.0, below_two_pi)),
              (PureState(0.5, below_two_pi), Axis(0.5 * math.pi, 0.0))]
    return edges


def _amplitude_pairs(rng: random.Random) -> list[tuple[complex, complex]]:
    """Amplitude pairs whose parts share one scale, and pairs with one
    amplitude zero.  No pair has a subnormal |down| beside a normal |up|."""
    pairs = []
    for scale in AMPLITUDE_SCALES:
        for _ in range(12):
            up, down = (complex(rng.uniform(-1.0, 1.0) * scale, rng.uniform(-1.0, 1.0) * scale)
                        for _ in range(2))
            pairs.append((up, down))
        pairs += [(up, 0j), (0j, down), (complex(up.real, 0.0), complex(0.0, down.imag))]
    return pairs


def _vectors(rng: random.Random) -> list[tuple[float, float, float]]:
    """3-vectors whose largest part lies in [2**-1022, 2**1022)."""
    vectors = [tuple(rng.uniform(-1.0, 1.0) * scale for _ in range(3))
               for scale in VECTOR_SCALES for _ in range(12)]
    vectors += [(1e-300, 5e-324, -3e-320), (-3e-308, 1e-310, 4e-312)]  # subnormal parts
    for a in (0.0, -0.0):
        for b in (0.0, -0.0):
            vectors += [(a, b, 2.0), (a, b, -2.0), (-1.0, a, b), (a, 3.0, b)]
    vectors += [(1.0, -1e-300, 0.5), (1.0, -5e-324, -0.5), (-1.0, 1e-300, 0.0),
                (1e-20, 0.0, 1.0), (0.0, -1e-14, -3.0), (1e-13, 1e-13, 1.0)]
    return vectors


def _kernel_records(state, axis, axis_f):
    yield born_up(state, axis).hex()
    n_i = _unit_xyz(axis)
    for eigen_tol in FRAME_TOLS:
        try:
            p, m, cosb, _c2, _s2 = _collapse_frame(state, axis, n_i, eigen_tol)
        except Exception as exc:
            yield _error(exc)
        else:
            yield " ".join(x.hex() for x in (p, *m, cosb))
    context = RiskContext(state, axis)
    for risk in builtin_risks():
        try:
            s, value = select_outcome(risk, axis_f, context)
        except Exception as exc:
            yield _error(exc)
        else:
            yield f"{s} {value.hex()}"


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _floats(*arrays) -> bytes:
    return b"".join(struct.pack(f"<{len(a)}d", *a) for a in arrays)


def _solve_records(state, axis, eigen_tol=1e-12):
    for mode in ("strict", "reflective"):
        for base in (math.e, 2.0):
            yield repr(solve(state, axis, mode, base=base, eigen_tol=eigen_tol))


def _feasible_record(state, axis, eigen_tol=1e-12):
    try:
        fs = feasible_set(state, axis, eigen_tol=eigen_tol)
    except Exception as exc:
        return _error(exc)
    return _floats(fs.levels, fs.colatitudes, fs.center.tolist(),
                   fs.in_plane.tolist(), fs.out_of_plane.tolist())


def _oracle_record(state, axis, **kwargs):
    try:
        return repr(brute_force_oracle(state, axis, **kwargs))
    except Exception as exc:
        return _error(exc)


def _simulate_records(state, axis, eigen_tol=1e-12, steps=6):
    for mode in ("strict", "reflective"):
        for outcome in OUTCOMES:
            config = SimConfig(steps=steps, mode=mode, outcome=outcome, seed=5,
                               eigen_tol=eigen_tol)
            try:
                doc = [ts.to_dict() for ts in simulate(state, axis, config)]
            except Exception as exc:
                yield _error(exc)
            else:
                yield json.dumps(doc)


def _born_records(state, axis, seed, steps=BORN_LONG_STEPS):
    for mode in ("strict", "reflective"):
        for base in (math.e, 2.0):
            config = SimConfig(steps=steps, mode=mode, outcome="born", seed=seed,
                               entropy_base=base)
            yield json.dumps([ts.to_dict() for ts in simulate(state, axis, config)])


def _cli_flags(state, axis, angle=float) -> list[str]:
    """The state and axis flags of a CLI call, with the angles through `angle`."""
    return ["--rho", repr(state.rho), "--tau", repr(angle(state.tau)),
            "--theta-i", repr(angle(axis.theta)), "--phi-i", repr(angle(axis.phi))]


def _cli_out(*argv: str) -> tuple[int, bytes]:
    """The exit code and the ``--out`` bytes of one in-process CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        code = run_cli([*argv, "--out", out]).exit_code
        with open(out, "rb") as fh:
            return code, fh.read()


def _landscape_stdout(state, axis, grid: str, *flags: str) -> bytes:
    return _cli_out("landscape", *_cli_flags(state, axis), "--grid", grid, *flags)[1]


def _cli_json_records(state, axis):
    flags = _cli_flags(state, axis)
    calls = [("solve", *flags, "--mode", mode) for mode in ("strict", "reflective")]
    calls += [("solve", *flags, "--mode", "reflective", "--entropy-base", "2"),
              ("solve", *_cli_flags(state, axis, math.degrees), "--degrees")]
    calls += [("oracle", *flags, "--mode", "reflective", *extra) for extra in (
        ("--grid", "40x80"),
        ("--grid", "40x80", "--exclude-trivial", "0.2"),
        ("--grid", "8x8", "--constraint-tol", "1e-9"))]
    for mode in ("strict", "reflective"):
        calls += [("simulate", *flags, "--steps", "6", "--mode", mode, "--outcome", outcome,
                   *(("--seed", "5") if outcome == "born" else ())) for outcome in OUTCOMES]
        calls.append(("simulate", *flags, "--steps", "6", "--mode", mode, "--tol", "0"))
    for argv in calls:
        code, data = _cli_out(*argv)
        yield b"%d\n" % code + data


def _cli_simulate_long_records(state, axis, seed):
    flags = _cli_flags(state, axis)
    for mode in ("strict", "reflective"):
        for outcome in OUTCOMES:
            yield _cli_out("simulate", *flags, "--steps", str(CLI_LONG_STEPS), "--mode", mode,
                           "--outcome", outcome, "--seed", str(seed))[1]


def _cli_pinned_records():
    for name, command, _exit_code in PINNED:
        run = run_cli(command.split())
        yield f"cli.pinned.{name}", b"%d\n" % run.exit_code + run.stdout


def _families() -> dict[str, list]:
    groups = _pairs()
    pairs = [pair for name in ("generic", "poles", "half", "near") for pair in groups[name]]
    fam: dict[str, list] = {name: [] for name in (
        "solve", "feasible_set", "oracle.plain", "oracle.exclude", "oracle.base2",
        "oracle.infeasible", "oracle.tol", "landscape", "landscape.shapes", "cli.json",
        "cli.simulate_long", *(f"cli.pinned.{name}" for name, _, _ in PINNED), "simulate",
        "simulate.long", "simulate.born_long", "eigen_tol0", "kernels", "amplitudes",
        "vectors")}
    for k, (state, axis) in enumerate(pairs):
        grid = ORACLE_GRIDS[k % len(ORACLE_GRIDS)]
        fam["solve"].extend(_solve_records(state, axis))
        fam["feasible_set"].append(_feasible_record(state, axis))
        fam["oracle.plain"].append(_oracle_record(state, axis, grid=grid))
        for exclude in (0.05, 0.2):
            fam["oracle.exclude"].append(
                _oracle_record(state, axis, grid=grid, exclude=exclude))
        fam["oracle.base2"].append(_oracle_record(state, axis, grid=grid, base=2.0))
        fam["oracle.infeasible"].append(
            _oracle_record(state, axis, grid=(8, 8), constraint_tol=1e-9))
        fam["simulate"].extend(_simulate_records(state, axis))
    for state, axis in pairs[::4]:
        for constraint_tol in ORACLE_TOLS:
            for exclude in (None, 0.2):
                fam["oracle.tol"].append(_oracle_record(
                    state, axis, constraint_tol=constraint_tol, exclude=exclude))
        for eigen_tol in (1e-12, 0.0):
            fam["simulate.long"].extend(
                _simulate_records(state, axis, eigen_tol=eigen_tol, steps=60))
    for k, (state, axis) in enumerate(pairs[::8]):
        fam["simulate.born_long"].extend(_born_records(state, axis, seed=k))
    for k, (state, axis) in enumerate(pairs[::4]):
        flags = LANDSCAPE_FLAGS[k % 3]
        fam["landscape"].append(_landscape_stdout(state, axis, "9x14", *flags))
        for g, grid in enumerate(LANDSCAPE_SHAPES):
            fam["landscape.shapes"].append(
                _landscape_stdout(state, axis, grid, *LANDSCAPE_FLAGS[(k + g) % 3]))
    fam["landscape"].append(_landscape_stdout(*groups["generic"][0], "50x100"))
    for state, axis in pairs[::4]:
        fam["cli.json"].extend(_cli_json_records(state, axis))
    for k, (state, axis) in enumerate(pairs[::8]):
        fam["cli.simulate_long"].extend(_cli_simulate_long_records(state, axis, seed=k))
    for name, record in _cli_pinned_records():
        fam[name].append(record)
    for state, axis in groups["near"]:
        fam["eigen_tol0"].extend(_solve_records(state, axis, eigen_tol=0.0))
        fam["eigen_tol0"].append(_feasible_record(state, axis, eigen_tol=0.0))
        fam["eigen_tol0"].append(
            _oracle_record(state, axis, grid=(40, 80), eigen_tol=0.0))
        fam["eigen_tol0"].extend(_simulate_records(state, axis, eigen_tol=0.0, steps=3))
    kernel_pairs = pairs + _edge_pairs(random.Random(SEED + 1))
    for k, (state, axis) in enumerate(kernel_pairs):
        axis_f = kernel_pairs[(k + 1) % len(kernel_pairs)][1]  # the next pair's axis
        fam["kernels"].extend(_kernel_records(state, axis, axis_f))
    for up, down in _amplitude_pairs(random.Random(SEED + 2)):
        state = state_from_amplitudes(up, down)
        fam["amplitudes"].append(f"{state.rho.hex()} {state.tau.hex()}")
    for vec in _vectors(random.Random(SEED + 3)):
        axis, state = axis_from_vector(vec), state_from_bloch(vec)
        fam["vectors"].append(" ".join(
            x.hex() for x in (axis.theta, axis.phi, state.rho, state.tau)))
    return fam


def main() -> int:
    for name, records in _families().items():
        h = hashlib.sha256()
        for record in records:
            data = record if isinstance(record, bytes) else record.encode()
            h.update(struct.pack("<Q", len(data)) + data)
        print(f"{name:<18} {len(records):>5}  {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
