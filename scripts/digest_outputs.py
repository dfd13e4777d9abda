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
* ``simulate``: the step documents of `simulate` for every outcome rule;
* ``eigen_tol0``: near-eigenstates with ``eigen_tol=0``, where `n_i . m`
  can round to +-1: `solve`, `feasible_set`, the oracle and `simulate`.

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
import tempfile

from spincollapse import (
    Axis,
    PureState,
    SimConfig,
    brute_force_oracle,
    feasible_set,
    simulate,
    solve,
    state_from_bloch,
    state_from_eigenvector,
    unit_vector,
)
from spincollapse.cli import main as cli_main

SEED = 20261018
ORACLE_GRIDS = ((40, 80), (37, 91))
ORACLE_TOLS = (1e-9, 5e-3, 0.3)
OUTCOMES = ("risk:born-surprise", "risk:alignment", "risk:constant", "born")


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


def _landscape_stdout(state, axis, grid: str, *flags: str) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "landscape.csv")
        cli_main(
            ["landscape", "--rho", repr(state.rho), "--tau", repr(state.tau),
             "--theta-i", repr(axis.theta), "--phi-i", repr(axis.phi),
             "--grid", grid, "--out", out, *flags],
            standalone_mode=False,
        )
        with open(out, "rb") as fh:
            return fh.read()


def _families() -> dict[str, list]:
    groups = _pairs()
    pairs = [pair for name in ("generic", "poles", "half", "near") for pair in groups[name]]
    fam: dict[str, list] = {name: [] for name in (
        "solve", "feasible_set", "oracle.plain", "oracle.exclude", "oracle.base2",
        "oracle.infeasible", "oracle.tol", "landscape", "simulate", "eigen_tol0")}
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
    for k, (state, axis) in enumerate(pairs[::4]):
        flags = [("--format", "tsv"), ("--entropy-base", "2"), ()][k % 3]
        fam["landscape"].append(_landscape_stdout(state, axis, "9x14", *flags))
    fam["landscape"].append(_landscape_stdout(*groups["generic"][0], "50x100"))
    for state, axis in groups["near"]:
        fam["eigen_tol0"].extend(_solve_records(state, axis, eigen_tol=0.0))
        fam["eigen_tol0"].append(_feasible_record(state, axis, eigen_tol=0.0))
        fam["eigen_tol0"].append(
            _oracle_record(state, axis, grid=(40, 80), eigen_tol=0.0))
        fam["eigen_tol0"].extend(_simulate_records(state, axis, eigen_tol=0.0, steps=3))
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
