#!/usr/bin/env python3
"""Replay a reflective `simulate` document in exact arithmetic and print how
long its float run shadows the exact one.

A reflective collapse with outcome s_k takes c_k = cos(beta_k) = n_k . m_k to

    c_{k+1} = s_k (2 c_k^2 - 1)

(README, "The fixed plane").  The map stretches an error in c by 4 |c_k| a
step, so a float run leaves the exact orbit of its own start after a few
dozen steps, however it rounds.  The script reads a `simulate` document,
takes c_0 = n_0 . m_0 at 400 bits from the floats of its first record's
state and axis, and iterates the map with the document's own outcomes.
The float run's c_k is 2 p_up - 1 of record k.  The shadowing horizon is
the first step where the two differ by more than 1e-9; a run that absorbs
(no_collapse) is compared up to its first absorbed record.

In the angle delta_k from m_k to n_k within the fixed plane the map is

    delta_{k+1} = -2 delta_k + pi [s_k = -1]   (mod 2 pi),

which `delta_orbit` iterates on delta / pi as an exact `Fraction`: a dyadic
start j / 2^q (j odd) reaches an integer, an eigenstate, at step q, and
1/3 keeps |c| = 1/2 for ever.

Example:
    PYTHONPATH=src python3 -m spincollapse.cli simulate --rho 0.3 --tau 1 \\
        --theta-i 1.2 --phi-i 0.4 --mode reflective --steps 60 > run.json
    python3 scripts/exact_replay.py run.json
"""

from __future__ import annotations

import argparse
import json
import statistics
from fractions import Fraction

import mpmath

BITS = 400
TOL = 1e-9


def exact_c0(state: dict, axis: dict) -> mpmath.mpf:
    """n_0 . m_0 at the working precision, from the record's floats."""
    rho, tau = mpmath.mpf(state["rho"]), mpmath.mpf(state["tau"])
    theta, phi = mpmath.mpf(axis["theta"]), mpmath.mpf(axis["phi"])
    q = 2 * mpmath.sqrt(rho * (1 - rho))
    m = (q * mpmath.cos(tau), q * mpmath.sin(tau), 2 * rho - 1)
    n = (mpmath.sin(theta) * mpmath.cos(phi), mpmath.sin(theta) * mpmath.sin(phi),
         mpmath.cos(theta))
    return sum(a * b for a, b in zip(m, n))


def c_orbit(c0, outcomes) -> list:
    """c_0, c_1, ...: the map iterated with the given outcomes, one c per
    outcome and one more."""
    orbit = [c0]
    for s in outcomes:
        orbit.append(s * (2 * orbit[-1] ** 2 - 1))
    return orbit


def delta_orbit(delta0: Fraction, outcomes) -> list[Fraction]:
    """delta_k / pi in [0, 2) for delta_0 / pi = `delta0`: the angle map
    iterated exactly with the given outcomes."""
    orbit = [delta0 % 2]
    for s in outcomes:
        orbit.append((-2 * orbit[-1] + (s == -1)) % 2)
    return orbit


def horizon(doc: dict) -> tuple[int | None, int, float]:
    """(k, compared, worst): the first record k whose c leaves the exact orbit
    by more than `TOL` (None if none does), the number of records compared,
    and the largest departure seen up to and including k."""
    if doc.get("command") != "simulate" or doc.get("mode") != "reflective":
        raise ValueError("expected a reflective simulate document")
    records = doc["results"]["trajectory"]
    compared = next((k + 1 for k, t in enumerate(records) if t["no_collapse"]), len(records))
    records = records[:compared]
    with mpmath.workprec(BITS):
        first = records[0]
        exact = c_orbit(exact_c0(first["state_before"], first["axis_measured"]),
                        [t["s"] for t in records[:-1]])
        worst = 0.0
        for k, (t, c) in enumerate(zip(records, exact)):
            gap = float(abs(2 * mpmath.mpf(t["p_up"]) - 1 - c))
            worst = max(worst, gap)
            if gap > TOL:
                return k, compared, worst
    return None, compared, worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("documents", nargs="+", help="simulate documents (JSON files)")
    args = parser.parse_args(argv)

    horizons = []
    for path in args.documents:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        try:
            k, compared, worst = horizon(doc)
        except (ValueError, KeyError, IndexError) as exc:
            parser.error(f"{path}: {exc}")
        if k is None:
            horizons.append(compared)
            print(f"{path}: no departure past {TOL:g} in {compared} steps "
                  f"(largest {worst:.2e})")
        else:
            horizons.append(k)
            print(f"{path}: shadowing horizon step {k} of {compared} "
                  f"(departure {worst:.2e})")
    if len(horizons) > 1:
        print(f"horizon over {len(horizons)} runs: min {min(horizons)}, "
              f"median {statistics.median(horizons):g}, max {max(horizons)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
