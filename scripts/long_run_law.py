#!/usr/bin/env python3
"""Compare one long reflective Born run with the tent map's long-run law.

In reflective mode the angle beta between the Bloch vector and the measured
axis, folded into [0, pi/2] through |cos beta| = |2 p_up - 1|, follows the
tent map x -> 1 - |1 - 2x| in x = beta / (pi/2), under every outcome rule.
The tent map's invariant law is uniform, so in the long run

* each octile of folded beta holds 1/8 of the steps, and
* the mean outcome entropy s_i is (2/pi) * integral_0^(pi/2) of
  H((1 + cos beta)/2) d beta = 2 ln 2 - 1 = 0.386294 nats.

The script runs one seeded reflective Born trajectory and prints the
predicted and the observed octile counts, their chi-square statistic, and
the predicted and the observed mean s_i.

Example:
    PYTHONPATH=src python3 scripts/long_run_law.py --steps 20000 --seed 20261018
"""

from __future__ import annotations

import argparse
import math

from spincollapse import Axis, PureState, SimConfig, simulate

OCTILES = 8


def folded_octile(p_up: float) -> int:
    """The octile of folded beta = arccos|2 p_up - 1| in [0, pi/2]."""
    x = math.acos(min(1.0, abs(2.0 * p_up - 1.0))) / (0.5 * math.pi)
    return min(int(OCTILES * x), OCTILES - 1)


def long_run(steps: int, seed: int) -> tuple[list[int], float]:
    """Octile counts of folded beta and the mean s_i of one reflective Born run."""
    config = SimConfig(steps=steps, mode="reflective", outcome="born", seed=seed)
    traj = simulate(PureState(0.3, 1.0), Axis(1.2, 0.4), config)
    counts = [0] * OCTILES
    for t in traj:
        counts[folded_octile(t.p_up)] += 1
    return counts, sum(t.s_i for t in traj) / steps


def chi_square(counts: list[int]) -> float:
    expected = sum(counts) / len(counts)
    return sum((c - expected) ** 2 for c in counts) / expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=20000, help="trajectory length (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=20261018, help="Born sampling seed (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be positive")

    counts, mean_s_i = long_run(args.steps, args.seed)
    print(f"octile counts: predicted {args.steps / OCTILES:g} each, observed {counts}")
    print(f"chi-square over the {OCTILES} octiles: {chi_square(counts):.3f}")
    print(f"mean s_i: predicted {2.0 * math.log(2.0) - 1.0:.6f}, observed {mean_s_i:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
