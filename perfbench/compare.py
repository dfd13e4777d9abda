"""Summarize one set of benchmark results, or compare two.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py BASE_DIR NEW_DIR

A results directory holds the records `run.py` writes (by default to
``.perfbench/results``); copy it aside between the two sides.  For every
workload and metric the report gives each side's median and quartiles and
the metric's bound from BENCHMARK.json.  Comparing prints one verdict:

* better      -- the new side wins at least 9 in 10 seed-matched pairs (ties
  count for neither) and the medians differ by more than the base side's
  quartile spread;
* worse       -- the new median is worse than the base's by more than the
  bound (for per-layer metrics, which have none: loses 9 in 10 pairs by more
  than the base spread);
* unresolved  -- the spread of either side is wider than the bound and
  neither every new run beats every base run nor the reverse;
* unchanged   -- otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "BENCHMARK.json")


def load(directory: str) -> dict:
    """(workload, trace) -> metric -> {seed: value}."""
    table: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        st = rec["stamp"]
        for name, m in rec["result"]["metrics"].items():
            table.setdefault((st["workload"], st["trace"]), {}).setdefault(name, {})[
                st["seed"]] = m["value"]
    return table


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: dict, new: dict, better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b, n = list(base.values()), list(new.values())
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    gain = sign * (nmed - bmed)  # positive: the new side is better
    spread = bq3 - bq1
    seeds = sorted(set(base) & set(new))
    wins = sum(sign * (new[s] - base[s]) > 0 for s in seeds)
    losses = sum(sign * (new[s] - base[s]) < 0 for s in seeds)
    all_better = min(sign * x for x in n) > max(sign * x for x in b)
    all_worse = max(sign * x for x in n) < min(sign * x for x in b)
    if seeds and wins >= 0.9 * len(seeds) and gain > spread:
        return "better"
    if bound is None:
        return "worse" if seeds and losses >= 0.9 * len(seeds) and -gain > spread else "unchanged"
    scale = abs(bmed) or 1.0
    wide = max(spread / scale, (nq3 - nq1) / (abs(nmed) or 1.0)) > bound
    if -gain > bound * scale:
        return "worse" if not wide or all_worse else "unresolved"
    if wide and not all_better:
        return "unresolved"
    return "unchanged"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load(d) for d in argv]
    for key in sorted(set().union(*sides)):
        workload, trace = key
        print(f"== {workload} (trace={trace})")
        for name, m in metrics.items():
            if name not in sides[0].get(key, {}):
                continue
            bound = m.get("bound")
            base = sides[0][key][name]
            line = f"{name:<34} {_fmt(list(base.values()))}"
            if len(sides) == 1:
                q1, med, q3 = quartiles(list(base.values()))
                line += f"  spread {(q3 - q1) / (abs(med) or 1.0):.4f}"
            else:
                new = sides[1].get(key, {}).get(name)
                if not new:
                    continue
                line += f"  -> {_fmt(list(new.values()))}"
                line += f"  {verdict(base, new, m['better'], bound)}"
            print(line + (f"  bound {bound}" if bound is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
