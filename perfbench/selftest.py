"""Self-test of the benchmark on tiny sizes (about a minute).

    python3 perfbench/selftest.py

Run from the repository root.  It checks that:

1. every workload, untraced and traced, prints every metric BENCHMARK.json
   names, with its unit, and no operation fails on the package as it is;
2. in the traced run the layers' self times plus the benchmark's own
   uncovered time add up to the traced wall time;
3. a planted wrong answer -- `solve` returning a first minimizer tilted by
   1e-3 rad -- makes operations fail on every workload, so the output checks
   can see a wrong program.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))
os.environ["PYTHONPATH"] = os.path.abspath("src")

import run  # noqa: E402  (perfbench/ is this script's directory)

SECONDS = 2
OUT = os.path.join(".perfbench", "selftest")


def check_metrics() -> None:
    with open(run.BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            line, _ = run.run_workload(workload, 1, SECONDS, trace, tiny=True, out_dir=OUT)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
            assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{line['attempted']} operations, none failed")


def check_planted_fault() -> None:
    import spincollapse
    import worker
    import workloads

    original = spincollapse.solve

    def tilted_solve(*args, **kwargs):
        sol = original(*args, **kwargs)
        first, *rest = sol.minimizers
        tilted = spincollapse.Axis(first.theta + 1e-3, first.phi)
        return dataclasses.replace(sol, minimizers=(tilted, *rest))

    bound = [(m, a) for m in list(sys.modules.values())
             if getattr(m, "__name__", "").startswith(("spincollapse", "workloads"))
             for a, v in vars(m).items() if v is original]
    for mod, attr in bound:
        setattr(mod, attr, tilted_solve)
    try:
        for name, cls in workloads.WORKLOADS.items():
            loop = worker.Loop(cls(1, workloads.TINY))
            loop.measure(SECONDS)
            fail_frac = loop.failed / loop.attempted
            assert fail_frac > 0, f"{name}: the planted wrong answer went unnoticed"
            print(f"ok  {name}: planted wrong answer gives fail_frac {fail_frac:.3g}")
    finally:
        for mod, attr in bound:
            setattr(mod, attr, original)


if __name__ == "__main__":
    run._prepare()
    check_metrics()
    check_planted_fault()
    print("selftest passed")
