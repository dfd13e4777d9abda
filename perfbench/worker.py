"""Run one workload in a fresh interpreter and print one JSON line.

    python perfbench/worker.py WORKLOAD SEED SECONDS MODE [--tiny] [--spans PATH]

MODE is `setup` (set up, report when ready, exit), `measure` (untraced
end-to-end run) or `trace` (an untraced phase, then a traced phase over the
same inputs, reporting per-layer metrics).  `src` must be on PYTHONPATH;
`run.py` arranges that and aggregates the output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import sys
import time
from array import array

WARM_UP_OPS = {"trajectory": 10, "oracle_sweep": 2, "cli": 0, "cli_inproc": 4}
SETUP_REF_UNITS = 10  # reference units timed right after set-up, to scale it


class Phase:
    """Timings of one measuring phase, in whole passes over the input pool.

    Every few operations the loop runs the reference computation
    (`reference.py`) and scales the time of those operations by
    ``NOMINAL_S / reference time per unit``; this takes out the host's
    changes of speed, since both ran at nearly the same moment.
    """

    def __init__(self) -> None:
        self.wall = 0.0  # summed time of every timed operation
        self.times: dict[int, array] = {}  # input -> time of each operation
        self.work = array("d")  # work completed in each pass
        self.raw = array("d")  # time of each pass, summed over its operations
        self.scaled = array("d")  # the same, scaled by the reference
        self.ref = array("d")  # every reference time per unit

    def rate(self, scaled: bool = True) -> float:
        """Median over passes of work per second."""
        times = self.scaled if scaled else self.raw
        return statistics.median(w / t for w, t in zip(self.work, times))


class Loop:
    """Closed loop over a fixed pool of seeded inputs, in whole passes until
    time is up.

    An input's first output is checked in full; every repeat must reproduce
    it exactly, and repeats of an output that failed its check fail too.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.pool = workload.inputs()
        self.first: list = [None] * len(self.pool)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # from the first few failed operations

    def measure(self, seconds: float, tracer=None) -> Phase:
        """Run passes until `seconds` of wall time have gone; the last pass
        is finished, so at least one pass runs."""
        import reference

        every, units = self.workload.ref_every, self.workload.ref_units
        phase = Phase()
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline:
            work, spent, scaled, chunk = 0, 0.0, 0.0, 0.0
            for i, inp in enumerate(self.pool):
                if tracer is not None:
                    tracer.run_id, tracer.active = self.attempted, True
                t0 = time.perf_counter()
                try:
                    out, error = self.workload.run(inp), None
                except Exception as exc:  # a raising operation counts as failed
                    out, error = None, exc
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                chunk += dt
                phase.times.setdefault(i, array("d")).append(dt)
                if error is not None:
                    problems = [f"op {self.attempted} raised {error!r}"]
                elif self.first[i] is None:
                    problems = self.workload.check(inp, out)
                    self.first[i] = (out, problems)
                elif out != self.first[i][0]:
                    problems = [f"input {i}: a repeat differs from the first output"]
                else:
                    problems = self.first[i][1]  # a repeat of a wrong output is wrong
                self.attempted += 1
                if problems:
                    self.failed += 1
                    if self.failed <= 5:
                        self.problems += problems[:3]
                else:
                    work += self.workload.work(inp, out)
                if (i + 1) % every == 0 or i + 1 == len(self.pool):
                    ref = reference.seconds(units)
                    phase.ref.append(ref)
                    spent += chunk
                    scaled += chunk * reference.NOMINAL_S / ref
                    chunk = 0.0
            phase.wall += spent
            phase.work.append(work)
            phase.raw.append(spent)
            phase.scaled.append(scaled)
        return phase


def _tail(values: list[float]):
    """Highest of p90, p95, p99, p99.9 with ten samples beyond it, or None."""
    best = None
    for q in (90.0, 95.0, 99.0, 99.9):
        if len(values) * (1.0 - q / 100.0) >= 10.0:
            best = (q, statistics.quantiles(values, n=1000)[int(q * 10) - 1])
    return best


def _latency(values: list[float]) -> dict:
    tail = _tail(values)
    return {
        "value": statistics.median(values) * 1e3,
        "unit": "ms",
        "n": len(values),
        "tail": None if tail is None else {"q": tail[0], "ms": tail[1] * 1e3},
    }


def summarize(workload, phase: Phase) -> tuple[dict, dict]:
    """ops_per_s, the median over passes of work per scaled second, and the
    detail the report prints: the same rate unscaled (steps_per_s or
    cases_per_s, or invocations_per_s for the CLI workloads), the
    reference's time per unit, and for the CLI workloads the median time
    of each command over every invocation."""
    raw = {"value": phase.rate(scaled=False), "unit": "1/s", "n": len(phase.raw)}
    ref = {"value": statistics.median(phase.ref) * 1e3, "unit": "ms", "n": len(phase.ref)}
    if hasattr(workload, "kinds"):  # the CLI workloads
        detail = {"invocations_per_s": raw}
        detail.update(
            (f"cli.{kind}_ms", _latency(list(phase.times.get(j, ()))))
            for j, kind in enumerate(workload.kinds)
        )
    else:
        detail = {"steps_per_s" if workload.name == "trajectory" else "cases_per_s": raw}
    detail["reference_unit_ms"] = ref
    return {"ops_per_s": phase.rate()}, detail


def _hooks(tracer):
    from spincollapse import solver

    grid_default = inspect.signature(solver.brute_force_oracle).parameters["grid"].default

    def step(tr, args, kwargs, ts):
        tr.count("steps")
        tr.count("collapses", not ts.no_collapse)

    def solve(tr, args, kwargs, sol):
        tr.count("solves")
        tr.count("no_collapse", sol.no_collapse)

    def oracle(tr, args, kwargs, result):
        grid = kwargs.get("grid", args[2] if len(args) > 2 else grid_default)
        tr.count("grid_points", int(grid[0]) * int(grid[1]))

    return {"simulate.step": step, "solver.solve": solve, "solver.brute_force_oracle": oracle}


def layer_metrics(tracer, traced: Phase, untraced: Phase, import_s: float) -> dict:
    """Per-layer self time and calls, per-function self time, work ratios."""
    from spans import LAYERS, public_functions

    wall = traced.wall
    ids = {name: i for i, name in enumerate(tracer.names)}
    out = {}
    for layer in LAYERS:
        mine = [i for name, i in ids.items() if name.startswith(layer + ".")]
        self_s = sum(tracer.self_s[i] for i in mine)
        out[f"{layer}.calls"] = sum(tracer.calls[i] for i in mine)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.self_frac"] = self_s / wall
    out["bench.self_s"] = wall - tracer.top_s
    out["bench.self_frac"] = out["bench.self_s"] / wall
    for name in public_functions():
        calls = tracer.calls[ids[name]]
        out[f"{name}.calls"] = calls
        out[f"{name}.self_us"] = tracer.self_s[ids[name]] / calls * 1e6 if calls else 0.0
    c = tracer.counters
    out["simulate.collapse_frac"] = c.get("collapses", 0) / c["steps"] if c.get("steps") else 0.0
    out["solver.no_collapse_frac"] = (
        c.get("no_collapse", 0) / c["solves"] if c.get("solves") else 0.0
    )
    out["solver.grid_points"] = c.get("grid_points", 0)
    out["cli.bytes_out"] = c.get("cli.bytes_out", 0)
    out["cli.import_s"] = import_s
    # both phases run whole passes over the same pool
    out["trace.overhead_frac"] = untraced.rate() / traced.rate() - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("seconds", type=float)
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--spans", help="write the traced spans to this CSV path")
    args = ap.parse_args(argv)

    import_s = 0.0
    if args.mode == "trace":
        t0 = time.perf_counter()
        import spincollapse.cli  # noqa: F401  (fresh import, timed)

        import_s = time.perf_counter() - t0
    import reference
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.mode == "trace" else None
    sizes = workloads.TINY if args.tiny else workloads.FULL
    wl = workloads.WORKLOADS[args.workload](args.seed, sizes, tracer)
    loop = Loop(wl)
    for inp in loop.pool[:WARM_UP_OPS[args.workload]]:
        wl.run(inp)
    t_ready = time.monotonic()
    reference.unit()  # warm, untimed
    result = {"t_ready": t_ready,
              "scale": reference.NOMINAL_S / reference.seconds(SETUP_REF_UNITS)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if args.mode == "measure":
        result["metrics"], result["detail"] = summarize(wl, loop.measure(args.seconds))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result["metrics"]["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    else:
        untraced = loop.measure(args.seconds / 3.0)
        tracer.install(_hooks(tracer))
        traced = loop.measure(2.0 * args.seconds / 3.0, tracer)
        tracer.uninstall()
        result["metrics"] = layer_metrics(tracer, traced, untraced, import_s)
        result["metrics"]["fail_frac"] = loop.failed / loop.attempted
        result["wall_s"] = traced.wall
        if args.spans:
            result["spans_written"] = tracer.write_spans(args.spans)
    result["attempted"] = loop.attempted
    result["failed"] = loop.failed
    result["failures"] = loop.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
