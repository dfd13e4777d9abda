"""spincollapse benchmark: one workload per fresh interpreter, checked outputs.

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` the run prints every end-to-end metric of BENCHMARK.json; with
``--trace 1`` a separate traced run prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  Each run also writes a stamped record (versions, CPU, commit,
seed, detail) to ``.perfbench/results/`` for ``compare.py``.

This process only orchestrates, with the standard library: it runs the
set-up several times in separate interpreters around one measuring
interpreter (``worker.py``), one after another; ``setup_s`` is the median
of all the set-ups, the measuring interpreter's included.  ``setup_s`` and
``ops_per_s`` are scaled by a reference computation timed next to the work
(``reference.py``), which takes out the shared host's changes of speed;
the per-layer times are not scaled.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, os.pardir, "BENCHMARK.json")
WORKLOADS = ("trajectory", "oracle_sweep", "cli", "cli_inproc")
SETUP_RUNS = 7  # set-ups per run, including the measuring interpreter's own
# per-function metrics of a function the package no longer defines read 0
_FUNCTION_METRIC = re.compile(r"^(spin|entropy|solver|risk|simulate)\.\w+\.(calls|self_us)$")


class BenchError(Exception):
    pass


def _env() -> dict:
    """Child environment: the package from ``src``, and numpy's BLAS held to
    one thread so that every process of a run has a single thread."""
    src = os.path.abspath("src")
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )


def _child(args: list[str], timeout: float) -> dict:
    """Run the worker with `args`; returns its JSON line, plus `setup_raw_s`
    from spawn to ready (CLOCK_MONOTONIC is shared between processes on
    Linux) and `setup_s`, that time scaled by the reference computation the
    worker timed right after it was ready."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        capture_output=True, text=True, env=_env(), timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_raw_s"] = out["t_ready"] - start
    out["setup_s"] = out["setup_raw_s"] * out["scale"]
    return out


def _prepare() -> None:
    """Check the checkout and compile the package's bytecode once, untimed."""
    if not os.path.isfile(os.path.join("src", "spincollapse", "__init__.py")):
        raise BenchError("no src/spincollapse here: run from the repository root")
    proc = subprocess.run(
        [sys.executable, "-c", "import spincollapse.cli"],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import spincollapse.cli:\n{proc.stderr[-2000:]}")


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Where and on what a result was measured."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(root, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": _version("numpy"),
        "click": _version("click"), "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu, "commit": commit, "src_sha256": digest.hexdigest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_workload(workload, seed, seconds, trace, *, tiny=False, out_dir=".perfbench"):
    """Measure one workload; returns the result line's dict and the record."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    extra = ["--tiny"] if tiny else []
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        spans = os.path.join(out_dir, "spans", tag + ".csv")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        out = _child([workload, str(seed), str(seconds), "trace", "--spans", spans, *extra],
                     timeout=seconds + 120)
        raw = out["metrics"]
        layer_sum = sum(raw[f"{m}.self_s"] for m in
                        ("spin", "entropy", "solver", "risk", "simulate", "cli", "bench"))
        consistent = abs(layer_sum - out["wall_s"]) <= 1e-6 * out["wall_s"]
    else:
        def setups(count):
            return [_child([workload, str(seed), "0", "setup", *extra], timeout=120)
                    for _ in range(count)]

        # half the set-ups before the measuring run and half after, so their
        # median spans the run rather than one moment of a drifting host
        before = setups(SETUP_RUNS // 2)
        out = _child([workload, str(seed), str(seconds), "measure", *extra],
                     timeout=seconds + 120)
        runs = before + [out] + setups(SETUP_RUNS - 1 - SETUP_RUNS // 2)
        raw = dict(out["metrics"], setup_s=statistics.median(r["setup_s"] for r in runs))
        out["detail"]["setup_raw_s"] = {
            "value": statistics.median(r["setup_raw_s"] for r in runs), "unit": "s", "n": len(runs)}
        consistent = True
    metrics = {}
    for m in declared:
        value = raw.get(m["name"], 0 if _FUNCTION_METRIC.match(m["name"]) else None)
        if value is None:
            raise BenchError(f"{workload} did not report the metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    line = {
        "correct": out["failed"] == 0 and consistent,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    record = {"stamp": stamp(workload, seed, seconds, trace), "result": line,
              "detail": out.get("detail", {}), "failures": out["failures"]}
    with open(os.path.join(out_dir, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line, record


def report(line: dict, record: dict) -> None:
    """The readable lines printed before the result line."""
    st = record["stamp"]
    print(f"# {st['workload']} seed={st['seed']} seconds={st['seconds']} trace={st['trace']}")
    print("# " + " ".join(f"{k}={st[k]}" for k in
                          ("python", "numpy", "click", "nproc", "commit", "src_sha256")))
    print(f"# cpu={st['cpu']}")
    for name, m in line["metrics"].items():
        print(f"{st['workload']:<13} {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, d in record["detail"].items():
        tail = d.get("tail")
        more = f" p{tail['q']:g}={tail['ms']:.6g} ms" if tail else ""
        print(f"{st['workload']:<13} {name:<34} {d['value']:>16.6g} {d['unit']} (n={d['n']}){more}")
    print(f"{st['workload']:<13} {'operations':<34} {line['attempted']:>16d} "
          f"({line['failed']} failed, fail_frac {line['failed'] / line['attempted']:.6g})")
    for problem in record["failures"]:
        print(f"# failure: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spincollapse benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    try:
        _prepare()
        for name in names:
            line, record = run_workload(name, args.seed, args.seconds, args.trace)
            report(line, record)
            print(json.dumps(line), flush=True)
            correct = correct and line["correct"]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
