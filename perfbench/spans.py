"""Outside-in span tracing of the spincollapse layers.

`Tracer.install()` replaces every public module-level function of the layer
modules with a timing wrapper, in every ``spincollapse.*`` namespace that
binds it (the modules import each other's names with ``from .x import f``, so
a call from `solver` into `born_up` goes through `solver`'s own binding).
Nothing under ``src/`` changes; the wrappers live only in this process.

Classes are left unwrapped: replacing `Axis` or `PureState` with a function
would break ``isinstance`` checks and dataclass equality, so the cost of
constructing them (angle canonicalization, validation) stays in the self time
of whichever function constructs them.  Methods (`RiskFunction.evaluate`,
`TrajectoryStep.to_dict`, `FeasibleSet.axis_on_circle`) and private helpers
(`_geometry`, `_binary_entropy_grid`) likewise count toward their caller.

Self time of a span is its duration minus the durations of its direct
children, computed exactly with a stack as spans close.  Time inside a timed
benchmark operation that no span covers is the benchmark's own ("bench"), so
the self times of all layers plus the bench's add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("spin", "entropy", "solver", "risk", "simulate", "cli")
_PACKAGE = "spincollapse"


def public_functions() -> dict[str, object]:
    """Qualified name ("solver.solve") -> original function, for every layer."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{_PACKAGE}.{layer}")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Span recorder with exact per-name self time and bounded span storage.

    Every closed span updates the per-name call count and self time; the
    first `max_spans` spans are also kept as (name, start, end, parent, run)
    rows for `write_spans`.  While `active` is false the wrappers call
    straight through, so the benchmark's own output checks are not traced.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.top_s = 0.0  # summed duration of spans with no parent
        self.spans: list = []
        self.max_spans = max_spans
        self.run_id = 0
        self.active = False
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` (used for the CLI entry point)."""
        if not self.active:
            return fn(*args, **kwargs)
        return self._call(self.name_id(name), fn, args, kwargs)

    def _call(self, nid, fn, args, kwargs):
        stack = self._stack
        idx = len(self.spans)
        if idx < self.max_spans:
            self.spans.append(None)
        else:
            idx = -1
        frame = [idx, 0.0]  # span index, time covered by children
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            self.calls[nid] += 1
            self.self_s[nid] += dur - frame[1]
            if stack:
                parent = stack[-1]
                parent[1] += dur
                parent_idx = parent[0]
            else:
                self.top_s += dur
                parent_idx = -1
            if idx >= 0:
                self.spans[idx] = (nid, start, end, parent_idx, self.run_id)

    def _wrap(self, qualname: str, fn, hook):
        nid = self.name_id(qualname)
        call = self._call

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = call(nid, fn, args, kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self, hooks: dict | None = None) -> None:
        """Wrap each public function in every spincollapse namespace binding it."""
        hooks = hooks or {}
        originals = public_functions()
        wrappers = {
            id(fn): self._wrap(q, fn, hooks.get(q)) for q, fn in originals.items()
        }
        modules = [importlib.import_module(_PACKAGE)] + [
            importlib.import_module(f"{_PACKAGE}.{layer}") for layer in LAYERS
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                # ids are unique while `originals` keeps the functions alive
                if id(obj) in wrappers:
                    self._installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._installed):
            setattr(mod, attr, obj)
        self._installed.clear()

    def write_spans(self, path: str) -> int:
        """Write the kept spans as CSV rows; returns the number written."""
        rows = [s for s in self.spans if s is not None]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,parent,run_id\n")
            for nid, start, end, parent, run in rows:
                fh.write(f"{self.names[nid]},{start!r},{end!r},{parent},{run}\n")
        return len(rows)

