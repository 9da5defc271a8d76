"""In-memory span tracer around the public functions of the fracspec modules.

A span is ``[name, start, end, parent, error]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``error`` is true when the call left
by an exception. Spans live in a list until the run ends and ``dump`` writes
them out.

``install`` wraps every public module-level function of each layer and
rebinds the wrapper in every fracspec namespace that holds the original, so
calls made through ``from .numcore import inverse`` are traced as well.
"""

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("numcore", "discretize", "semigroup", "fracpow", "transform", "diagnostics", "cli")

# The CLI subcommands are reported under the names users type.
ALIASES = {"cli.cmd_build": "cli.build", "cli.cmd_verify": "cli.verify"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span, error):
        span[2] = time.perf_counter()
        span[4] = error
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(span, True)
                raise
            self._close(span, False)
            return out

        return traced

    @contextlib.contextmanager
    def root(self, name):
        """A root span, one per benchmark operation."""
        span = self._open(name)
        try:
            yield
        except BaseException:
            self._close(span, True)
            raise
        self._close(span, False)

    def summary(self):
        """Per function: self seconds, calls and errors; self time is the
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, error) in enumerate(self.spans):
            row = out.setdefault(name, {"self_s": 0.0, "calls": 0, "errors": 0})
            row["self_s"] += (end - start) - child[i]
            row["calls"] += 1
            row["errors"] += int(error)
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "error"],
                       "spans": self.spans}, fh)


def span_cost(calls=20000, repeats=7):
    """Seconds one traced call adds to an untraced one: the median over
    ``repeats`` of (wrapped minus bare) time per call of a no-op function,
    on a tracer of its own."""
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def install(tracer):
    """Wrap every public function the layers define (not re-exports), and
    rebind each wrapper in every fracspec namespace that holds the original."""
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"fracspec.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(ALIASES.get(name, name), obj)
    for modname, mod in list(sys.modules.items()):
        if mod is None or modname.split(".")[0] != "fracspec":
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
