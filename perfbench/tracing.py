"""In-memory span tracer that wraps viradyn's public functions in place.

The tracer never edits the package: ``install`` replaces every module
attribute that refers to a traced function (the defining module and each
module that imported the name) with a timing wrapper, and ``uninstall``
puts the originals back.  A name missing from the package is skipped, so
a function that a later version removes reads as zero calls.

Each call of an ordinary function becomes one span with its name, start,
end, parent span and request id (the scenario label, or the command
index set by the benchmark).  The innermost hot calls (the right-hand
side and the per-time-point linearized evaluation) are aggregated as a
count plus total time under their parent span instead.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, hot)
TARGETS = (
    ("viradyn.integrator", "integrate", "integrator.integrate", False),
    ("viradyn.scenario", "run", "scenario.run", False),
    ("viradyn.scenario", "run_matrix", "scenario.run_matrix", False),
    ("viradyn.scenario", "compute_metrics", "scenario.compute_metrics", False),
    ("viradyn.scenario", "compare_linearization", "scenario.compare_linearization", False),
    ("viradyn.analysis", "equilibria", "analysis.equilibria", False),
    ("viradyn.analysis", "jacobian", "analysis.jacobian", False),
    ("viradyn.analysis", "eigen3", "analysis.eigen3", False),
    ("viradyn.analysis", "evaluate_linearized", "analysis.evaluate_linearized", True),
    ("viradyn.model", "rhs", "model.rhs", True),
    ("viradyn.cli", "parse_args", "cli.parse", False),
    ("viradyn.cli", "resolve_scenario", "cli.resolve", False),
    ("viradyn.cli", "render_analysis", "cli.render_analysis", False),
    ("viradyn.cli", "emit_trajectory", "cli.emit", False),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "child_s", "hot")

    def __init__(self, id_, name, start, parent, request):
        self.id = id_
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.child_s = 0.0
        self.hot = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request": self.request,
                "self_s": self.duration - self.child_s,
                "hot": {k: {"calls": c, "s": s} for k, (c, s) in self.hot.items()}}


class Tracer:
    """Spans and counters of one traced pass; create one per pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []
        self._root = Span(0, "bench.root", 0.0, None, None)
        self._patches: list[tuple[object, str, object]] = []
        self._in_hot = False

    # -- recording -------------------------------------------------------

    def open(self, name: str, request=None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(len(self.spans) + 1, name, perf_counter(),
                    parent.id if parent else None, request)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.duration

    def _span(self, name, fn, request_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = None
            if request_of is not None and not (tracer._stack and tracer._stack[-1].request):
                request = request_of(args, kwargs)
            span = tracer.open(name, request)
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer.close(span)
                if after is not None:
                    after(args, kwargs, None if error else result, error)
            return result

        return wrapper

    def _hot(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._in_hot:  # a hot function calling another is counted once
                return fn(*args, **kwargs)
            tracer._in_hot = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._in_hot = False
                parent = tracer._stack[-1] if tracer._stack else tracer._root
                agg = parent.hot.get(name)
                if agg is None:
                    parent.hot[name] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed
                parent.child_s += elapsed

        return wrapper

    # -- counters taken from arguments and results -------------------------

    def _after_integrate(self, args, kwargs, result, error):
        if error is not None:
            if type(error).__name__ == "IntegrationBlowupError":
                self.counts["integrator.blowups"] += 1
            return
        times = getattr(result, "times", None)
        if times is not None:
            self.counts["integrator.steps"] += len(times) - 1

    def _after_emit(self, args, kwargs, result, error):
        if error is not None:
            return
        trajectory = getattr(args[0] if args else kwargs.get("result"), "trajectory", None)
        if trajectory is not None:
            self.counts["cli.emit_rows"] += len(trajectory.times)
        if result is not None:
            path = os.fspath(result)
            self.counts["cli.emit_bytes"] += os.path.getsize(path)
            metrics = os.path.splitext(path)[0] + ".metrics.txt"
            if os.path.exists(metrics):
                self.counts["cli.emit_bytes"] += os.path.getsize(metrics)

    @staticmethod
    def _label_of(args, kwargs):
        config = args[0] if args else kwargs.get("config")
        return getattr(config, "label", None) or None

    def _wrap(self, name, fn, hot):
        if hot:
            return self._hot(name, fn)
        if name == "integrator.integrate":
            return self._span(name, fn, after=self._after_integrate)
        if name == "cli.emit":
            return self._span(name, fn, after=self._after_emit)
        if name == "scenario.run":
            return self._span(name, fn, request_of=self._label_of)
        return self._span(name, fn)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "viradyn" or n.startswith("viradyn."))]
        replacements = {}
        for module_name, attr, name, hot in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is not None:
                replacements[id(original)] = self._wrap(name, original, hot)
        vector_field = getattr(sys.modules.get("viradyn.model"), "vector_field", None)
        if vector_field is not None:
            @functools.wraps(vector_field)
            def traced_vector_field(*args, **kwargs):
                return self._hot("model.rhs", vector_field(*args, **kwargs))
            replacements[id(vector_field)] = traced_vector_field
        for module in modules:
            for key, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and callable(value):
                    setattr(module, key, wrapped)
                    self._patches.append((module, key, value))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, total seconds and self seconds; hot names too."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            entry = out[span.name]
            entry["calls"] += 1
            entry["s"] += span.duration
            entry["self_s"] += span.duration - span.child_s
        for span in self.spans + [self._root]:
            for name, (calls, seconds) in span.hot.items():
                entry = out[name]
                entry["calls"] += calls
                entry["s"] += seconds
                entry["self_s"] += seconds
        return dict(out)

    def write(self, fh, **header) -> None:
        """Append this pass as JSON lines: a header, then one line per span."""
        fh.write(json.dumps({"header": header, "counts": dict(self.counts),
                             "unparented_hot": {k: {"calls": c, "s": s}
                                                for k, (c, s) in self._root.hot.items()}})
                 + "\n")
        for span in self.spans:
            fh.write(json.dumps(span.record()) + "\n")
