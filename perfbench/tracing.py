"""In-memory tracing for the benchmark's traced run.

Two kinds of record, both kept in memory and written out when the run ends:

* a span around each public call a workload makes (``dispatch``,
  ``grid_oracle``, ``surface``), with its request, name, layer, start and
  end (each request makes one such call, so spans never nest);
* per-layer aggregates (call count, total time, self time) for the evaluation
  methods of model instances, which run thousands of times per request and
  would cost too much as one span each.

Every timed frame sits on one stack, so a layer's self time is its time minus
the time of the frames it caused, whichever kind they are.  A call counts
once per entry into a layer: a mixture evaluating its own components does
not add calls.
"""

from __future__ import annotations

import time

from tailmax.stdf import StdfModel
from tailmax.tail_copula import NacCopula, TailCopulaModel

LAYERS = ("stdf", "tail_copula", "nac", "mtcm", "sealevel")

_EVAL_METHODS = ("_value", "_value_batch")


class LayerStat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Stack of open frames plus per-layer aggregates and the span list."""

    def __init__(self) -> None:
        # each frame: [layer, time spent in frames it caused]
        self._stack: list[list] = [[None, 0.0]]
        self.layers = {name: LayerStat() for name in LAYERS}
        self.spans: list[dict] = []
        self.request: int | None = None
        # evaluation calls entered straight from a search or oracle frame
        self.model_calls_from_mtcm = 0

    def _timed(self, layer: str, fn, args):
        stack = self._stack
        parent = stack[-1]
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            stat = self.layers[layer]
            stat.total_s += dt
            stat.self_s += dt - frame[1]
            if parent[0] != layer:
                stat.calls += 1
                if parent[0] == "mtcm":
                    self.model_calls_from_mtcm += 1
            parent[1] += dt

    def span(self, layer: str, name: str, fn, *args):
        """Call ``fn`` inside a recorded span attributed to ``layer``."""
        start = time.perf_counter()
        try:
            return self._timed(layer, fn, args)
        finally:
            self.spans.append({
                "request": self.request,
                "name": name,
                "layer": layer,
                "start_s": start,
                "end_s": time.perf_counter(),
            })

    def instrument(self, model) -> None:
        """Count and time the evaluation methods of ``model`` and every model
        it holds, by setting instance attributes that shadow the class
        methods.  The classes are untouched, so ``isinstance`` routing and
        equality behave as before.
        """
        if isinstance(model, NacCopula):
            layer = "nac"
        elif isinstance(model, TailCopulaModel):
            layer = "tail_copula"
        elif isinstance(model, StdfModel):
            layer = "stdf"
        else:
            return
        if "_value" in vars(model):  # already instrumented
            return
        for meth in _EVAL_METHODS:
            bound = getattr(model, meth)
            object.__setattr__(model, meth, self._eval_wrapper(layer, bound))
        for value in list(vars(model).values()):
            if isinstance(value, (StdfModel, TailCopulaModel)):
                self.instrument(value)

    def _eval_wrapper(self, layer: str, bound):
        timed = self._timed

        def call(*args):
            return timed(layer, bound, args)

        return call

    def snapshot(self) -> dict[str, tuple[int, float, float]]:
        return {k: (s.calls, s.total_s, s.self_s) for k, s in self.layers.items()}
