"""Spans around semifl's public functions, recorded from outside the package.

Several functions are imported by name (``from .nn import loss_and_grads``),
so each wrapper is installed in the namespace where the caller looks the
name up.  A target that no longer exists is skipped and listed in
``Tracer.missing``.  Spans stay in memory; a span's self time is its duration
minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import functools
import importlib
import time


def _model_count(args, kwargs) -> int:
    return len(args[0] if args else kwargs["models"])


# (module, attribute looked up by the caller, span name, per-call counter)
TARGETS = (
    ("semifl.experiment", "run_experiment", "experiment.run_experiment", None),
    ("semifl.experiment", "generate_synthetic", "data.generate_synthetic", None),
    ("semifl.experiment", "partition", "data.partition", None),
    ("semifl.clustering", "build_pattern", "clustering.build_pattern", None),
    ("semifl.federation", "pool_clients", "federation.pool_clients", None),
    ("semifl.experiment", "init_model", "nn.init_model", None),
    ("semifl.experiment", "checkpoint_bytes", "checkpoint.checkpoint_bytes", None),
    ("semifl.experiment", "evaluate_accuracy", "metrics.evaluate_accuracy", None),
    ("semifl.experiment", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("semifl.metrics", "forward", "nn.forward", None),
    ("semifl.federation", "run_round_semifl", "federation.round", None),
    ("semifl.federation", "run_round_fedavg", "federation.round", None),
    ("semifl.federation", "run_round_cl", "federation.round", None),
    ("semifl.federation", "stream", "federation.stream", None),
    ("semifl.federation", "aggregate_mean", "federation.aggregate_mean", _model_count),
    ("semifl.federation", "train_local_with_loss", "nn.train_local", None),
    ("semifl.nn", "loss_and_grads", "nn.loss_and_grads", None),
    ("semifl.nn", "sgd_step", "nn.sgd_step", None),
)

SPAN_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))


class Tracer:
    """Installs span-recording wrappers and removes them again."""

    def __init__(self):
        # [name, start, end, parent index or -1, counted items]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._installed: set[str] = set()

    def install(self, targets=TARGETS) -> None:
        for module_name, attr, span, counter in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span, original, counter))
            self._patched.append((module, attr, original))
            self._installed.add(span)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    counter(args, kwargs) if counter else 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, counted items, and whether
        any of its targets existed."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0,
                      "installed": name in self._installed}
               for name in SPAN_NAMES}
        for i, (name, start, end, _, items) in enumerate(self.spans):
            s = out[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["items"] += items
        return out
