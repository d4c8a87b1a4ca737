"""Span recorder for the traced run.

Spans are taken around calls into each layer's public functions, from the
benchmark's side: every binding of a traced function in the ``dpmedreg``
modules (the defining module and each module that imported it by name) is
replaced by one wrapper, so every call site, inside the package or in the
benchmark, goes through exactly one span.  Methods are wrapped on their class.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import pace


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _read_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": int(result[1].shape[0])}


def _laplace_draws(args, kwargs, result):
    return {"draws": int(result.shape[0])}


def _smoothing_iters(args, kwargs, result):
    return {"iters": int(result.solver_iters)}


def _irls_counts(args, kwargs, result):
    return {"iters": int(result.iterations), "bracket_violations": int(result.bracket_violations)}


# (span name, defining module, attribute path, counter hook).  A hook maps
# (args, kwargs, result) to extra counts, summed per span name.
TRACED = (
    ("datagen.read_csv", "dpmedreg.datagen", "read_csv", _read_counts),
    ("datagen.write_csv", "dpmedreg.datagen", "write_csv", _written_bytes),
    ("datagen.generate", "dpmedreg.datagen", "generate", None),
    ("datagen.normalize", "dpmedreg.datagen", "normalize", None),
    ("model.Dataset", "dpmedreg.model", "Dataset.__init__", None),
    ("sampling.RngStream.derive", "dpmedreg.sampling", "RngStream.derive", None),
    ("sampling.RngStream.laplaces", "dpmedreg.sampling", "RngStream.laplaces", _laplace_draws),
    ("sampling.sample_l1_perturbation", "dpmedreg.sampling", "sample_l1_perturbation", None),
    ("smoothing.fit_smoothed_private", "dpmedreg.smoothing", "fit_smoothed_private", _smoothing_iters),
    ("irls.fit_irls_private", "dpmedreg.irls", "fit_irls_private", None),
    ("irls.irls_fit", "dpmedreg.irls", "irls_fit", _irls_counts),
    ("irls.weighted_ridge_solve", "dpmedreg.irls", "weighted_ridge_solve", None),
    ("gcd.fit_gcd_private", "dpmedreg.gcd", "fit_gcd_private", None),
    ("gcd.split_batches", "dpmedreg.gcd", "split_batches", None),
    ("gcd.coordinate_step_vector", "dpmedreg.gcd", "coordinate_step_vector", None),
    ("verification.make_neighbor_pair", "dpmedreg.verification", "make_neighbor_pair", None),
    ("verification.random_dataset", "dpmedreg.verification", "random_dataset", None),
    ("bench.run_fit", "dpmedreg.bench", "run_fit", None),
    ("cli.main", "dpmedreg.cli", "main", None),
)

# Extra counts each hook reports, in the order the metrics are listed.
COUNTERS = {
    "datagen.read_csv": ("bytes", "rows"),
    "datagen.write_csv": ("bytes",),
    "sampling.RngStream.laplaces": ("draws",),
    "smoothing.fit_smoothed_private": ("iters",),
    "irls.irls_fit": ("iters", "bracket_violations"),
}

# Spans whose self time (duration minus time covered by child spans) is reported.
SELF_TIMED = ("cli.main",)


class Tracer:
    """Records (name, start, end, parent) spans while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        counts = self.counts.setdefault(name, {})
        clock = pace.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                for key, value in hook(args, kwargs, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        package = [m for k, m in sys.modules.items() if k == "dpmedreg" or k.startswith("dpmedreg.")]
        for name, module_name, path, hook in TRACED:
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._set(cls, attr, self._wrap(name, original, hook))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, hook)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, target, attr, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds (inclusive), self seconds, counters."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name, *_ in TRACED}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        for name, counts in self.counts.items():
            out[name].update(counts)
        return out

    def write(self, path) -> None:
        """A header line naming the fields, then one JSON array per span:
        name, start and end (seconds of :func:`pace.clock`), parent span index or -1."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
