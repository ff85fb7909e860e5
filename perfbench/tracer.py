"""Span tracing of the ncframes layers, installed from outside the package.

Every public function and method defined in the traced modules is replaced
by a wrapper that records one span per call: (name, start, end, parent,
job).  A function is replaced under every name that refers to it in any
ncframes namespace, so `cli.check_tight` and `frames.check_tight` both
record.  Spans stay in memory; `write` stores them when the run ends and
`uninstall` puts every original attribute back.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "io", "algebra", "module", "frames", "decomposition", "optimize")

# Operators count as public methods: the AMatrix product is `__matmul__`.
_OPERATORS = {"__matmul__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__"}


def _matmul_work(a, b):
    """Computed (flop, bytes) of one product over A, summed over summands.

    Per summand of size m an r x p by p x c product does 8*r*p*c*m^3 real
    flop and touches 16*(rp + pc + rc)*m^2 bytes of complex128 operands.
    """
    r, p, c = a.rows, a.cols, b.cols
    flop = sum(8 * r * p * c * m**3 for m in a.spec.summand_dims)
    nbytes = sum(16 * (r * p + p * c + r * c) * m * m for m in a.spec.summand_dims)
    return flop, nbytes


def _file_bytes(path, *args, **kwargs):
    return (os.path.getsize(path),)


# Work counted per call from the arguments, after the call returns.
WORK = {
    "module.matmul": _matmul_work,
    "io.save_frame": _file_bytes,
    "io.load_frame": _file_bytes,
}


class Tracer:
    """Wraps the ncframes layers and records nested spans in memory."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, job)
        self.work: dict[str, list[float]] = {}
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if work is not None:
                counted = work(*args, **kwargs)
                totals = self.work.setdefault(name, [0] * len(counted))
                for i, value in enumerate(counted):
                    totals[i] += value
            return result

        return wrapper

    def _set(self, owner, attr, original, replacement):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self):
        """Replace the layer functions and methods with recording wrappers."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = {layer: sys.modules[f"ncframes.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        namespaces = [sys.modules["ncframes"], *modules.values()]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(ns, attr, value, wrappers[id(value)][1])

    def _wrap_methods(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{layer}.{attr.strip('_')}"
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(self._wrap(raw.__func__, name))
            elif inspect.isfunction(raw):
                replacement = self._wrap(raw, name)
            else:
                continue
            self._set(cls, attr, raw, replacement)

    def uninstall(self):
        """Restore every attribute that install replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Store the spans as JSON lines: name, start, end, parent, job."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]
