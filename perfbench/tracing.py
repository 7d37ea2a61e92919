"""Span tracing from outside the program.

The package's modules call each other through module-level names (``driver``
calls ``spcm.driver.squared_distances``, ``cli`` calls ``spcm.cli.run`` and so
on).  :class:`Tracer` replaces those names with timing wrappers for the
duration of a traced operation and puts the originals back afterwards, so
nothing is added to the package itself.  A name that no longer exists is
recorded in :attr:`Tracer.missing` instead of failing the run.

Spans stay in memory; :meth:`Tracer.write` dumps them once the run is over.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

Counter = Callable[[tuple, object], dict]


@dataclass
class Span:
    """One call into a layer: ``parent`` is an index into the span list, -1 at the top."""

    name: str
    op: int
    parent: int
    start: float = 0.0
    end: float = 0.0
    counts: dict | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A module-level name to wrap, the span it records and an optional counter."""

    module: str
    attr: str
    span: str
    count: Counter | None = None


def _distance_bytes(args, result) -> dict:
    # computed from the shapes: an N x m x l float64 difference array per call
    n, l = np.shape(args[0])
    m = np.shape(args[1])[0]
    return {"bytes": n * m * l * 8}


def _solve_counts(args, result) -> dict:
    return {"points": int(np.size(args[0])), "active": int(np.count_nonzero(result))}


def _hessian_bytes(args, result) -> dict:
    return {"bytes": int(result.nbytes)}


TARGETS = (
    Target("spcm", "run", "driver.run"),
    Target("spcm.cli", "main", "cli.main"),
    Target("spcm.cli", "run", "driver.run"),
    Target("spcm.cli", "ingest_csv", "cli.ingest_csv"),
    Target("spcm.cli", "emit_csv", "cli.emit_csv"),
    Target("spcm.cli", "check_fixed_point", "monitor.check_fixed_point"),
    Target("spcm.driver", "initialize", "initialization.initialize"),
    Target("spcm.driver", "spcm_step", "driver.spcm_step"),
    Target("spcm.driver", "build_context", "membership.build_context"),
    Target("spcm.driver", "solve_membership_batch", "membership.solve_membership_batch", _solve_counts),
    Target("spcm.driver", "total_cost", "core.total_cost"),
    Target("spcm.driver", "update_theta", "driver.update_theta"),
    Target("spcm.driver", "deduplicate", "driver.deduplicate"),
    Target("spcm.initialization", "run_fcm", "initialization.run_fcm"),
    Target("spcm.monitor", "gradient_residual", "monitor.gradient_residual"),
    Target("spcm.monitor", "assemble_hessian", "monitor.assemble_hessian", _hessian_bytes),
    Target("spcm.monitor", "_is_positive_definite", "monitor.cholesky"),
    Target("spcm.monitor", "_valley_samples", "monitor.valley_samples"),
) + tuple(
    Target(module, "squared_distances", "core.squared_distances", _distance_bytes)
    for module in ("spcm.core", "spcm.driver", "spcm.initialization", "spcm.monitor")
)


class Tracer:
    """Records spans for the calls that go through the wrapped names."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, count: Counter | None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, self.op, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result

        return traced

    def install(self, op: int) -> None:
        """Wrap every target name; later spans belong to operation ``op``."""
        self.op = op
        self.missing = []
        for target in self.targets:
            try:
                module = importlib.import_module(target.module)
                original = getattr(module, target.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{target.module}.{target.attr}")
                continue
            self._originals.append((module, target.attr, original))
            setattr(module, target.attr, self._wrap(original, target.span, target.count))

    def uninstall(self) -> None:
        """Put every original name back."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def op_spans(self, op: int) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.op == op]

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "counts": s.counts}) + "\n")


def self_times(spans: list[tuple[int, Span]]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {i: s.duration for i, s in spans}
    for _, s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
