"""Spans around the package's layer boundaries, recorded from outside it.

A traced run replaces module attributes that the solvers look up at call
time with timing wrappers.  Nothing under ``src/`` changes: ``Tracer.installed``
swaps the attributes in and always puts the originals back, so untraced
work in the same process runs the package's own functions.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Attributes looked up at call time by the harness and the solvers.  Names a
# later version of the package no longer has are skipped and reported, so
# the benchmark keeps running.
TARGETS = (
    ("ceed.harness", "_run_trial"),
    ("ceed.pso", "step"),
    ("ceed.ga", "decode"),
    ("ceed.ga", "_next_generation"),
    ("ceed.pso", "repair_batch"),
    ("ceed.ga", "repair_batch"),
    ("ceed.repair", "_assign_residual"),
    ("ceed.pso", "combined_objective_batch"),
    ("ceed.ga", "combined_objective_batch"),
)

# Position of the batch argument whose length is the call's row count.
_ROW_ARG = {"repair_batch": 1, "combined_objective_batch": 1, "decode": 0}

# Span record fields, kept as plain lists until written out.  The benchmark
# runs one trial per call, so the call index identifies the trial.
NAME, START, END, PARENT, CALL, ROWS = range(6)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call = -1
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        row_arg = _ROW_ARG.get(name)

        def wrapper(*args, **kwargs):
            rows = len(args[row_arg]) if row_arg is not None else 1
            parent = self._stack[-1] if self._stack else -1
            record = [name, 0.0, 0.0, parent, self.call, rows]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                self._stack.pop()

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module_name, attr in TARGETS:
                module = importlib.import_module(module_name)
                qualified = f"{module_name}.{attr}"
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(qualified)
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(attr, original))
                self.wrapped.append(qualified)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, scale=None) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover.

        Calls are serial, so children of one span never overlap and the part
        of the parent they cover is the sum of their durations.  scale[call],
        when given, multiplies the spans of each call.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        out: dict[str, float] = defaultdict(float)
        for span, child in zip(self.spans, covered):
            weight = 1.0 if scale is None else scale[span[CALL]]
            out[span[NAME]] += (span[END] - span[START] - child) * weight
        return dict(out)

    def counts(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, rows)."""
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for span in self.spans:
            out[span[NAME]][0] += 1
            out[span[NAME]][1] += span[ROWS]
        return {name: (calls, rows) for name, (calls, rows) in out.items()}

    def write(self, path: Path, calls: list) -> None:
        """Spans plus one record per call (its trial and speed scale)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "start", "end", "parent", "call", "rows"],
            "wrapped": self.wrapped,
            "missing": self.missing,
            "calls": calls,
            "spans": self.spans,
        }))
