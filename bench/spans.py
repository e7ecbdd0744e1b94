"""In-memory span tracing around calls into opsig's public functions.

A :class:`Tracer` wraps each named function at every ``opsig.*`` module
attribute bound to it, so calls resolved from inside the package are caught
as well as calls from the benchmark. Each call records one span (id, name,
start, end, parent id); spans stay in memory until the run ends. A function
that no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

# (module, function) pairs whose calls are timed in a traced run.
TRACED_FUNCTIONS: tuple[tuple[str, str], ...] = (
    ("synthcorpus", "generate_corpus"),
    ("synthcorpus", "sample_sequence"),
    ("synthcorpus", "make_family_model"),
    ("synthcorpus", "write_corpus"),
    ("ingest", "load_corpus"),
    ("ingest", "parse_mnemonic_lines"),
    ("ingest", "parse_sample_file"),
    ("opgraph", "count_bigrams"),
    ("opgraph", "merge_counts"),
    ("opgraph", "build_vocabulary"),
    ("opgraph", "build_graph"),
    ("clusterer", "compute_distance_matrix"),
    ("clusterer", "dbscan"),
    ("clusterer", "submatrix"),
    ("clusterer", "multi_round_cluster"),
    ("signatures", "build_database"),
    ("signatures", "build_class_signatures"),
    ("signatures", "build_signature"),
    ("signatures", "save_database"),
    ("signatures", "load_database"),
    ("classifier", "classify"),
    ("classifier", "classify_batch"),
    ("evaluation", "run_crossval"),
    ("evaluation", "stratified_kfold"),
)

PACKAGE = "opsig"

# A hook sees (result, args, kwargs) of one call and adds to the tracer's counts.
Hook = Callable[["Tracer", object, tuple, dict], None]


class Tracer:
    """Records spans for wrapped functions and for the benchmark's own stages."""

    def __init__(self, hooks: dict[str, Hook] | None = None):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()
        self._hooks = hooks or {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block as one span, parented to the innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                try:
                    hook(self, result, args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError):
                    # The function's signature or result changed shape.
                    self.absent.add(name + ":hook")
            return result

        return traced

    def install(self, functions: Iterable[tuple[str, str]] = TRACED_FUNCTIONS) -> None:
        """Replace every ``opsig.*`` binding of each function with a traced wrapper."""
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
        ]
        for module_name, func_name in functions:
            name = f"{module_name}.{func_name}"
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of it covered by its
        direct children; children of one span run on its thread, one after
        another, so their durations do not overlap.
        """
        child_time: dict[int, float] = {}
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, dict[str, float]] = {}
        for span_id, name, start, end, _ in self.spans:
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - child_time.get(span_id, 0.0)
        return totals

    def span_records(self) -> list[dict[str, object]]:
        origin = min((start for _, _, start, _, _ in self.spans), default=0.0)
        return [
            {"id": span_id, "name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for span_id, name, start, end, parent in self.spans
        ]
