"""Span tracing installed around the library's public functions at run time.

The library is not edited.  `Tracer.install` replaces every public
module-level function of the traced layers in every `torusorbits` module
namespace that binds it (modules import each other's functions by name), and
wraps `IntMatrix.__post_init__` to count matrix constructions.  Spans hold
name, start, end and parent; they stay in memory until `dump` writes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("lattice", "orbit_space", "classify", "biquotient", "census", "cli")
# Each span is four int64 fields: name id, start ns, end ns, and the offset
# of its parent span in the flat array (-1 at top level).
_FIELDS = 4


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.stack = [-1]
        self.constructed = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            offset = len(spans)
            spans.extend((name_id, clock(), 0, stack[-1]))
            stack.append(offset)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[offset + 2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if module is not None and (name == "torusorbits" or name.startswith("torusorbits."))
        }
        for layer in LAYERS:
            module = modules[f"torusorbits.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for namespace in modules.values():
                    for bound, value in list(vars(namespace).items()):
                        if value is fn:
                            self._undo.append((namespace, bound, fn))
                            setattr(namespace, bound, traced)
        matrix = modules["torusorbits.lattice"].IntMatrix
        post_init = matrix.__post_init__

        def counted(obj) -> None:
            self.constructed += 1
            post_init(obj)

        self._undo.append((matrix, "__post_init__", post_init))
        matrix.__post_init__ = counted

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: Path) -> None:
        """Write the spans as a JSON header line followed by raw int64 rows."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "constructed": self.constructed}
            handle.write(json.dumps(header).encode() + b"\n")
            self.spans.tofile(handle)


class Spans:
    """Spans of one or more traced processes, with self times computed."""

    def __init__(self) -> None:
        self.name: list[np.ndarray] = []
        self.start: list[np.ndarray] = []
        self.end: list[np.ndarray] = []
        self.self_ns: list[np.ndarray] = []
        self.table: dict[str, int] = {}
        self.constructed = 0

    def add(self, names: list[str], rows: np.ndarray, constructed: int) -> None:
        rows = rows.reshape(-1, _FIELDS)
        ids = np.array([self.table.setdefault(n, len(self.table)) for n in names], dtype=np.int64)
        duration = rows[:, 2] - rows[:, 1]
        parent = np.where(rows[:, 3] >= 0, rows[:, 3] // _FIELDS, -1)
        # A span's self time is its duration minus the time its children cover;
        # one thread runs at a time, so children never overlap each other.
        covered = np.zeros(len(rows), dtype=np.int64)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self.name.append(ids[rows[:, 0]])
        self.start.append(rows[:, 1])
        self.end.append(rows[:, 2])
        self.self_ns.append(duration - covered)
        self.constructed += constructed

    def load(self, path: Path) -> None:
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            rows = np.fromfile(handle, dtype=np.int64)
        self.add(header["names"], rows, header["constructed"])

    def add_tracer(self, tracer: Tracer) -> None:
        self.add(tracer.names, np.frombuffer(tracer.spans, dtype=np.int64).copy(), tracer.constructed)

    def _ids(self, prefix: str) -> list[int]:
        return [i for n, i in self.table.items() if n == prefix or n.startswith(prefix + ".")]

    def _select(self, prefix: str):
        ids = self._ids(prefix)
        for name, start, end, own in zip(self.name, self.start, self.end, self.self_ns):
            mask = np.isin(name, ids)
            yield start[mask], end[mask], own[mask]

    def calls(self, prefix: str) -> int:
        return int(sum(len(s) for s, _, _ in self._select(prefix)))

    def self_s(self, prefix: str) -> float:
        return sum(int(own.sum()) for _, _, own in self._select(prefix)) / 1e9

    def total_s(self, prefix: str) -> float:
        return sum(int((e - s).sum()) for s, e, _ in self._select(prefix)) / 1e9

    def p50_ms(self, prefix: str) -> float:
        parts = [e - s for s, e, _ in self._select(prefix)]
        durations = np.concatenate(parts) if parts else np.zeros(0)
        return float(np.median(durations)) / 1e6 if len(durations) else 0.0

    def census_stages(self) -> tuple[float, float]:
        """Seconds in enumeration and in row building, summed over censuses.

        Enumeration runs from entering `run_census` to its first call into
        `classify` or `biquotient`, which starts building rows.
        """
        census = self.table.get("census.run_census")
        row_ids = self._ids("classify") + self._ids("biquotient")
        enumerate_ns = rows_ns = 0
        for name, start, end in zip(self.name, self.start, self.end):
            for index in np.flatnonzero(name == census):
                inside = (start > start[index]) & (start < end[index])
                first = np.flatnonzero(inside & np.isin(name, row_ids))
                split = start[first[0]] if len(first) else end[index]
                enumerate_ns += int(split - start[index])
                rows_ns += int(end[index] - split)
        return enumerate_ns / 1e9, rows_ns / 1e9
