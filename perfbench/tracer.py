"""Span tracer that wraps hoicompose's public functions from outside the package.

A span is (name, start, end, parent span, run id) plus optional counts. Spans
live in flat in-memory arrays while a run goes on and are written out once, at
the end. Wrappers replace a function at every module attribute that holds it,
because the package imports names with ``from .x import f``; ``restore`` puts
every original back.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PACKAGE = "hoicompose"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.run = array("i")
        self.counts: dict[int, dict] = {}
        self.run_ids: list[str] = []
        self._run = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; outside a run scope it records nothing."""
        if self._run < 0:
            yield
            return
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def run_scope(self, run_id: str):
        """Tag every span opened inside with run_id, under a root span bench.<kind>."""
        self._run = len(self.run_ids)
        self.run_ids.append(run_id)
        try:
            with self.span("bench.setup" if run_id == "setup" else "bench.op"):
                yield
        finally:
            self._run = -1

    def wrap(self, name: str, fn, count=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._run < 0:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.counts[idx] = count(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (module, function, count) at every hoicompose attribute holding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, count in targets:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    def _arrays(self):
        n = len(self.start)
        return (np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
                np.frombuffer(self.start, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.end, dtype=np.int64, count=n).copy(),
                np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
                np.frombuffer(self.run, dtype=np.int32, count=n).copy())

    def summarize(self):
        """Per-run, per-name totals and the wall time of every span by name.

        Returns (totals, walls, problems): totals[run_id][name] holds calls,
        wall_ns, self_ns and the summed counts; walls[name] lists span
        durations in ns; problems names each span whose children cover more
        time than the span itself, or that never closed.
        """
        name, start, end, parent, run = self._arrays()
        dur = end - start
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_ns = dur - child
        problems = [f"{self.names[name[i]]} (span {i}): children {int(child[i])} ns "
                    f"> duration {int(dur[i])} ns" for i in np.flatnonzero(self_ns < 0)]
        problems += [f"{self.names[name[i]]} (span {i}) never closed" for i in np.flatnonzero(end == 0)]

        n_names = len(self.names)
        key = run.astype(np.int64) * n_names + name
        size = len(self.run_ids) * n_names
        calls = np.bincount(key, minlength=size)
        wall = np.bincount(key, weights=dur, minlength=size)
        own = np.bincount(key, weights=self_ns, minlength=size)
        totals: dict = {run_id: {} for run_id in self.run_ids}
        for k in np.flatnonzero(calls):
            r, nm = divmod(int(k), n_names)
            totals[self.run_ids[r]][self.names[nm]] = {
                "calls": int(calls[k]), "wall_ns": float(wall[k]), "self_ns": float(own[k])}
        for i, counted in self.counts.items():
            rec = totals[self.run_ids[run[i]]][self.names[name[i]]]
            for k, value in counted.items():
                rec[k] = rec.get(k, 0) + value
        walls = {self.names[nm]: dur[name == nm].tolist() for nm in np.unique(name)}
        return totals, walls, problems

    def write(self, path) -> None:
        name, start, end, parent, run = self._arrays()
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            run_ids=np.array(json.dumps(self.run_ids)),
            name=name, start_ns=start, end_ns=end, parent=parent, run=run,
            counted=np.array(sorted(self.counts), dtype=np.int64),
            counts=np.array(json.dumps([self.counts[i] for i in sorted(self.counts)])),
        )


def layer_value(totals, name: str, key: str, setup_spans=frozenset()) -> float:
    """The median over operations of each operation's total.

    A span named in setup_spans that no operation opened gives the set-up's
    total instead, so set-up work shows without blending into operations.
    """
    ops = [per_name for run_id, per_name in totals.items() if run_id != "setup"]
    if name in setup_spans and not any(name in per_name for per_name in ops):
        return totals.get("setup", {}).get(name, {}).get(key, 0)
    return statistics.median([per_name.get(name, {}).get(key, 0) for per_name in ops]) if ops else 0


def median_wall_s(walls, name: str) -> float:
    return statistics.median(walls[name]) / 1e9 if walls.get(name) else 0.0
