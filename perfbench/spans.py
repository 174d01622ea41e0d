"""Timing spans around cptlaws' public functions, kept in memory and written as JSON lines.

A span is one call: its name (``<layer>.<function>``), its start and end on
the clock ``time.perf_counter`` reads (CLOCK_MONOTONIC on Linux, shared by
every process, so spans of the harness and of its child processes line up),
the span that caused it and the id of the workload run.  The records carry the
fields a future ``--trace`` flag of the program would emit, so the harness can
read either.

This module imports nothing heavy: the child process loads it before it
imports cptlaws, so that the import itself can be timed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import os
import time

#: The package's modules, in the order the report lists them.  ``errors``
#: holds only exception types and does no work.
LAYERS = ("ingest", "laws", "fitter", "allocator", "transfer", "synth", "cli")


class Recorder:
    """Collects the spans of one process in memory until :meth:`dump`."""

    def __init__(self, run_id: str, parent: str | None = None):
        self.run_id = run_id
        self._prefix = f"{os.getpid()}."
        self._ids = itertools.count()
        self._stack = [parent]
        self.records: list[tuple] = []

    def _open(self) -> tuple[str, str | None]:
        span_id = self._prefix + str(next(self._ids))
        parent = self._stack[-1]
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, start, attrs=None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.records.append((span_id, parent, name, start, end, attrs))

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self._close(span_id, parent, name, start, attrs)

    def wrap(self, fn, name: str, describe=None):
        """``fn`` with a span around every call; ``describe(args, kwargs, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if describe is not None:
                    attrs = describe(args, kwargs, result)
                return result
            finally:
                self._close(span_id, parent, name, start, attrs)

        return traced

    def dicts(self) -> list[dict]:
        pid = os.getpid()
        out = []
        for span_id, parent, name, start, end, attrs in self.records:
            doc = {"run": self.run_id, "id": span_id, "parent": parent, "name": name,
                   "start": start, "end": end, "pid": pid}
            if attrs:
                doc["attrs"] = attrs
            out.append(doc)
        return out

    def dump(self, path) -> None:
        """Append every span, with the time taken to serialize them as a ``trace.dump`` span."""
        start = time.perf_counter()
        lines = [json.dumps(doc) for doc in self.dicts()]
        lines.append(json.dumps({
            "run": self.run_id, "id": self._prefix + "dump", "parent": self._stack[0],
            "name": "trace.dump", "start": start, "end": time.perf_counter(),
            "pid": os.getpid(),
        }))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _describe_local_search(args, kwargs, res) -> dict:
    """Counters of one ``scipy.optimize.minimize`` call made by the fitter.

    Defined against scipy's result object: a change that replaces ``minimize``
    in ``cptlaws.fitter`` redefines these counters and must say so.
    """
    x0 = args[1] if len(args) > 1 else kwargs["x0"]
    return {
        "method": kwargs.get("method"),
        "k": len(x0),
        "nfev": int(res.get("nfev", 0)),
        "njev": int(res.get("njev", 0)),
        "nit": int(res.get("nit", 0)),
        "success": bool(res.success),
        "fun": float(res.fun),
    }


def _describe_parse(args, kwargs, runset) -> dict:
    return {"records": sum(len(run.records) for run in runset)}


_DESCRIBE = {"ingest.parse_runs": _describe_parse}


def instrument(rec: Recorder) -> None:
    """Put a span around every public function of every cptlaws module.

    Each wrapper replaces the function under every name that refers to it in
    the package, so calls from one module into another are traced too.  The
    ``minimize`` the fitter imported from scipy becomes ``fitter.local_search``.
    Classes are left alone, so isinstance checks still hold.
    """
    package = importlib.import_module("cptlaws")
    modules = [importlib.import_module(f"cptlaws.{layer}") for layer in LAYERS]
    replacement = {}
    for layer, module in zip(LAYERS, modules):
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                span_name = f"{layer}.{name}"
                replacement[id(obj)] = rec.wrap(obj, span_name, _DESCRIBE.get(span_name))
    minimize = importlib.import_module("cptlaws.fitter").minimize
    replacement[id(minimize)] = rec.wrap(minimize, "fitter.local_search", _describe_local_search)
    for module in (package, *modules):
        for name, obj in list(vars(module).items()):
            if id(obj) in replacement:
                setattr(module, name, replacement[id(obj)])


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: its duration minus the time its child spans cover."""
    child_time: dict[str, float] = {}
    for doc in spans:
        if doc["parent"] is not None:
            child_time[doc["parent"]] = child_time.get(doc["parent"], 0.0) + doc["end"] - doc["start"]
    return {doc["id"]: doc["end"] - doc["start"] - child_time.get(doc["id"], 0.0) for doc in spans}


def subtree(spans: list[dict], root_id: str) -> list[dict]:
    """The span ``root_id`` and every span below it."""
    children: dict[str, list[dict]] = {}
    for doc in spans:
        children.setdefault(doc["parent"], []).append(doc)
    out, todo = [], [doc for doc in spans if doc["id"] == root_id]
    while todo:
        doc = todo.pop()
        out.append(doc)
        todo.extend(children.get(doc["id"], ()))
    return out


def per_span_cost(calls: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""

    def noop():
        return None

    wrapped = Recorder("cost").wrap(noop, "trace.noop")
    elapsed = []
    for fn in (noop, wrapped):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - start)
    return max(0.0, (elapsed[1] - elapsed[0]) / calls)
