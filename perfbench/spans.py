"""In-memory span recording around fixedgp's layers.

Spans are recorded by replacing, for the length of a ``with`` block, the
names the package resolves at call time (a module global such as
``fixedgp.experiments.rwm_chain`` or a class attribute such as
``GammaPrior.logpdf``) with timing wrappers. Nothing inside the package is
edited, and every name is restored on exit. A target whose name no longer
exists is skipped and listed, so a refactor never breaks the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``attr`` in ``module`` (``"Class.method"`` for a
    class attribute), recorded as spans called ``layer``."""

    layer: str
    module: str
    attr: str
    failure: str | None = None      # "module:ExceptionName" counted as a failure
    replication: bool = False       # each call starts a new replication id


class Tracer:
    """Spans with name, start, end, parent span and replication id, kept in
    flat arrays so that hundreds of thousands of them stay small."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failures: dict[str, int] = {}
        self.rep_id = -1
        self._stack: list[int] = []

    def _intern(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rep.append(self.rep_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[sid] = t0
        self.end[sid] = t1

    @contextlib.contextmanager
    def span(self, layer: str):
        sid = self._open(self._intern(layer))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, t0, time.perf_counter())

    def wrap(self, fn, layer: str, failure: type | tuple = (), replication: bool = False,
             on_result=None):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._intern(layer)
        perf = time.perf_counter
        self.failures.setdefault(layer, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if replication:
                self.rep_id += 1
            sid = self._open(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except failure:
                self.failures[layer] += 1
                raise
            finally:
                self._close(sid, t0, perf())
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).astype(np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.intc).astype(np.int32),
            "rep": np.frombuffer(self.rep, dtype=np.intc).astype(np.int32),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
        }

    def self_times(self) -> dict:
        """Per layer: (calls, total self seconds, array of span durations).
        A span's self time is its duration minus its direct children's."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, layer in enumerate(self.layers):
            mask = a["name_id"] == nid
            out[layer] = (int(mask.sum()), float(own[mask].sum()), dur[mask])
        return out

    def save(self, path) -> None:
        np.savez(path, layers=np.array(self.layers), **self.arrays())


def _resolve(target: Target):
    """(owner object, attribute name) for a target, or None if it is gone."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _exception(spec: str | None):
    if spec is None:
        return ()
    module, name = spec.split(":")
    exc = getattr(importlib.import_module(module), name, None)
    return exc if isinstance(exc, type) and issubclass(exc, BaseException) else ()


def find_missing(targets) -> list[str]:
    """Targets whose names do not resolve, as ``module.attr`` strings."""
    return [f"{t.module}.{t.attr}" for t in targets if _resolve(t) is None]


@contextlib.contextmanager
def installed(tracer: Tracer, targets, on_result=None):
    """Wrap every resolvable target for the duration of the block.

    ``on_result`` maps a layer name to a callback that receives each result
    of that layer, called after its span is closed.
    """
    on_result = on_result or {}
    saved = []
    try:
        for t in targets:
            where = _resolve(t)
            if where is None:
                continue
            owner, name = where
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(
                original, t.layer, failure=_exception(t.failure),
                replication=t.replication, on_result=on_result.get(t.layer),
            ))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
