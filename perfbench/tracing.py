"""Spans around the objects the benchmark hands to the solvers.

The tracer wraps a problem's ``a_map`` (operators layer), its
``ProxFunction`` (prox layer) and a VI operator's ``evaluate`` (ppa layer).
Each call becomes a span (layer, start, end, parent, cell) kept in compact
in-memory arrays; ``save`` writes them out once the run is over. The
solvers themselves are not modified.
"""

import time
from array import array
from dataclasses import replace

import numpy as np

import hoprox as hp

CELL = "cell"
LAYERS = (CELL, "operators.apply", "operators.adjoint", "prox.prox", "prox.value", "ppa.evaluate")
_INDEX = {name: i for i, name in enumerate(LAYERS)}


class _TracedMap:
    """A linear map whose apply/adjoint calls are recorded as spans."""

    def __init__(self, inner, tracer):
        self.shape = inner.shape
        self.norm_estimate = inner.norm_estimate
        self.apply = tracer.timed(inner.apply, "operators.apply")
        self.adjoint = tracer.timed(inner.adjoint, "operators.adjoint")


class Tracer:
    def __init__(self):
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self._open = -1
        self._cell_id = -1

    def timed(self, fn, layer: str):
        idx = _INDEX[layer]
        clock = time.perf_counter

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            t1 = clock()
            self.layer.append(idx)
            self.start.append(t0)
            self.end.append(t1)
            self.parent.append(self._open)
            self.cell.append(self._cell_id)
            return out

        return traced

    def wrap(self, problem):
        """The traced stand-in for a CompositeProblem or MonotoneOperator."""
        if isinstance(problem, hp.MonotoneOperator):
            return replace(problem, evaluate=self.timed(problem.evaluate, "ppa.evaluate"))
        f = hp.ProxFunction(
            value=self.timed(problem.f.value, "prox.value"),
            prox=self.timed(problem.f.prox, "prox.prox"),
        )
        return replace(problem, f=f, a_map=_TracedMap(problem.a_map, self))

    def run_cell(self, cell_id: int, fn):
        """Call ``fn()`` inside a cell span; return (result, per-layer summary)."""
        first = len(self.layer)
        self.layer.append(_INDEX[CELL])
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(-1)
        self.cell.append(cell_id)
        self._open, self._cell_id = first, cell_id
        try:
            self.start[first] = time.perf_counter()
            result = fn()
            self.end[first] = time.perf_counter()
        finally:
            self._open, self._cell_id = -1, -1
        return result, self.summary(first, len(self.layer))

    def summary(self, lo: int, hi: int) -> dict:
        """Calls and busy milliseconds per layer for spans ``lo:hi``."""
        layer = np.frombuffer(self.layer, dtype=np.int8)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        calls = np.bincount(layer, minlength=len(LAYERS))
        busy = np.bincount(layer, weights=dur, minlength=len(LAYERS)) * 1e3
        return {name: (int(calls[i]), float(busy[i])) for i, name in enumerate(LAYERS)}

    def save(self, path, cell_names) -> None:
        np.savez_compressed(
            path,
            layers=np.array(LAYERS),
            cell_names=np.array(cell_names),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            cell=np.frombuffer(self.cell, dtype=np.int32),
        )
