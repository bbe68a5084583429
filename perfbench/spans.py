"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `instrument` replaces the public
functions of the traced thinlayer modules, wherever a thinlayer module holds
them (so `from .geometry import build_patch` in `cli` is traced too), with
wrappers that record a span around each call. `scipy.sparse.linalg.splu` is
replaced by a proxy that records factorizations, fill and triangular solves.

Each thread keeps its own stack of open spans. A span that opens on a worker
thread with an empty stack takes as parent the innermost open span of the
thread that created the tracer, because that is the span that submitted the
work (the sweep rows of `run_sweep` run on a thread pool).
"""
from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass

TRACED_MODULES = ("geometry", "magnetics", "operators", "eigensolve", "convergence", "cli")


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    start: float
    end: float = float("nan")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap one another; the covered part is
    the union of their intervals, so parallel children are not counted twice.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - union_length(kids, s.start, s.end)
        for s, kids in zip(spans, children)
    ]


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Calls, total and self seconds per span name."""
    out: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        agg = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s.end - s.start
        agg["self_s"] += own
    return out


class Tracer:
    """In-memory spans, counts and peaks; thread-safe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}  # summed over calls
        self.peaks: dict[str, float] = {}  # largest over calls
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            self.spans.append(Span(name, parent, time.monotonic()))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.monotonic()
        self._stack().pop()

    def add(self, name: str, value: float):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float):
        with self._lock:
            self.peaks[name] = max(self.peaks.get(name, value), value)

    def wrap(self, name: str, fn, after=None):
        """fn with a span named `name` around each call; after(result) runs
        inside the span, for counters read off the result."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                self.close(idx)

        return traced


class _LUProxy:
    """A SuperLU factorization that counts its solves."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.add("eigensolve.lu_solves", 1)
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_splu(tracer: Tracer, splu):
    @functools.wraps(splu)
    def factorize(A, *args, **kwargs):
        idx = tracer.open("eigensolve.factorize")
        try:
            lu = splu(A, *args, **kwargs)
        finally:
            tracer.close(idx)
        # SuperLU.nnz counts the stored (supernodal) entries of L and U.
        tracer.add("eigensolve.factorizations", 1)
        tracer.peak("eigensolve.lu_nnz", lu.nnz)
        tracer.peak("eigensolve.lu_fill", lu.nnz / max(A.nnz, 1))
        tracer.peak("eigensolve.lu_bytes_computed", lu.nnz * (A.dtype.itemsize + 4))
        return _LUProxy(lu, tracer)

    return factorize


def _result_counters(tracer: Tracer) -> dict:
    """Counters read off the results of particular public functions."""

    def patch_nodes(patch):
        tracer.peak("geometry.n_nodes", patch.n_nodes)

    def operator_size(op):
        tracer.peak("operators.n_dof", op.n_dof)
        tracer.peak("operators.nnz", op.matrix.nnz)

    def spectrum(spec):
        tracer.add("eigensolve.retries", spec.meta.get("retries", 0))
        tracer.peak("eigensolve.max_residual", float(max(spec.residuals)))

    def opnorm(est):
        tracer.add("convergence.opnorm_iterations", est.iterations)

    def sweep(report):
        tracer.add("convergence.rows", len(report.rows))
        tracer.add(
            "convergence.flagged_rows",
            sum(1 for r in report.rows if r.flags or r.skipped),
        )

    return {
        "geometry.build_patch": patch_nodes,
        "operators.assemble_full": operator_size,
        "operators.assemble_effective": operator_size,
        "operators.renormalize": operator_size,
        "eigensolve.lowest_eigenpairs": spectrum,
        "eigensolve.opnorm_estimate": opnorm,
        "convergence.run_sweep": sweep,
    }


def instrument(tracer: Tracer, package):
    """Wrap the public functions of the traced modules and `config.load_config`
    in every thinlayer module that holds them."""
    import scipy.sparse.linalg as spla

    spla.splu = _traced_splu(tracer, spla.splu)
    modules = {
        name: mod
        for name, mod in inspect.getmembers(package, inspect.ismodule)
        if mod.__name__.startswith(package.__name__ + ".")
    }
    targets = [(modules["config"], "load_config")]
    for short in TRACED_MODULES:
        mod = modules[short]
        targets += [
            (mod, name)
            for name, fn in vars(mod).items()
            if inspect.isfunction(fn)
            and not name.startswith("_")
            and fn.__module__ == mod.__name__
        ]
    after = _result_counters(tracer)
    holders = [package, *modules.values()]
    for mod, name in targets:
        original = getattr(mod, name)
        span = f"{mod.__name__.rsplit('.', 1)[-1]}.{name}"
        wrapped = tracer.wrap(span, original, after.get(span))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, wrapped)
