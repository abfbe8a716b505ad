"""Outside-in layer tracing of the dispersive_jcm package.

The layers are the package's modules.  :class:`Tracer` replaces each
module's public functions (its ``__all__``), and the private ones another
module of the package calls by name, with wrappers that record a span:
name, layer, start, end and the span that was open when it started.
Spans are kept in memory and written out when the run ends.  Nothing is
wrapped until :meth:`Tracer.install` and everything is restored by
:meth:`Tracer.uninstall`; spans are recorded only inside :meth:`Tracer.op`.

A task that the package submits to a ``ThreadPoolExecutor`` while an op
is recorded runs under a span named ``pool.task`` on its worker thread.
It takes the layer of the span that submitted it, which is its parent, so
the work a worker does between traced calls (formatting CSV lines in the
``figures`` pool) counts for the submitting layer.

Calls of the right-hand side returned by ``oracle.build_generator`` run
thousands of times per op, so they are counted and timed, not spanned.
``oracle.evolve_trajectory`` is a generator: each resumption is one span,
and a resumption that yields a state is one emitted point.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

PACKAGE = "dispersive_jcm"
LAYERS = ("analytic", "lie", "oracle", "acceptance", "cli")
RHS_FACTORY = "oracle.build_generator"
TRAJECTORY = "oracle.evolve_trajectory"
POOL_TASK = "pool.task"


@dataclasses.dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = float("nan")
    thread: int = 0
    points: int = 0  # time points of an analytic call; 1 for a resumption that emitted a state


@dataclasses.dataclass
class Counts:
    rhs_evals: int = 0
    rhs_s: float = 0.0
    fock_levels: list = dataclasses.field(default_factory=list)


def traced_functions() -> dict[str, object]:
    """Qualified name -> function for every function a span is recorded around."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    pkg_dir = Path(modules["cli"].__file__).parent
    source = "\n".join(p.read_text() for p in sorted(pkg_dir.glob("*.py")))
    found = {}
    for layer, module in modules.items():
        private = set(re.findall(rf"\b{layer}\.(_[A-Za-z]\w*)", source))
        for name in sorted(set(getattr(module, "__all__", ())) | private):
            obj = getattr(module, name, None)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[f"{layer}.{name}"] = obj
    return found


def _time_argument(fn) -> str | None:
    params = inspect.signature(fn).parameters
    return next((name for name in ("t", "times") if name in params), None)


class Tracer:
    """Wraps the package's layer functions and records spans and counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counts()
        self.recording = False
        self.traced: set[str] = set()
        self._originals: dict[str, object] = {}
        self._submit = None
        self._local = threading.local()
        self._ids = itertools.count()

    # ------------------------------------------------------------ span stack

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str, points: int = 0, parent: Span | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else parent
        span = Span(next(self._ids), name, layer, parent.id if parent else None,
                    time.perf_counter(), thread=threading.get_ident(), points=points)
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def op(self):
        """Record spans while one op runs, under a root span of layer ``bench``."""
        root = self._open("op", "bench")
        self.recording = True
        try:
            yield root
        finally:
            self.recording = False
            self._close(root)

    # ------------------------------------------------------------ wrappers

    def install(self) -> None:
        self._submit = ThreadPoolExecutor.submit
        ThreadPoolExecutor.submit = self._wrap_submit(self._submit)
        for qualname, fn in traced_functions().items():
            layer, name = qualname.split(".", 1)
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            self._originals[qualname] = fn
            if inspect.isgeneratorfunction(fn):
                wrapper = self._wrap_generator(fn, qualname, layer)
            else:
                wrapper = self._wrap_function(fn, qualname, layer)
            setattr(module, name, wrapper)
            self.traced.add(qualname)

    def uninstall(self) -> None:
        if self._submit is not None:
            ThreadPoolExecutor.submit, self._submit = self._submit, None
        for qualname, fn in self._originals.items():
            layer, name = qualname.split(".", 1)
            setattr(importlib.import_module(f"{PACKAGE}.{layer}"), name, fn)
        self._originals.clear()

    def _wrap_submit(self, submit):
        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = self._stack()
            if not self.recording or not stack:
                return submit(pool, fn, *args, **kwargs)
            parent = stack[-1]

            def task(*args, **kwargs):
                span = self._open(POOL_TASK, parent.layer, parent=parent)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span)

            return submit(pool, task, *args, **kwargs)

        return traced_submit

    def _wrap_function(self, fn, qualname: str, layer: str):
        t_arg = _time_argument(fn)
        t_index = list(inspect.signature(fn).parameters).index(t_arg) if t_arg else None
        counts_rhs = qualname == RHS_FACTORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            points = 0
            if t_arg is not None:
                t = kwargs[t_arg] if t_arg in kwargs else args[t_index] if len(args) > t_index else None
                points = int(np.size(t)) if t is not None else 0
            span = self._open(qualname, layer, points)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            return self._count_rhs(result) if counts_rhs else result

        return wrapper

    def _count_rhs(self, rhs):
        counts = self.counts

        @functools.wraps(rhs)
        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return rhs(*args, **kwargs)
            finally:
                counts.rhs_s += time.perf_counter() - start
                counts.rhs_evals += 1

        return counted

    def _wrap_generator(self, fn, qualname: str, layer: str):
        notes_fock = qualname == TRAJECTORY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if notes_fock and self.recording:
                rho0 = kwargs["rho0"] if "rho0" in kwargs else args[1]
                self.counts.fock_levels.append(rho0.n_fock)
            gen = fn(*args, **kwargs)
            try:
                while True:
                    span = self._open(qualname, layer) if self.recording else None
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        if span is not None:
                            self._close(span)
                    if span is not None:
                        span.points = 1
                    yield item
            finally:
                gen.close()

        return wrapper


# ---------------------------------------------------------------- span arithmetic

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> seconds during which it was a leaf: open, with no open child.

    In one thread this is the span's duration minus the part of it that its
    children cover.  A span waiting on pool tasks has open children on other
    threads, so it is no leaf while they run.  Where several leaves are open
    at once (the figures pool), each instant is split equally among them, so
    the self times of an op's spans add up to the op's wall time.
    """
    events = sorted([(s.start, 0, s) for s in spans] + [(s.end, 1, s) for s in spans],
                    key=lambda e: e[:2])
    own = {s.id: 0.0 for s in spans}
    children = dict.fromkeys(own, 0)  # open children of each open span
    leaves: set[int] = set()
    last = None
    for t, closing, span in events:
        if leaves and t > last:
            for leaf in leaves:
                own[leaf] += (t - last) / len(leaves)
        last = t
        parent = span.parent if span.parent in children else None
        if closing:
            leaves.discard(span.id)
            del children[span.id]
            if parent is not None:
                children[parent] -= 1
                if not children[parent]:
                    leaves.add(parent)
        else:
            leaves.add(span.id)
            if parent is not None:
                children[parent] += 1
                leaves.discard(parent)
    return own


def outermost(spans: list[Span], member) -> list[Span]:
    """Spans satisfying *member* with no ancestor that also satisfies it."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if not member(s):
            continue
        p = by_id.get(s.parent)
        while p is not None and not member(p):
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


#: Per-layer time metrics: inclusive time of the outermost spans of these functions.
INCLUSIVE = {
    "lie.superop_s": ("lie.superop_rep",),
    "lie.commutator_s": ("lie.check_commutator_table",),
    "lie.disentangle_s": ("lie.check_diagonal_disentangling", "lie.check_offdiagonal_disentangling"),
    "lie.residual_s": ("lie.residual_diagonal", "lie.residual_offdiagonal"),
    **{f"acceptance.c{i}_s": (f"acceptance.criterion_{i}",) for i in range(1, 9)},
    "oracle.evolve_s": (TRAJECTORY,),
    "oracle.extract_s": ("oracle.observables", "oracle.partial_trace_field",
                         "oracle.partial_trace_atom", "oracle.embed_two_qubit",
                         "oracle.wootters_concurrence"),
}


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced pass from the recorded spans and counts.

    A metric whose functions no longer exist in the package is left out.
    """
    spans = [s for s in tracer.spans if s.end == s.end]  # closed spans only
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    op_s = sum(s.end - s.start for s in spans if s.layer == "bench")
    out: dict[str, tuple[float, str]] = {"trace.op_s": (op_s / passes, "s")}
    for layer in LAYERS:
        self_s = sum(own[s.id] for s in spans if s.layer == layer)
        out[f"{layer}.self_s"] = (self_s / passes, "s")
        out[f"{layer}.share"] = (100.0 * self_s / op_s if op_s else 0.0, "%")
    entries = [s for s in spans if s.layer == "analytic"
               and getattr(by_id.get(s.parent), "layer", None) != "analytic"]
    points = sum(s.points for s in entries)
    analytic_s = out["analytic.self_s"][0] * passes
    out["analytic.calls"] = (len(entries) / passes, "count")
    out["analytic.ns_per_point"] = (1e9 * analytic_s / points if points else 0.0, "ns")
    for metric, names in INCLUSIVE.items():
        present = [n for n in names if n in tracer.traced]
        if not present:
            continue
        group = outermost(spans, lambda s, present=present: s.name in present)
        out[metric] = (sum(s.end - s.start for s in group) / passes, "s")
    if TRAJECTORY in tracer.traced:
        emitted = sum(s.points for s in spans if s.name == TRAJECTORY)
        out["oracle.points_emitted"] = (emitted / passes, "count")
        levels = tracer.counts.fock_levels
        out["oracle.fock_levels"] = (sum(levels) / len(levels) if levels else 0.0, "count")
    if RHS_FACTORY in tracer.traced:
        evals = tracer.counts.rhs_evals
        out["oracle.rhs_evals"] = (evals / passes, "count")
        out["oracle.rhs_us"] = (1e6 * tracer.counts.rhs_s / evals if evals else 0.0, "us")
    return out


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per line with the fields of :class:`Span`."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(dataclasses.asdict(s)) + "\n")
