"""Span tracer for the benchmark's traced runs.

The tracer wraps names of ``scaling_lens`` from outside the package
(public ones, and the private trial runner ``peeling._run_trials``):
each call through a wrapped name records a span (name, start, end,
parent span, thread, run id) or bumps a counter.  A wrapper is installed
wherever the original object is bound among the loaded ``scaling_lens``
modules, since callers look names up in their own module at run time
(``optimizer`` calls its imported ``find_threshold``, for example).  A
target that no longer exists is skipped, so its layer reads 0.

Spans stay in memory; the caller writes them out when the run ends.  A
span's self time is its duration minus the union of its children's
intervals.  Spans opened on a worker thread with nothing open on that
thread take the caller's innermost open span as parent.  Each
Monte-Carlo trial gets a ``peeling.mc`` span of its own, on whichever
thread runs it, so with a thread pool ``peeling.mc.self_s`` is busy
time summed over the workers (sampling and counter setup in the trials)
plus the caller's time outside any trial, never the caller's wait.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

ROOT_SPAN = "pass"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run_id: str
    start: float
    thread: int = 0
    end: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._caller_stack: list[Span] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if not self.spans:
            # the first span is the root; its thread is the caller
            self._caller_stack = stack
        opener = stack or self._caller_stack
        parent = opener[-1].id if opener else None
        with self._lock:
            span = Span(next(self._ids), parent, name, self.run_id, 0.0, threading.get_ident())
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part covered by child spans."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        return {
            s.id: s.duration - _covered(children[s.id], s.start, s.end)
            for s in self.spans
        }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = lo
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if a > cur_hi:
            total += cur_hi - cur_lo
            cur_lo = a
        cur_hi = max(cur_hi, b)
    return total + cur_hi - cur_lo


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``attr`` is ``func`` or ``Class.method`` in ``module``.

    ``span`` names the recorded span; ``count_only`` bumps a
    ``<span>.calls`` counter instead (for names called ~1e5 times per
    pass, where a span per call would swamp the measurement).
    ``work`` maps the call's positional arguments to an amount added to
    the ``<span>.work`` counter.  ``per_item`` spans, instead of the call
    itself, each call of its first argument, a function the call applies
    once per item (one Monte-Carlo trial, possibly on a pool thread).
    """

    span: str
    module: str
    attr: str
    count_only: bool = False
    work: Callable[[tuple], int] | None = None
    per_item: bool = False


def _kernel_edges(args) -> int:
    # peel_kernel(rev_indptr, rev_indices, cnt, ssum, learned, stack)
    return len(args[1]) if len(args) > 1 else 0


TARGETS = (
    Target("threshold.find_threshold", "scaling_lens.threshold", "find_threshold"),
    Target("threshold.de_bit_erasure", "scaling_lens.threshold", "de_bit_erasure"),
    Target("degree.gen", "scaling_lens.degree", "DegreeModel.gen", count_only=True),
    Target("optimizer.optimize_budget", "scaling_lens.optimizer", "optimize_budget"),
    Target("loss.loss_point", "scaling_lens.loss", "loss_point"),
    Target("emergence.accuracy_vs_compute", "scaling_lens.emergence", "accuracy_vs_compute"),
    Target("emergence.level_recursion", "scaling_lens.emergence", "level_recursion"),
    Target("peeling.mc", "scaling_lens.peeling", "mc_parent_graph_erasure"),
    Target("peeling.mc", "scaling_lens.peeling", "mc_expected_learned"),
    Target("peeling.mc", "scaling_lens.peeling", "_run_trials", per_item=True),
    Target("peeling.sample_graph", "scaling_lens.peeling", "sample_graph"),
    Target("peeling.reverse_csr", "scaling_lens.peeling", "BipartiteGraph.reverse_csr"),
    Target("peeling.peel", "scaling_lens.peeling", "peel"),
    Target("kernel.peel_kernel", "scaling_lens._peel_py", "peel_kernel", work=_kernel_edges),
    Target("kernel.peel_kernel", "scaling_lens._peel", "peel_kernel", work=_kernel_edges),
)


def _wrap(tracer: Tracer, target: Target, fn):
    if target.count_only:
        calls = target.span + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add(calls)
            return fn(*args, **kwargs)

        return counted

    if target.per_item:

        @functools.wraps(fn)
        def per_item(*args, **kwargs):
            if args and callable(args[0]):
                item_fn = args[0]

                def traced_item(*item_args, **item_kwargs):
                    with tracer.span(target.span):
                        return item_fn(*item_args, **item_kwargs)

                args = (traced_item, *args[1:])
            return fn(*args, **kwargs)

        return per_item

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if target.work is not None:
            tracer.add(target.span + ".work", target.work(args))
        with tracer.span(target.span):
            return fn(*args, **kwargs)

    return traced


def _bindings(target: Target):
    """(owner, name, original) for every binding of the target, or []."""
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return []
    owner_name, _, name = target.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        original = getattr(owner, "__dict__", {}).get(name)
        return [] if original is None else [(owner, name, original)]
    original = getattr(module, name, None)
    if original is None:
        return []
    return [
        (mod, name, original)
        for mod_name, mod in list(sys.modules.items())
        if (mod_name == "scaling_lens" or mod_name.startswith("scaling_lens."))
        and getattr(mod, name, None) is original
    ]


@contextmanager
def instrumented(tracer: Tracer, targets=TARGETS):
    """Install the wrappers for the duration of the block, then restore."""
    patches = []
    try:
        for target in targets:
            for owner, name, original in _bindings(target):
                setattr(owner, name, _wrap(tracer, target, original))
                patches.append((owner, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# per-layer metrics of one traced pass: (name, unit, better)
PER_LAYER = (
    ("threshold.find_threshold.calls", "count", "lower"),
    ("threshold.find_threshold.s", "s", "lower"),
    ("threshold.find_threshold.us_per_call", "us", "lower"),
    ("threshold.de_bit_erasure.calls", "count", "lower"),
    ("threshold.de_bit_erasure.s", "s", "lower"),
    ("threshold.errors", "count", "lower"),
    ("degree.gen.calls", "count", "lower"),
    ("optimizer.optimize_budget.s", "s", "lower"),
    ("optimizer.optimize_budget.self_s", "s", "lower"),
    ("optimizer.solves_per_budget", "count/budget", "lower"),
    ("loss.loss_point.s", "s", "lower"),
    ("emergence.accuracy_vs_compute.self_s", "s", "lower"),
    ("emergence.level_recursion.calls", "count", "lower"),
    ("peeling.mc.self_s", "s", "lower"),
    ("peeling.sample_graph.s", "s", "lower"),
    ("peeling.reverse_csr.calls", "count", "lower"),
    ("peeling.reverse_csr.s", "s", "lower"),
    ("peeling.peel.self_s", "s", "lower"),
    ("kernel.peel_kernel.calls", "count", "lower"),
    ("kernel.peel_kernel.s", "s", "lower"),
    ("kernel.edges", "count", "lower"),
    ("kernel.edges_per_s", "edges/s", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


# the metrics of one traced pass; a run reports the median of each over
# its traced passes, and ``trace.overhead_s`` as its median traced minus
# its median untraced pass wall time
LAYER_MEDIANS = tuple(name for name, _, _ in PER_LAYER if name != "trace.overhead_s")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed as in LAYER_MEDIANS."""
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    self_t = tracer.self_times()
    parents = {s.id: s for s in tracer.spans}

    def calls(name):
        return float(len(by_name[name]))

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_s(name):
        return sum(self_t[s.id] for s in by_name[name])

    def inside(span, name):
        while span.parent is not None:
            span = parents[span.parent]
            if span.name == name:
                return True
        return False

    solves = sum(
        inside(s, "optimizer.optimize_budget")
        for s in by_name["threshold.find_threshold"]
    )
    budgets = calls("optimizer.optimize_budget")
    ft_calls, ft_s = calls("threshold.find_threshold"), busy("threshold.find_threshold")
    edges = tracer.counts["kernel.peel_kernel.work"]
    kernel_s = busy("kernel.peel_kernel")
    wall = by_name[ROOT_SPAN][0].duration
    return {
        "threshold.find_threshold.calls": ft_calls,
        "threshold.find_threshold.s": ft_s,
        "threshold.find_threshold.us_per_call": 1e6 * ft_s / ft_calls if ft_calls else 0.0,
        "threshold.de_bit_erasure.calls": calls("threshold.de_bit_erasure"),
        "threshold.de_bit_erasure.s": busy("threshold.de_bit_erasure"),
        "threshold.errors": float(
            sum(s.error for s in tracer.spans if s.name.startswith("threshold."))
        ),
        "degree.gen.calls": tracer.counts["degree.gen.calls"],
        "optimizer.optimize_budget.s": busy("optimizer.optimize_budget"),
        "optimizer.optimize_budget.self_s": self_s("optimizer.optimize_budget"),
        "optimizer.solves_per_budget": solves / budgets if budgets else 0.0,
        "loss.loss_point.s": busy("loss.loss_point"),
        "emergence.accuracy_vs_compute.self_s": self_s("emergence.accuracy_vs_compute"),
        "emergence.level_recursion.calls": calls("emergence.level_recursion"),
        "peeling.mc.self_s": self_s("peeling.mc"),
        "peeling.sample_graph.s": busy("peeling.sample_graph"),
        "peeling.reverse_csr.calls": calls("peeling.reverse_csr"),
        "peeling.reverse_csr.s": busy("peeling.reverse_csr"),
        "peeling.peel.self_s": self_s("peeling.peel"),
        "kernel.peel_kernel.calls": calls("kernel.peel_kernel"),
        "kernel.peel_kernel.s": kernel_s,
        "kernel.edges": edges,
        "kernel.edges_per_s": edges / kernel_s if kernel_s else 0.0,
        "trace.wall_s": wall,
    }
