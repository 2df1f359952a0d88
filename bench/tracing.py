"""Per-layer tracing from outside the package: spans, counters, wrappers.

``Instrumentation`` swaps the public entry points of each ``rashenum``
module for wrappers that open a span (or bump a counter) around the call,
and restores every original on exit. A function is replaced wherever a
``rashenum`` module binds it, because modules import each other's names
with ``from .x import f``: patching ``rashenum.depth2.compute_counts``
alone would miss the copy ``rashenum.optdp`` calls.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Nested spans aggregated per name, plus plain counters.

    A span's self time is its duration minus the durations of its direct
    child spans. Inclusive time counts only outermost spans of a name, so a
    recursive function is not counted twice.
    """

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.peaks = Counter()
        self._stack = []      # [name, start, seconds covered by children]
        self._open = Counter()

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] += 1

    def exit(self):
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if not self._open[name]:
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][2] += duration

    def peak(self, name, value):
        self.peaks[name] = max(self.peaks[name], value)


def _span(tracer, name, fn, items=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if items is not None:
            tracer.counts[items] += len(out)
        return out
    return wrapper


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _traced_iter(tracer, name, items, it):
    while True:
        tracer.enter(name)
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.exit()
        tracer.counts[items] += 1
        yield item


def _lazy_span(tracer, name, fn, items):
    """Span every step of a lazy iterator; count the items it yields."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _traced_iter(tracer, name, items, iter(fn(*args, **kwargs)))
    return wrapper


def _registering_init(registry, tracer, init):
    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        tracer.counts["engine.enumerations"] += 1
        registry.append(self)
        return init(self, *args, **kwargs)
    return wrapper


class Instrumentation:
    """Context manager: wrap the entry points, record into ``tracer``.

    Every enumeration constructed while active is kept in ``enumerations``
    until ``harvest`` reads its engine and solver state and drops it.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.enumerations = []
        self._undo = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _everywhere(self, original, wrapper):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "rashenum" or name.startswith("rashenum."))]
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"{original.__qualname__} is bound nowhere")

    def _method(self, cls, attr, make):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append((cls, attr, original))

    def _install(self):
        import rashenum
        from rashenum import analysis, dataset, depth2, engine, groups
        from rashenum import optdp, posteval

        t = self.tracer
        for module, fn in ((dataset, "load_dataset"),
                           (depth2, "compute_counts"),
                           (depth2, "depth2_optimal"),
                           (groups, "count_trees"),
                           (posteval, "pareto_front"),
                           (posteval, "batched_constrained_search"),
                           (analysis, "find_min_multiplier"),
                           (analysis, "lofo_importance")):
            original = getattr(module, fn)
            layer = module.__name__.rsplit(".", 1)[1]
            self._everywhere(original, _span(t, f"{layer}.{fn}", original))
        original = depth2.generate_depth2
        self._everywhere(original, _span(t, "depth2.generate_depth2", original,
                                         items="depth2.generate_depth2.items"))
        for fn in (dataset.split, dataset.fingerprint):
            name = f"dataset.{fn.__name__}.calls"
            self._everywhere(fn, _counted(t, name, fn))
        for original, name, items in (
                (groups.materialize, "groups.materialize",
                 "groups.materialize.trees"),
                (posteval.evaluate_secondary, "posteval.evaluate_secondary",
                 "posteval.evaluate_secondary.records")):
            self._everywhere(original,
                             _lazy_span(t, name, original, items))
        for cls, attr, name in (
                (optdp.OptimalSolver, "solve", "optdp.solve"),
                (engine.SearchNode, "get_nth", "engine.get_nth"),
                (engine.BranchHelper, "pop_and_explore",
                 "engine.pop_and_explore")):
            self._method(cls, attr, functools.partial(_span, t, name))
        self._method(
            rashenum.RashomonEnumeration, "__init__",
            functools.partial(_registering_init, self.enumerations, t))

    def harvest(self):
        """Fold the state of every recorded enumeration into the tracer."""
        t = self.tracer
        for enum in self.enumerations:
            eng = enum.engine
            t.counts["engine.nodes_created"] += eng.stats["nodes_created"]
            t.counts["engine.node_cache_hits"] += eng.stats["cache_hits"]
            solver = eng.solver
            t.counts["optdp.solves"] += solver.stats["solves"]
            t.counts["optdp.cache_hits"] += solver.stats["cache_hits"]
            t.peak("optdp.counts_cache.entries", len(solver.counts_cache))
            t.peak("optdp.counts_cache.bytes", sum(
                a.nbytes for c in solver.counts_cache.values()
                for a in vars(c).values() if isinstance(a, np.ndarray)))
            nodes = list(eng.node_cache.values())
            generated = [n for n in nodes if n._pool is not None]
            held = sum(len(g.entries) for n in generated for g in n.ssl)
            t.counts["depth2.nodes"] += len(generated)
            t.counts["depth2.entries_emitted"] += held
            t.peak("depth2.entries_held", held)
            for node in nodes:
                for helper in node._branches or ():
                    t.counts["engine.pairs_visited"] += len(helper.visited)
                    t.counts["engine.pairs_blocked"] += len(helper.blocked)
        self.enumerations.clear()


# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("dataset.load_dataset.s", "s"),
    ("dataset.split.calls", "count"),
    ("dataset.fingerprint.calls", "count"),
    ("optdp.solve.calls", "count"),
    ("optdp.solve.self_s", "s"),
    ("optdp.solves", "count"),
    ("optdp.cache_hits", "count"),
    ("optdp.counts_cache.entries", "count"),
    ("optdp.counts_cache.bytes", "B"),
    ("depth2.compute_counts.calls", "count"),
    ("depth2.compute_counts.s", "s"),
    ("depth2.depth2_optimal.calls", "count"),
    ("depth2.depth2_optimal.s", "s"),
    ("depth2.generate_depth2.calls", "count"),
    ("depth2.generate_depth2.s", "s"),
    ("depth2.generate_depth2.items", "count"),
    ("depth2.entries_held", "count"),
    ("depth2.rounds_per_node", "ratio"),
    ("depth2.emitted_share", "ratio"),
    ("engine.nodes_created", "count"),
    ("engine.node_cache_hits", "count"),
    ("engine.get_nth.self_s", "s"),
    ("engine.pop_and_explore.calls", "count"),
    ("engine.pop_and_explore.self_s", "s"),
    ("engine.pairs_visited", "count"),
    ("engine.pairs_blocked", "count"),
    ("engine.enumerations", "count"),
    ("groups.count_trees.calls", "count"),
    ("groups.count_trees.s", "s"),
    ("groups.materialize.trees", "count"),
    ("groups.materialize.s", "s"),
    ("posteval.evaluate_secondary.s", "s"),
    ("posteval.evaluate_secondary.records", "count"),
    ("posteval.pareto_front.s", "s"),
    ("posteval.batched_constrained_search.s", "s"),
    ("analysis.find_min_multiplier.calls", "count"),
    ("analysis.find_min_multiplier.s", "s"),
    ("analysis.lofo_importance.s", "s"),
    ("trace.overhead", "ratio"),
)

# spans and counters every workload must record at least once
REQUIRED = (
    "dataset.load_dataset", "depth2.compute_counts", "depth2.depth2_optimal",
    "depth2.generate_depth2", "groups.count_trees", "groups.materialize",
    "optdp.solve", "engine.get_nth", "engine.pop_and_explore",
    "posteval.evaluate_secondary", "posteval.pareto_front",
    "posteval.batched_constrained_search", "analysis.find_min_multiplier",
    "analysis.lofo_importance", "dataset.split.calls",
    "dataset.fingerprint.calls", "engine.enumerations",
)


def check_fired(tracer, required=REQUIRED):
    """Raise when a wrapped entry point that must fire recorded nothing."""
    silent = [n for n in required
              if not tracer.calls[n] and not tracer.counts[n]]
    if silent:
        raise RuntimeError("traced entry points recorded no calls: "
                           + ", ".join(silent))


def layer_values(tracer, overhead):
    """Per-layer metric values from one traced pass."""
    t = tracer
    nodes = t.counts["depth2.nodes"]
    items = t.counts["depth2.generate_depth2.items"]
    values = {
        "dataset.load_dataset.s": t.inclusive["dataset.load_dataset"],
        "dataset.split.calls": t.counts["dataset.split.calls"],
        "dataset.fingerprint.calls": t.counts["dataset.fingerprint.calls"],
        "optdp.solve.calls": t.calls["optdp.solve"],
        "optdp.solve.self_s": t.self_time["optdp.solve"],
        "engine.get_nth.self_s": t.self_time["engine.get_nth"],
        "engine.pop_and_explore.calls": t.calls["engine.pop_and_explore"],
        "engine.pop_and_explore.self_s": t.self_time["engine.pop_and_explore"],
        "depth2.rounds_per_node":
            t.calls["depth2.generate_depth2"] / nodes if nodes else 0.0,
        "depth2.emitted_share":
            t.counts["depth2.entries_emitted"] / items if items else 0.0,
        "trace.overhead": overhead,
    }
    for name in ("depth2.compute_counts", "depth2.depth2_optimal",
                 "depth2.generate_depth2", "groups.count_trees",
                 "analysis.find_min_multiplier"):
        values[f"{name}.calls"] = t.calls[name]
        values[f"{name}.s"] = t.inclusive[name]
    for name in ("groups.materialize", "posteval.evaluate_secondary",
                 "posteval.pareto_front",
                 "posteval.batched_constrained_search",
                 "analysis.lofo_importance"):
        values[f"{name}.s"] = t.inclusive[name]
    for name in ("optdp.solves", "optdp.cache_hits", "engine.nodes_created",
                 "engine.node_cache_hits", "engine.pairs_visited",
                 "engine.pairs_blocked", "engine.enumerations",
                 "depth2.generate_depth2.items", "groups.materialize.trees",
                 "posteval.evaluate_secondary.records"):
        values[name] = t.counts[name]
    for name in ("optdp.counts_cache.entries", "optdp.counts_cache.bytes",
                 "depth2.entries_held"):
        values[name] = t.peaks[name]
    return {name: values[name] for name, _ in LAYER_METRICS}
