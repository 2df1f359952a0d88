"""Best-first Rashomon set enumeration over a search tree of subproblems.

Each search node owns a sorted list of solution groups for one (sample
subset, depth budget) subproblem and builds it one way: a leaf helper plus
one branch helper per root feature, each merging its two children's sorted
lists lazily (a heap frontier over index pairs). A deeper node's children
are search nodes; a depth <= 2 node's children are its root's two side
lists, slices of the view's depth-two side table (``depth2.generate_depth2``)
sorted when first opened and grouped by value on demand, so its two- and
three-split trees are pairs of side groups. Nodes are shared through a
cache keyed by the sample subset, carrying the maximum upper bound seen
among sharers.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .dataset import fingerprint, split, split_side
from .depth2 import generate_depth2, table_leaf
from .groups import (BranchEntry, LeafEntry, Pair, SideGroup, SolutionGroup,
                     count_trees)
from .objective import (ObjectiveConfig, leaf_cost, rashomon_bound,
                        total_cost, value_le, values_equal)
from .optdp import OptimalSolver

DEFAULT_EPSILON = 1e6


class LeafHelper:
    __slots__ = ("value", "prediction", "alternatives", "consumed")

    def __init__(self, value, prediction, alternatives):
        self.value = value
        self.prediction = prediction
        self.alternatives = alternatives
        self.consumed = False

    def next_value(self):
        return math.inf if self.consumed else self.value


class BranchHelper:
    """Lazy sorted merger of the Cartesian sums of two child solution lists.

    The candidates queue holds (value, lindex, rindex) frontier entries;
    visited pairs are never combined twice. Pairs that could not be combined
    because a child was exhausted under its bound are parked in ``blocked``
    and re-probed when the bound rises, unless both children are ``fixed``
    lists that no bound extends.
    """

    def __init__(self, feature, left_opt, right_opt, make_left, make_right,
                 lam, tol, fixed=False):
        self.feature = feature
        self.left_opt = left_opt
        self.right_opt = right_opt
        self._make_left = make_left
        self._make_right = make_right
        self.lam = lam
        self.tol = tol
        self.fixed = fixed
        self.left_node = None
        self.right_node = None
        self.cq = [(left_opt + right_opt + lam, 0, 0)]
        self.visited = {(0, 0)}
        self.blocked = set()

    def next_value(self):
        return self.cq[0][0] if self.cq else math.inf

    def _child(self, side):
        if side == 0:
            if self.left_node is None:
                self.left_node = self._make_left()
            return self.left_node
        if self.right_node is None:
            self.right_node = self._make_right()
        return self.right_node

    def get_group(self, side, index):
        return self._child(side).get_nth(index)

    def pop_and_explore(self):
        """Pop the equal-valued frontier and expand it (one solution group).

        Returns (value, index pairs of all solutions at that value).
        """
        nxt = self.cq[0][0]
        seeds = []
        while self.cq and values_equal(self.cq[0][0], nxt, self.tol):
            seeds.append(heapq.heappop(self.cq))
        same_pairs = [(l, r) for _, l, r in seeds]
        work = list(same_pairs)
        while work:
            l, r = work.pop()
            for li, ri in ((l + 1, r), (l, r + 1)):
                if (li, ri) in self.visited:
                    continue
                gl = self.get_group(0, li)
                gr = None if gl is None else self.get_group(1, ri)
                if gr is None:
                    # past the end of a fixed list the pair never combines
                    (self.visited if self.fixed else self.blocked).add(
                        (li, ri))
                    continue
                self.visited.add((li, ri))
                v = gl.value + gr.value + self.lam
                if values_equal(v, nxt, self.tol):
                    same_pairs.append((li, ri))
                    work.append((li, ri))
                else:
                    heapq.heappush(self.cq, (v, li, ri))
        return nxt, same_pairs

    def on_parent_raised(self, parent_ub):
        if self.left_node is not None:
            self.left_node.raise_ub(parent_ub - self.right_opt - self.lam)
        if self.right_node is not None:
            self.right_node.raise_ub(parent_ub - self.left_opt - self.lam)
        for li, ri in sorted(self.blocked):
            gl = self.get_group(0, li)
            if gl is None:
                continue
            gr = self.get_group(1, ri)
            if gr is None:
                continue
            self.blocked.discard((li, ri))
            self.visited.add((li, ri))
            heapq.heappush(self.cq, (gl.value + gr.value + self.lam, li, ri))


class SideNode:
    """One side of a depth <= 2 node's root split: its side list (a
    ``depth2.SideList``, a sorted slice of the view's side table) grouped
    by value.

    Opened when a branch helper first reads the side; groups are built only
    up to the index asked for, and the list is dropped once all are built.
    Its list is fixed, so raising its bound changes nothing.
    """

    def __init__(self, view, side, tol):
        self.view = view
        self.tol = tol
        self.ssl = []
        self._values, self._make = side.open()
        self._next = 0              # the first item not yet grouped

    def get_nth(self, index):
        ssl = self.ssl
        while len(ssl) <= index and self._values:
            values, tol = self._values, self.tol
            start = end = self._next
            value = values[start]
            while end < len(values) and abs(value - values[end]) <= tol:
                end += 1            # objective.values_equal, inlined
            ssl.append(SideGroup(value, self._make(start, end), self.view))
            self._next = end
            if end == len(values):
                self._values = self._make = None
        return ssl[index] if index < len(ssl) else None

    def raise_ub(self, new_ub):
        pass


class SearchNode:
    """Per-subproblem enumeration state: sorted solution list plus helpers."""

    def __init__(self, engine, view, depth, ub):
        self.engine = engine
        self.view = view
        self.depth = depth
        self.ub = ub
        self.ssl = []
        self._leaf = None
        self._branches = None
        self._pool = None   # generate_depth2's side lists (count-table nodes)
        engine.stats["nodes_created"] += 1

    # -- public ----------------------------------------------------------

    def get_nth(self, index):
        """Return the index-th solution group, fully closed, or None.

        A group is exposed only once a strictly greater group follows it or
        the node is exhausted at its current bound, so its content is final.
        """
        while len(self.ssl) < index + 2 and self._advance():
            pass
        if index < len(self.ssl):
            return self.ssl[index]
        return None

    def raise_ub(self, new_ub):
        if new_ub <= self.ub:
            return
        self.ub = new_ub
        for h in self._branches or ():
            h.on_parent_raised(self.ub)

    # -- internals -------------------------------------------------------

    def _emit(self, group):
        tol = self.engine.tol
        if self.ssl and values_equal(self.ssl[-1].value, group.value, tol):
            self.ssl[-1].extend(group.entries)
        else:
            if self.ssl and group.value < self.ssl[-1].value - tol:
                raise AssertionError("out-of-order group emission")
            self.ssl.append(group)

    # where a node's helpers come from: (leaf solution, [(feature, left
    # optimum, right optimum, make left child, make right child)])

    def _table_roots(self):
        """Depth <= 2: the leaf and the root side lists, off the count table."""
        eng = self.engine
        counts = eng.solver.counts(self.view)
        self._pool = generate_depth2(counts, eng.config, self.depth,
                                     eng.features, eng.suppress)
        view, tol = self.view, eng.tol

        def side(f, items, satisfied):
            return lambda: SideNode(split_side(view, f, satisfied), items, tol)

        return (table_leaf(counts),
                [(f, left.value, right.value, side(f, left, False),
                  side(f, right, True)) for f, left, right in self._pool])

    def _split_roots(self):
        """Any depth: the leaf and one split per feature, children solved."""
        eng, depth = self.engine, self.depth - 1
        lam = eng.config.lam
        roots = []
        if depth < 0:
            return leaf_cost(self.view), roots

        def make(child_view, sibling_opt):
            return lambda: eng.node(child_view, depth,
                                    self.ub - sibling_opt - lam)

        for f in eng.features:
            if self.view.feature_is_constant(f):
                continue
            left_view, right_view = split(self.view, f)
            lopt = eng.solver.solve(left_view, depth).value
            ropt = eng.solver.solve(right_view, depth).value
            roots.append((f, lopt, ropt, make(left_view, ropt),
                          make(right_view, lopt)))
        return leaf_cost(self.view), roots

    def _ensure_helpers(self):
        if self._branches is not None:
            return
        eng = self.engine
        table = self.depth <= 2 and eng.use_depth2
        sol, roots = self._table_roots() if table else self._split_roots()
        self._leaf = LeafHelper(*sol)
        self._branches = [BranchHelper(f, lopt, ropt, make_left, make_right,
                                       eng.config.lam, eng.tol, table)
                          for f, lopt, ropt, make_left, make_right in roots]

    def _select_helper(self):
        tol = self.engine.tol
        best, best_v = None, math.inf
        if not self._leaf.consumed:
            best, best_v = self._leaf, self._leaf.value
        for h in self._branches:
            v = h.next_value()
            if v < best_v - tol:
                best, best_v = h, v
        return best, best_v

    def _advance(self):
        self._ensure_helpers()
        helper, value = self._select_helper()
        if helper is None or not value_le(value, self.ub, self.engine.tol):
            return False
        if isinstance(helper, LeafHelper):
            helper.consumed = True
            self._emit(SolutionGroup(
                value, [LeafEntry(helper.prediction, helper.alternatives)],
                self.view))
            return True
        nxt, pairs = helper.pop_and_explore()
        entry_pairs = []
        for l, r in sorted(pairs):
            gl = helper.get_group(0, l)
            gr = helper.get_group(1, r)
            if gl is None or gr is None:  # pragma: no cover - bound invariant
                raise AssertionError("combined child group not materializable")
            pair = Pair(gl, gr, self.engine.suppress)
            if self.engine.suppress and pair.count() == 0:
                continue
            entry_pairs.append(pair)
        if entry_pairs:
            self._emit(SolutionGroup(
                nxt, [BranchEntry(helper.feature, entry_pairs)], self.view))
        return True


class Engine:
    """One enumeration run's shared state: config, caches, feature set."""

    def __init__(self, dataset, config: ObjectiveConfig, suppress_trivial=False,
                 excluded_features=(), use_cache=True, use_depth2=True):
        self.dataset = dataset
        self.config = config
        self.suppress = suppress_trivial
        excluded = set(excluded_features)
        for f in excluded:
            if not 0 <= f < dataset.num_features:
                raise IndexError(f"feature index {f} out of range")
        self.features = [f for f in range(dataset.num_features)
                         if f not in excluded]
        self.use_cache = use_cache
        self.use_depth2 = use_depth2
        self.solver = OptimalSolver(dataset, config, self.features, use_depth2)
        self.node_cache = {}
        self.stats = {"nodes_created": 0, "cache_hits": 0}
        self.tol = config.equality_tolerance

    def node(self, view, depth, ub) -> SearchNode:
        if not self.use_cache:
            return SearchNode(self, view, depth, ub)
        key = fingerprint(view, depth)
        node = self.node_cache.get(key)
        if node is None:
            node = SearchNode(self, view, depth, ub)
            self.node_cache[key] = node
        else:
            self.stats["cache_hits"] += 1
            node.raise_ub(ub)
        return node


@dataclass
class EmittedGroup:
    index: int
    value: float
    total_cost: float
    count: int
    cumulative: int
    group: SolutionGroup


class RashomonEnumeration:
    """Anytime in-order enumeration of all trees within the Rashomon bound.

    Stops when the next group's total cost would exceed theta, or once the
    cumulative tree count reaches max_trees. The stream is resumable:
    iterating groups() again replays the already-computed prefix cheaply and
    continues from where enumeration stopped.
    """

    def __init__(self, dataset, depth, lam=0.01, epsilon=None, max_trees=None,
                 theta=None, suppress_trivial=False, excluded_features=(),
                 tolerance=None, use_cache=True, use_depth2=True):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if epsilon is None and max_trees is None and theta is None:
            raise ValueError("provide at least one of epsilon, max_trees, theta")
        for name, value in (("epsilon", epsilon), ("theta", theta)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if max_trees is not None and not max_trees >= 1:
            raise ValueError(f"max_trees must be >= 1, got {max_trees}")
        self.config = ObjectiveConfig(task=dataset.task, lam=lam,
                                      equality_tolerance=tolerance)
        self.engine = Engine(dataset, self.config,
                             suppress_trivial=suppress_trivial,
                             excluded_features=excluded_features,
                             use_cache=use_cache, use_depth2=use_depth2)
        self.depth = depth
        self.max_trees = max_trees
        root_view = dataset.full_view()
        opt = self.engine.solver.solve(root_view, depth)
        self.optimal = opt
        self.optimal_total = total_cost(opt.value, lam)
        if theta is not None:
            self.theta = theta
        else:
            if epsilon is None:
                epsilon = DEFAULT_EPSILON
            self.theta = rashomon_bound(self.optimal_total, epsilon)
        self._root = self.engine.node(root_view, depth, self.theta - lam)

    def groups(self):
        lam = self.config.lam
        tol = self.engine.tol
        cumulative = 0
        index = 0
        while True:
            group = self._root.get_nth(index)
            if group is None:
                return
            total = total_cost(group.value, lam)
            if not value_le(total, self.theta, tol):
                return
            cumulative += count_trees(group)
            yield EmittedGroup(index, group.value, total,
                               count_trees(group), cumulative, group)
            if self.max_trees is not None and cumulative >= self.max_trees:
                return
            index += 1

    def trees(self, limit=None):
        """Yield (tree, total cost) in non-decreasing cost order."""
        from .groups import materialize

        remaining = limit
        for emitted in self.groups():
            take = None if remaining is None else min(remaining, emitted.count)
            n = 0
            for tree in materialize(emitted.group, take):
                yield tree, emitted.total_cost
                n += 1
            if remaining is not None:
                remaining -= n
                if remaining <= 0:
                    return


def enumerate_rashomon(dataset, depth, lam=0.01, **kwargs) -> RashomonEnumeration:
    return RashomonEnumeration(dataset, depth, lam=lam, **kwargs)
