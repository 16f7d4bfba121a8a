"""The token game: enabledness, firing, traces and bounded reachability.

A marking is just a :class:`~mananets.multiset.Multiset` over the places
of a net. A :class:`Trace` (an initial marking plus a firing sequence)
stands for one execution of the net; two traces that differ only in the
order of independent firings describe the same execution, which is what
:func:`trace_equivalent` decides, within a budget on the size of a class.

Bounded reachability runs on the net compiled once into its incidence
form (a :class:`TokenGame`): every symbol that can occur gets a
coordinate, and every transition becomes the counts it needs and the
changes it makes. :func:`explore` then searches over plain tuples of
counts and returns them in the order it found them. The mana game of
:mod:`mananets.external` appends the pool as a second segment of the
same vector, so :func:`reach`, :func:`~mananets.external.mana_reach` and
both sides of :func:`~mananets.equivalence.check_equivalence` share this
one kernel; a malformed arc raises when it is compiled, before any search.
Only where the order shows is a graph sorted, by
:func:`order_nodes`: :func:`reach` and ``mana_reach`` then build one
``Multiset`` value per node, and :func:`~mananets.documents.emit_graph_json`
writes the text straight from the vectors.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .errors import (CountOverflowError, NotEnabledError, TraceClassBudgetError,
                     UnknownSymbolError)
from .multiset import COUNT_MAX, EMPTY, Multiset, _wrap
from .net import Net

#: Markings are plain multisets over a net's places.
Marking = Multiset

#: Most orderings trace_equivalent visits in one class: 8!, the largest
#: class a trace of at most 8 steps can have.
TRACE_CLASS_BUDGET = 40_320


@dataclass(frozen=True)
class Trace:
    """An initial marking plus an ordered firing sequence.

    Valid traces replay without ever going negative; :func:`run_trace`
    raises :class:`NotEnabledError` (with the failing index) otherwise.
    """

    net: Net
    initial: Multiset
    steps: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)


def enabled(net: Net, marking: Multiset, transition: str) -> bool:
    """True when the marking covers the transition's pre multiset."""
    if transition not in net.pre:
        raise UnknownSymbolError(transition, "transitions")
    return net.pre[transition] <= marking


def fire(net: Net, marking: Multiset, transition: str) -> Multiset:
    """Fire one transition atomically; raises NotEnabledError if blocked."""
    pre, post = net.arcs(transition)
    rest = marking.minus(pre)
    if rest is None:
        raise NotEnabledError(transition)
    return rest + post


def replay(trace: Trace) -> list[Multiset]:
    """All intermediate markings, from the initial one to the final one."""
    markings = [trace.initial]
    for index, transition in enumerate(trace.steps):
        pre, post = trace.net.arcs(transition)
        rest = markings[-1].minus(pre)
        if rest is None:
            raise NotEnabledError(transition, index)
        markings.append(rest + post)
    return markings


def run_trace(trace: Trace) -> Multiset:
    """The final marking after replaying every step."""
    return replay(trace)[-1]


def concat_traces(first: Trace, second: Trace) -> Trace:
    """Sequential composition; the second trace must start where the first ends."""
    if first.net != second.net:
        raise ValueError("traces live on different nets")
    if run_trace(first) != second.initial:
        raise ValueError("traces do not compose: end marking differs from start marking")
    return Trace(first.net, first.initial, first.steps + second.steps)


def occurrence_multiset(trace: Trace) -> Multiset:
    """How many times each transition occurs in the firing sequence."""
    return Multiset(occurrence_counts(trace.steps))


def occurrence_counts(steps) -> dict[str, int]:
    """``{transition: count}`` for a firing sequence, in first-occurrence order."""
    counts: dict[str, int] = {}
    for transition in steps:
        counts[transition] = counts.get(transition, 0) + 1
    return counts


def trace_equivalent(t1: Trace, t2: Trace) -> bool:
    """Decide whether two traces describe the same execution.

    Equivalent traces must share the initial marking, the final marking
    and the occurrence multiset, and must be connected by swaps of
    adjacent independent firings (firings that could have happened in
    either order). The swap search is breadth-first and exhaustive, so
    the answer is exact at any length; it raises
    :class:`TraceClassBudgetError` instead when the class of `t1` holds
    more than ``TRACE_CLASS_BUDGET`` orderings.
    """
    if t1.net != t2.net:
        return False
    if t1.initial != t2.initial:
        return False
    if t1.steps == t2.steps:
        replay(t1)  # an invalid trace still raises NotEnabledError
        return True
    if occurrence_multiset(t1) != occurrence_multiset(t2):
        return False
    if run_trace(t1) != run_trace(t2):
        return False

    budget = TRACE_CLASS_BUDGET
    net = t1.net
    goal = t2.steps
    seen = {t1.steps}
    queue = deque([t1.steps])
    while queue:
        steps = queue.popleft()
        markings = replay(Trace(net, t1.initial, steps))
        for i in range(len(steps) - 1):
            u, v = steps[i], steps[i + 1]
            if u == v:
                continue
            # Swap is legal only if the pair replays in the other order.
            after_v = markings[i].minus(net.pre[v])
            if after_v is None:
                continue
            if not net.pre[u] <= after_v + net.post[v]:
                continue
            swapped = steps[:i] + (v, u) + steps[i + 2:]
            if swapped == goal:
                return True
            if swapped not in seen:
                if len(seen) >= budget:
                    raise TraceClassBudgetError(budget)
                seen.add(swapped)
                queue.append(swapped)
    return False


# -- bounded reachability ---------------------------------------------------

#: Stands in for a zero count in a vector sort key: above every stored count.
_ABSENT = COUNT_MAX + 1


@dataclass(frozen=True)
class ReachGraph:
    """A finite window of the reachability graph.

    Nodes and edges are sorted deterministically; `truncated` is set
    whenever the depth or token bound cut off unexplored behaviour.
    """

    root: object
    nodes: tuple
    edges: tuple
    depth_bound: int
    token_bound: int
    truncated: bool


def _segment_key(counts) -> tuple:
    """Order count vectors over sorted symbols as ``Multiset.sort_key`` orders them.

    A zero count means the multiset's next entry has a larger symbol, so
    it sorts above any count; a multiset that ends early is a prefix, so
    trailing zeros are dropped.
    """
    key = [c or _ABSENT for c in counts]
    while key and key[-1] is _ABSENT:
        key.pop()
    return tuple(key)


class TokenGame:
    """The plain token game of a net, compiled once into count vectors.

    A state is a tuple with one count per symbol of `symbols`, in sorted
    order: the net's places, the symbols its arcs mention and those of
    the initial marking. Each transition, in name order, becomes a step
    ``(label, pre, delta, growth)``: the (coordinate, count) pairs a
    state must cover, the nonzero (coordinate, change) pairs of a firing
    and the firing's change in size. A missing arc raises
    :class:`UnknownSymbolError` and one that is not a ``Multiset``
    raises ``TypeError``, both here in the constructor.
    """

    def __init__(self, net: Net, marking: Multiset):
        self.net = net
        self._compile(marking.support(), ())

    def _compile(self, marking_symbols, pool_symbols):
        """Lay out the coordinates, marking then pool, and compile each transition."""
        net = self.net
        labels = sorted(set(net.transitions))
        pool_arcs = [self._pool_arcs(t) for t in labels]
        arcs = [net.arcs(t) for t in labels]
        places = set(net.places) | set(marking_symbols)
        for t, sides in zip(labels, arcs):
            for side in sides:
                if not isinstance(side, Multiset):
                    raise TypeError(f"arcs of {t!r} must be Multisets, got {side!r}")
                places.update(side._entries)
        places = sorted(places)
        pool = sorted(set(pool_symbols).union(*(gain._entries for _, gain in pool_arcs)))
        self.split = len(places)
        self.symbols = (*places, *pool)
        self._places = {s: i for i, s in enumerate(places)}
        self._pool = {s: self.split + i for i, s in enumerate(pool)}
        self.steps = [self._step(t, *sides, *uses)
                      for t, sides, uses in zip(labels, arcs, pool_arcs)]

    def _pool_arcs(self, label: str) -> tuple[Multiset, Multiset]:
        """What a firing takes from and adds to the pool."""
        return EMPTY, EMPTY

    def _step(self, label: str, pre: Multiset, post: Multiset,
              use: Multiset, gain: Multiset) -> tuple:
        need = {self._places[s]: c for s, c in pre._entries.items()}
        need.update((self._pool[s], c) for s, c in use._entries.items())
        # Gain, then post, in insertion order: the order in which Multiset
        # addition meets them, so check_overflow names the same symbol.
        change = {self._pool[s]: c for s, c in gain._entries.items()}
        for s, c in post._entries.items():
            change[self._places[s]] = c
        for i, c in need.items():
            change[i] = change.get(i, 0) - c
        delta = tuple((i, d) for i, d in change.items() if d)
        return (label, tuple(sorted(need.items())), delta, sum(change.values()))

    def check_overflow(self, vector, delta) -> None:
        """Raise CountOverflowError for the first count of a firing past ``COUNT_MAX``."""
        for i, d in delta:
            if vector[i] + d > COUNT_MAX:
                raise CountOverflowError(self.symbols[i], vector[i] + d)

    def position(self, symbol: str) -> int:
        """The coordinate of a marking symbol."""
        return self._places[symbol]

    def _vector(self, marking: Multiset, pool: Multiset = EMPTY) -> tuple:
        counts = [0] * len(self.symbols)
        for s, c in marking.items():
            counts[self._places[s]] = c
        for s, c in pool.items():
            counts[self._pool[s]] = c
        return tuple(counts)

    def _multiset(self, vector, start: int, stop: int) -> Multiset:
        return _wrap({s: c for s, c in zip(self.symbols[start:stop], vector[start:stop])
                      if c})

    def vector(self, state: Multiset) -> tuple:
        return self._vector(state)

    def state(self, vector) -> Multiset:
        return self._multiset(vector, 0, self.split)

    def key(self, vector) -> tuple:
        return _segment_key(vector)

    def can_fire(self, vector, size: int) -> bool:
        """Whether any step is enabled; the first enabled firing raises as the BFS would."""
        for _, pre, delta, growth in self.steps:
            for i, need in pre:
                if vector[i] < need:
                    break
            else:
                if size + growth > COUNT_MAX:
                    self.check_overflow(vector, delta)
                return True
        return False

    def reach(self, root, depth_bound: int, token_bound: int) -> ReachGraph:
        """Explore from the `root` state and sort; each node becomes an API value once."""
        graph = explore(self, self.vector(root),
                        depth_bound=depth_bound, token_bound=token_bound)
        order, rank = order_nodes(self, graph)
        nodes = [self.state(graph.nodes[s]) for s in order]
        nodes[rank[0]] = root
        edges = [(nodes[r], label, nodes[rank[d]])
                 for r, s in enumerate(order) for label, d in graph.out[s]]
        return ReachGraph(root, tuple(nodes), tuple(edges), depth_bound, token_bound,
                          graph.truncated)


class VectorGraph:
    """The states :func:`explore` found and the firings out of each, in search order.

    `nodes` holds the state vectors in the order they were found, the
    root first. ``out[s]`` lists the ``(label, target)`` firings out of
    node `s` in the game's step order, targets being positions in
    `nodes`; a node that was not expanded has none. :func:`order_nodes`
    sorts the nodes where the order matters. It is a plain class because
    a frozen dataclass generates and compiles its methods at import time.
    """

    __slots__ = ("nodes", "out", "truncated")

    def __init__(self, nodes: list, out: list, truncated: bool):
        self.nodes = nodes
        self.out = out
        self.truncated = truncated

    @property
    def edges(self) -> _Edges:
        """The firings as ``(source, label, target)`` triples, counted by ``len``."""
        return _Edges(self.out)


class _Edges:
    """A view of adjacency lists as triples, made only as they are read."""

    __slots__ = ("_out",)

    def __init__(self, out: list):
        self._out = out

    def __len__(self) -> int:
        return sum(map(len, self._out))

    def __iter__(self):
        for s, pairs in enumerate(self._out):
            for label, d in pairs:
                yield s, label, d


def explore(game: TokenGame, root: tuple, *, depth_bound: int,
            token_bound: int) -> VectorGraph:
    """Breadth-first closure of the game's firings from the `root` vector.

    States at depth `depth_bound`, or larger than `token_bound`, are not
    expanded, and successors larger than `token_bound` are dropped; a cut
    that hides a firing marks the graph as truncated. The search runs
    level by level, in the order a FIFO queue would, so that a count
    past ``COUNT_MAX`` raises at the same point as on ``Multiset`` values.
    The graph comes back in that discovery order, unsorted; see
    :func:`order_nodes`.
    """
    steps = game.steps
    index = {root: 0}
    states = [root]
    sizes = [sum(root)]
    # Nodes are visited in the order they were found, so `out` grows with them.
    out: list = []
    truncated = False
    frontier = [0]
    depth = 0
    found = 1
    while frontier:
        level = []
        for s in frontier:
            state = states[s]
            size = sizes[s]
            if depth >= depth_bound or size > token_bound:
                if game.can_fire(state, size):
                    truncated = True
                out.append(())
                continue
            edges = []
            for label, pre, delta, growth in steps:
                for i, need in pre:
                    if state[i] < need:
                        break
                else:
                    nxt_size = size + growth
                    if nxt_size > COUNT_MAX:
                        game.check_overflow(state, delta)
                    counts = list(state)
                    for i, d in delta:
                        counts[i] += d
                    nxt = tuple(counts)
                    if nxt_size > token_bound:
                        truncated = True
                        continue
                    j = index.setdefault(nxt, found)
                    if j == found:
                        found += 1
                        states.append(nxt)
                        sizes.append(nxt_size)
                        level.append(j)
                    edges.append((label, j))
            out.append(edges)
        frontier = level
        depth += 1
    return VectorGraph(states, out, truncated)


def order_nodes(game: TokenGame, graph: VectorGraph) -> tuple[list[int], list[int]]:
    """Sort the nodes of `graph` by ``game.key``, the order of ``ReachGraph``.

    Returns the node positions in sorted order and, for each position,
    its rank in that order. A node's firings already come in label
    order, so walking ``graph.out`` in this order gives the sorted edges.
    """
    keys = [game.key(v) for v in graph.nodes]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for r, s in enumerate(order):
        rank[s] = r
    return order, rank


def reach(net: Net, initial: Multiset, depth_bound: int, token_bound: int) -> ReachGraph:
    """Bounded reachability of the plain token game from `initial`."""
    return TokenGame(net, initial).reach(initial, depth_bound, token_bound)


def simulate(net: Net, initial: Multiset, max_steps: int,
             rng: random.Random | None = None) -> Trace:
    """Fire up to `max_steps` transitions, stopping when nothing is enabled.

    The enabled transition with the lexicographically smallest name is
    chosen unless an `rng` is supplied, in which case the choice is drawn
    from it (reproducibly, given a seeded Random).
    """
    labels = sorted(net.transitions)
    marking = initial
    steps: list[str] = []
    for _ in range(max_steps):
        candidates = [t for t in labels if net.pre[t] <= marking]
        if not candidates:
            break
        choice = rng.choice(candidates) if rng is not None else candidates[0]
        marking = fire(net, marking, choice)
        steps.append(choice)
    return Trace(net, initial, tuple(steps))
