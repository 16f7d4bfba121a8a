"""The token game: enabledness, firing, traces and bounded reachability.

A marking is just a :class:`~mananets.multiset.Multiset` over the places
of a net. A :class:`Trace` (an initial marking plus a firing sequence)
stands for one execution of the net; two traces that differ only in the
order of independent firings describe the same execution, which is what
:func:`trace_equivalent` decides, within a budget on the size of a class.

The firing rule is coded three times, each for a measured reason; the
rule on ``Multiset`` values lives in the tests, as the reference for
all three. Every trace fires on a count dict, in :func:`_walk`: most
have a step or two on a net seen once, where a compile would cost about
ten walks. Its intermediate markings stay count dicts, which
:func:`replay` wraps as ``Multiset`` values. The swap search of
:func:`trace_equivalent` queues each ordering with its markings, so a new
ordering costs one one-step walk. Bounded reachability
(:func:`explore`, on packed states) and random walks
(:meth:`TokenGame.walk`, on a game cached on the net) run on the net
compiled once into its incidence form (a :class:`TokenGame`):
every symbol that can occur gets a coordinate, and every transition
becomes the counts it needs and the changes it makes. The mana game of
:mod:`mananets.external` appends the pool as a second segment of the
same vector, so :func:`reach`, :func:`~mananets.external.mana_reach` and
both sides of :func:`~mananets.equivalence.check_equivalence` share one
kernel, and :func:`simulate` and
:func:`~mananets.external.mana_simulate` its :meth:`~TokenGame.walk`; a
malformed arc raises when it is compiled, before any search or firing.
That check names each coordinate of the mana game by its built-net
symbol and compares the two games' steps by those names before it
explores the built net at all.

:func:`explore` packs each state into one integer, one fixed-width field
per coordinate with coordinate 0 most significant (SWAR, "SIMD within a
register"). No node holds a count above the token bound or the largest
count of the root, so a field has room for that count plus a guard bit
on top, rounded up to 8, 16, 32 or 64 bits. With every guard bit set, a
state covers a step's counts iff subtracting them, all at once, leaves
every guard bit set; a firing is one addition of the step's change. A
step that needs more than a field can hold is never enabled and is left
out, since its subtraction would borrow across fields. The firings go
into flat arrays, one label and one target per firing and one offset per
node (compressed sparse rows), so a firing makes no object of its own.
:func:`order_nodes` sorts packed nodes by an integer key. Nodes are
unpacked into count tuples, all at once by :meth:`VectorGraph.vectors`,
only where they leave the kernel: in :meth:`TokenGame.reach`, in
:func:`~mananets.documents.emit_graph_json` and, for a discrepancy, in
the equivalence check, which explores the built net and compares the
two windows only when the games differ on their steps.
"""

from __future__ import annotations

import random
import struct
from collections import deque
from dataclasses import dataclass

from .errors import (CountOverflowError, NotEnabledError, TraceClassBudgetError,
                     UnknownSymbolError)
from .multiset import COUNT_MAX, EMPTY, Multiset, _wrap
from .net import Net, _filled

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
    try:
        return _wrap(_walk(net, marking._entries, (transition,)))
    except NotEnabledError:
        raise NotEnabledError(transition) from None


def replay(trace: Trace) -> list[Multiset]:
    """All intermediate markings, from the initial one to the final one."""
    counts: list[dict] = []
    _walk(trace.net, trace.initial._entries, trace.steps, counts)
    return [trace.initial, *map(_wrap, counts)]


def run_trace(trace: Trace) -> Multiset:
    """The final marking after replaying every step."""
    return _wrap(_walk(trace.net, trace.initial._entries, trace.steps))


def _walk(net: Net, counts: dict, steps, markings: list | None = None) -> dict:
    """Fire `steps` on a copy of the count dict `counts`; return the final counts.

    Zero counts are dropped. A blocked step raises NotEnabledError with
    its index. Post arcs are added in ``Multiset.__add__`` order, so an
    overflow names the symbol that addition would. Given a list, the
    counts after each step are appended to `markings`, each a new dict.
    """
    counts = dict(counts)
    pre, post = net.pre, net.post
    for index, transition in enumerate(steps):
        taken, given = pre.get(transition), post.get(transition)
        if taken is None or given is None:
            taken, given = net.arcs(transition)  # raises UnknownSymbolError
        for symbol, need in taken._entries.items():
            left = counts.get(symbol, 0) - need
            if left < 0:
                raise NotEnabledError(transition, index)
            if left:
                counts[symbol] = left
            else:
                del counts[symbol]
        for symbol, count in given._entries.items():
            total = counts.get(symbol, 0) + count
            if total > COUNT_MAX:
                raise CountOverflowError(symbol, total)
            counts[symbol] = total
        if markings is not None:
            markings.append(dict(counts))
    return counts


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

    Each queued ordering carries its intermediate markings, starting from
    those of the walk that validates `t1`. A swap at ``i`` changes only
    the marking between the swapped pair, so a new ordering costs one
    one-step walk, and no ordering is walked again from its start. Each
    list of ``n + 1`` markings shares all but its new one with its
    parent's; at the full budget with 8 steps the lists add about 5 MB
    next to ``seen``.
    """
    if t1.net is not t2.net and t1.net != t2.net:
        return False
    if t1.initial != t2.initial:
        return False
    net, start = t1.net, t1.initial._entries
    if t1.steps == t2.steps:
        _walk(net, start, t1.steps)  # an invalid trace still raises
        return True
    if occurrence_multiset(t1) != occurrence_multiset(t2):
        return False
    # Equal occurrences from one marking end in one marking, so these walks
    # compare nothing: they raise on an invalid trace. The search starts
    # from the markings of the first.
    markings = [start]
    _walk(net, start, t1.steps, markings)
    _walk(net, start, t2.steps)

    budget = TRACE_CLASS_BUDGET
    goal = t2.steps
    seen = {t1.steps}
    queue = deque([(t1.steps, markings)])
    while queue:
        steps, markings = queue.popleft()
        for i in range(len(steps) - 1):
            u, v = steps[i], steps[i + 1]
            if u == v:
                continue
            # Swap is legal only if the pair fires in the other order.
            try:
                _walk(net, markings[i], (v, u))
            except NotEnabledError:
                continue
            swapped = steps[:i] + (v, u) + steps[i + 2:]
            if swapped == goal:
                return True
            if swapped not in seen:
                if len(seen) >= budget:
                    raise TraceClassBudgetError(budget)
                seen.add(swapped)
                # A marking depends only on how often each transition
                # occurs before it, so only the one between the pair moves.
                moved = markings.copy()
                moved[i + 1] = _walk(net, markings[i], (v,))
                queue.append((swapped, moved))
    return False


# -- bounded reachability ---------------------------------------------------

#: Struct codes of the field widths a packed state can take, in bits.
_FIELD_CODES = {8: "B", 16: "H", 32: "I", 64: "Q"}


def field_width(root, token_bound: int) -> int:
    """Bits per packed coordinate for an exploration from the `root` vector.

    A node holds no count above both the token bound and the root's
    largest count, nor above ``COUNT_MAX``; the field has room for that
    count plus a guard bit, rounded up to a whole struct code.
    """
    bits = min(max(token_bound, max(root, default=0)), COUNT_MAX).bit_length() + 1
    return next(width for width in _FIELD_CODES if bits <= width)


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

    def walk(self, counts: list, max_steps: int, rng: random.Random | None = None) -> list:
        """Fire up to `max_steps` steps on the list `counts`, in place; return their labels.

        Each firing takes the first enabled step in label order, or, given an `rng`, the
        one ``rng.choice`` would pick, drawn with :func:`_below`, until none is enabled;
        overflow is checked as in :func:`explore`, by the size gate.
        """
        size, fired = sum(counts), []
        for _ in range(max_steps):
            moves = []
            for step in self.steps:
                for i, need in step[1]:
                    if counts[i] < need:
                        break
                else:
                    moves.append(step)
            if not moves:
                break
            label, _, delta, growth = moves[0] if rng is None else moves[_below(rng, len(moves))]
            size += growth
            if size > COUNT_MAX:
                self.check_overflow(counts, delta)
            for i, d in delta:
                counts[i] += d
            fired.append(label)
        return fired

    def reach(self, root, depth_bound: int, token_bound: int) -> ReachGraph:
        """Explore from the `root` state and sort; each node becomes an API value once."""
        graph = explore(self, self.vector(root),
                        depth_bound=depth_bound, token_bound=token_bound)
        order, rank = order_nodes(self, graph)
        nodes = list(map(self.state, graph.vectors([graph.nodes[s] for s in order])))
        nodes[rank[0]] = root
        first, labels, targets = graph.first, graph.labels, graph.targets
        edges = [(nodes[r], labels[e], nodes[rank[targets[e]]])
                 for r, s in enumerate(order) for e in range(first[s], first[s + 1])]
        return ReachGraph(root, tuple(nodes), tuple(edges), depth_bound, token_bound,
                          graph.truncated)


class VectorGraph:
    """The states :func:`explore` found and the firings out of each, in search order.

    `nodes` holds the packed states in the order they were found, the
    root first; :meth:`vectors` unpacks a list of them into their
    counts. Each field is `width` bits wide, and `guard` holds the top
    bit of every field. The firings are stored flat, in compressed
    sparse rows: firing `e` has the label ``labels[e]`` and the target
    position ``targets[e]`` in `nodes`, and those out of node `s` are
    ``range(first[s], first[s + 1])``, in the game's step order, so
    `first` has one entry more than `nodes`. A node that was not
    expanded has none. `edges` lists the firings as triples of node
    positions. :func:`order_nodes` sorts the nodes where the order
    matters. It is a plain class because a frozen dataclass
    generates and compiles its methods at import time.
    """

    __slots__ = ("nodes", "first", "labels", "targets", "truncated", "width", "guard",
                 "_fields")

    def __init__(self, nodes: list, first: list, labels: list, targets: list,
                 truncated: bool, width: int, coordinates: int):
        self.nodes = nodes
        self.first = first
        self.labels = labels
        self.targets = targets
        self.truncated = truncated
        self.width = width
        self._fields = struct.Struct(f">{coordinates}{_FIELD_CODES[width]}")
        self.guard = self.pack([1 << width - 1] * coordinates)

    def vectors(self, nodes: list):
        """An iterator over the counts of each packed node in `nodes`, unpacked in one call."""
        fields = self._fields
        size = fields.size
        if not size:  # no coordinates: every node is the empty vector
            return iter([()] * len(nodes))
        return fields.iter_unpack(b"".join([x.to_bytes(size, "big") for x in nodes]))

    def pack(self, vector) -> int:
        """The packed node of a count vector."""
        return int.from_bytes(self._fields.pack(*vector), "big")

    @property
    def edges(self) -> list[tuple[int, str, int]]:
        """The firings as ``(source, label, target)`` triples of node positions."""
        first, labels, targets = self.first, self.labels, self.targets
        return [(s, labels[e], targets[e])
                for s in range(len(first) - 1) for e in range(first[s], first[s + 1])]


def _packed(pairs, coordinates: int, width: int) -> int:
    # (coordinate, count) pairs as one integer; negative counts borrow.
    return sum(c << width * (coordinates - 1 - i) for i, c in pairs)


def explore(game: TokenGame, root: tuple, *, depth_bound: int,
            token_bound: int) -> VectorGraph:
    """Breadth-first closure of the game's firings from the `root` vector.

    States at depth `depth_bound`, or larger than `token_bound`, are not
    expanded, and successors larger than `token_bound` are dropped; a cut
    that hides a firing marks the graph as truncated. The search runs
    level by level, in the order a FIFO queue would, so that a count
    past ``COUNT_MAX`` raises at the same point as on ``Multiset`` values.
    States are packed with :func:`field_width` bits per coordinate. The
    graph comes back in discovery order, unsorted; see :func:`order_nodes`.
    """
    coordinates = len(root)
    width = field_width(root, token_bound)
    top = width - 1
    graph = VectorGraph([], [], [], [], False, width, coordinates)
    guard = graph.guard
    # A step that needs a count of 2**top or more is never enabled, and
    # subtracting its needs would borrow across fields: it is left out.
    steps = [(label, _packed(pre, coordinates, width), _packed(delta, coordinates, width),
              growth, delta)
             for label, pre, delta, growth in game.steps
             if all(need >> top == 0 for _, need in pre)]
    most_growth = max((step[3] for step in steps), default=0)
    start = graph.pack(root)
    index = {start: 0}
    states = graph.nodes
    states.append(start)
    sizes = [sum(root)]
    # Nodes are visited in the order they were found, so `first` grows with them.
    first, labels, targets = graph.first, graph.labels, graph.targets
    truncated = False
    frontier = [0]
    depth = 0
    found = 1
    while frontier:
        level = []
        cut = depth >= depth_bound
        for s in frontier:
            first.append(len(targets))
            state = states[s]
            size = sizes[s]
            covered = state | guard
            stop = cut or size > token_bound
            if stop or size + most_growth > COUNT_MAX:
                # Each enabled firing that could pass COUNT_MAX is checked, in
                # step order; at a node that is not expanded, only the first.
                for _, pre, _, growth, change in steps:
                    if (covered - pre) & guard == guard:
                        if size + growth > COUNT_MAX:
                            game.check_overflow(next(graph.vectors([state])), change)
                        if stop:
                            truncated = True
                            break
            if stop:
                continue
            room = token_bound - size
            for label, pre, delta, growth, _ in steps:
                if (covered - pre) & guard != guard:
                    continue
                if growth > room:
                    truncated = True
                    continue
                nxt = state + delta
                j = index.setdefault(nxt, found)
                if j == found:
                    found += 1
                    states.append(nxt)
                    sizes.append(size + growth)
                    level.append(j)
                labels.append(label)
                targets.append(j)
        frontier = level
        depth += 1
    first.append(len(targets))  # the closing sentinel
    graph.truncated = truncated
    return graph


def order_nodes(game: TokenGame, graph: VectorGraph) -> tuple[list[int], list[int]]:
    """Sort the nodes of `graph` in the order of ``ReachGraph``.

    Each segment, the marking and then any pool, orders as its multiset's
    ``sort_key``. The integer key sets every bit of a zero field, which
    then sorts above any count (the multiset's next symbol is larger),
    and clears the zero fields after a segment's last count, so that a
    segment which ends early sorts first, as a prefix does. Returns the
    node positions in sorted order and, for each position, its rank. A
    node's firings come in label order, so walking each node's range of
    ``graph.first`` in this order gives the sorted edges.
    """
    top = graph.width - 1
    guard = graph.guard
    low = graph.width * (len(game.symbols) - game.split)
    pool = (1 << low) - 1
    keys = []
    for x in graph.nodes:
        zeros = (guard - x) & guard
        key = x | zeros | (zeros - (zeros >> top))
        if low:
            marking, rest = x >> low, x & pool
            keys.append(key & ((-(marking & -marking) << low) | (-(rest & -rest) & pool)))
        else:
            keys.append(key & -(x & -x))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for r, s in enumerate(order):
        rank[s] = r
    return order, rank


def _below(rng: random.Random, n: int) -> int:
    """A draw from ``range(n)``: what ``rng.randrange(n)`` returns, in one call.

    The rule of ``random.Random``'s own integer draws: ``rng.getrandbits``
    of the bit length of `n`, drawn again while the result is `n` or more.
    So ``randint(a, b)`` is ``a + _below(rng, b - a + 1)`` and
    ``choice(seq)`` is ``seq[_below(rng, len(seq))]``. Raises
    ``ValueError`` when `n` is 0 or less, where the rule would never stop.
    """
    if n <= 0:
        raise ValueError(f"empty range to draw from: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def reach(net: Net, initial: Multiset, depth_bound: int, token_bound: int) -> ReachGraph:
    """Bounded reachability of the plain token game from `initial`."""
    return TokenGame(net, initial).reach(initial, depth_bound, token_bound)


def simulate(net: Net, initial: Multiset, max_steps: int,
             rng: random.Random | None = None) -> Trace:
    """Fire up to `max_steps` transitions, stopping when nothing is enabled.

    The enabled transition with the lexicographically smallest name is
    chosen unless an `rng` is supplied, in which case it is the one
    ``rng.choice`` of the enabled transitions in name order would pick,
    drawn with :func:`_below` (reproducibly, given a seeded Random). The
    net's plain game is compiled at the first call and kept on the
    ``Net``, outside its fields.
    """
    game = net.__dict__.get("_plain_game")
    if game is None:
        game = net.__dict__["_plain_game"] = TokenGame(net, EMPTY)
    coordinate = game._places
    counts = [0] * len(game.symbols)
    for symbol, count in initial._entries.items():
        if symbol in coordinate:
            counts[coordinate[symbol]] = count
    return _filled(Trace, net=net, initial=initial, steps=tuple(game.walk(counts, max_steps, rng)))
