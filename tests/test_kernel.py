"""The vector token game against the Multiset successor-closure reference.

``reach``, ``mana_reach`` and ``check_equivalence`` all run on one
compiled kernel, so the two sides of the equivalence check no longer
come from independent code. The reference below is the breadth-first
closure over ``Multiset`` values that the kernel replaced; every
property requires the kernel to agree with it exactly: nodes, edges in
order, truncation, report fields, and the type and message of any
error.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mananets import (COUNT_MAX, EMPTY, CountOverflowError, EquivalenceReport,
                      ManaPolicy, ManaState, Multiset, Net, UnknownSymbolError,
                      check_equivalence, graph_to_json_dict, internalize,
                      mana_reach, reach, state_to_object)
from mananets.documents import emit_graph_json
from mananets.execution import ReachGraph, TokenGame, explore, order_nodes
from mananets.external import ManaGame, mana_enabled, mana_fire, span_of_transition

# -- the reference -------------------------------------------------------------


def ref_explore(root, successors, *, size, key, depth_bound, token_bound):
    truncated = False
    depth = {root: 0}
    nodes = {root}
    edges = set()
    queue = [root]
    while queue:
        state = queue.pop(0)
        if depth[state] >= depth_bound or size(state) > token_bound:
            if any(True for _ in successors(state)):
                truncated = True
            continue
        for label, nxt in successors(state):
            if size(nxt) > token_bound:
                truncated = True
                continue
            edges.add((state, label, nxt))
            if nxt not in nodes:
                nodes.add(nxt)
                depth[nxt] = depth[state] + 1
                queue.append(nxt)
    sorted_nodes = tuple(sorted(nodes, key=key))
    sorted_edges = tuple(sorted(edges, key=lambda e: (key(e[0]), e[1], key(e[2]))))
    return ReachGraph(root, sorted_nodes, sorted_edges, depth_bound, token_bound, truncated)


def ref_reach(net, initial, depth_bound, token_bound):
    def successors(marking):
        for transition in sorted(net.transitions):
            rest = marking.minus(net.pre[transition])
            if rest is not None:
                yield transition, rest + net.post[transition]

    return ref_explore(initial, successors, size=lambda m: m.total(),
                       key=lambda m: m.sort_key(),
                       depth_bound=depth_bound, token_bound=token_bound)


def ref_mana_reach(net, policy, initial, depth_bound, token_bound):
    for transition in sorted(net.transitions):
        span_of_transition(policy, transition)

    def successors(state):
        for transition in sorted(net.transitions):
            if mana_enabled(net, policy, state, transition):
                yield transition, mana_fire(net, policy, state, transition)

    return ref_explore(initial, successors, size=lambda s: s.size(),
                       key=lambda s: s.sort_key(),
                       depth_bound=depth_bound, token_bound=token_bound)


def ref_check_equivalence(net, policy, initial, depth_bound, token_bound):
    mn = internalize(net, policy)
    ext = ref_mana_reach(net, policy, initial, depth_bound, token_bound)
    internal = ref_reach(mn.built, state_to_object(mn, initial), depth_bound, token_bound)
    mapped_nodes = {state_to_object(mn, s) for s in ext.nodes}
    mapped_edges = {(state_to_object(mn, s), label, state_to_object(mn, d))
                    for s, label, d in ext.edges}
    int_nodes = set(internal.nodes)
    int_edges = set(internal.edges)
    discrepancy = None
    for side, extra in (("external-only", mapped_nodes - int_nodes),
                        ("internal-only", int_nodes - mapped_nodes)):
        if extra and discrepancy is None:
            first = min(extra, key=lambda m: m.sort_key())
            discrepancy = {"kind": "node", "side": side, "value": first.as_dict()}
    for side, extra in (("external-only", mapped_edges - int_edges),
                        ("internal-only", int_edges - mapped_edges)):
        if extra and discrepancy is None:
            first = min(extra, key=lambda e: (e[0].sort_key(), e[1], e[2].sort_key()))
            discrepancy = {"kind": "edge", "side": side,
                           "value": [first[0].as_dict(), first[1], first[2].as_dict()]}
    return EquivalenceReport(discrepancy is None, len(ext.nodes), len(internal.nodes),
                             len(ext.edges), len(internal.edges), discrepancy)


def outcome(func, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return func(*args)
    except Exception as err:  # compared, not handled
        return ("raised", type(err), str(err))


# -- strategies ------------------------------------------------------------------

PLACES = ("a", "b", "c")
TRANSITIONS = ("t0", "t1", "t2")
#: Symbols outside every net: an undeclared place and a built-net mana
#: place name, which collides with t0's mana when it sits in a marking.
STRAYS = ("x", "mana:t0")

counts = st.one_of(st.integers(0, 3), st.integers(0, 3),
                   st.integers(COUNT_MAX - 2, COUNT_MAX))
#: Counts one below the bound or at it: adding 2 to each of two such
#: counts in one firing pushes both past the bound.
full_counts = st.integers(COUNT_MAX - 1, COUNT_MAX)


def multisets(symbols, values=st.integers(0, 2), min_size=0):
    return st.dictionaries(st.sampled_from(symbols), values, min_size=min_size,
                           max_size=3).map(Multiset)


def arcs(symbols):
    """Arc multisets, and sometimes 2 of each of two or three symbols
    inserted in reverse sorted order, so that the order in which a firing
    meets them differs from the coordinate order."""
    if len(symbols) < 2:
        return multisets(symbols)
    reversed_sets = st.lists(st.sampled_from(symbols), min_size=2, max_size=3,
                             unique=True).map(
        lambda keys: Multiset({k: 2 for k in sorted(keys, reverse=True)}))
    return st.one_of(multisets(symbols), reversed_sets)


def near_full(symbols):
    """Multisets of `counts`, and sometimes two or more counts near ``COUNT_MAX``."""
    if len(symbols) < 2:
        return multisets(symbols, counts)
    return st.one_of(multisets(symbols, counts),
                     multisets(symbols, full_counts, min_size=2))


@st.composite
def nets(draw, stray_arcs=True):
    places = draw(st.lists(st.sampled_from(PLACES), min_size=1, unique=True))
    names = draw(st.lists(st.sampled_from(TRANSITIONS), unique=True))
    arc_symbols = places + list(STRAYS[:1]) if stray_arcs else places
    pre = {t: draw(multisets(arc_symbols)) for t in names}
    post = {t: draw(arcs(arc_symbols)) for t in names}
    return Net(tuple(places), tuple(names), pre, post)


@st.composite
def policies(draw, net, partial=False):
    """Policies on the net; `partial` ones may lack entries or hold invalid counts."""
    names = list(net.transitions)
    amounts = st.integers(0, 2)
    if partial:
        amounts = st.one_of(amounts, st.sampled_from([-1, True]))
    consume = {t: draw(amounts) for t in names}
    produce = {t: draw(arcs(names or ["t0"])) for t in names}
    if partial and names:
        for t in draw(st.lists(st.sampled_from(names), unique=True)):
            del consume[t]
    return ManaPolicy(consume, produce)


markings = near_full(list(PLACES) + list(STRAYS))


def pools(net):
    return near_full(list(net.transitions) + ["zz"])


bounds = st.tuples(st.integers(0, 5), st.one_of(st.integers(0, 8),
                                                st.just(4 * COUNT_MAX)))

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# -- properties ------------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_reach_matches_reference(data):
    net = data.draw(nets())
    initial = data.draw(markings)
    depth, bound = data.draw(bounds)
    assert outcome(reach, net, initial, depth, bound) == \
        outcome(ref_reach, net, initial, depth, bound)


@SETTINGS
@given(st.data())
def test_mana_reach_matches_reference(data):
    net = data.draw(nets())
    policy = data.draw(policies(net, partial=data.draw(st.booleans())))
    initial = ManaState(data.draw(markings), data.draw(pools(net)))
    depth, bound = data.draw(bounds)
    assert outcome(mana_reach, net, policy, initial, depth, bound) == \
        outcome(ref_mana_reach, net, policy, initial, depth, bound)


@SETTINGS
@given(st.data())
def test_check_equivalence_matches_reference(data):
    net = data.draw(nets(stray_arcs=data.draw(st.booleans())))
    policy = data.draw(policies(net))
    initial = ManaState(data.draw(markings), data.draw(pools(net)))
    depth, bound = data.draw(bounds)
    assert outcome(check_equivalence, net, policy, initial, depth, bound) == \
        outcome(ref_check_equivalence, net, policy, initial, depth, bound)


def game_and_root(data, net, initial):
    """How to build a plain or a mana game on `net`, its root, and its policy.

    The policy is None for a plain game and possibly partial otherwise.
    Building the game checks every entry and may raise, so callers build
    it inside ``outcome(...)``.
    """
    if data.draw(st.booleans()):
        return (lambda: TokenGame(net, initial)), initial, None
    policy = data.draw(policies(net, partial=data.draw(st.booleans())))
    root = ManaState(initial, data.draw(pools(net)))
    return (lambda: ManaGame(net, policy, root)), root, policy


def ordered(game, root, depth, bound):
    """Explore, then sort with order_nodes, as the library's reach does."""
    graph = explore(game, game.vector(root), depth_bound=depth, token_bound=bound)
    assert graph.nodes[0] == game.vector(root)
    discovered_by = {}
    for s, _, d in graph.edges:
        discovered_by.setdefault(d, s)
    assert all(discovered_by[d] < d for d in range(1, len(graph.nodes)))
    order, rank = order_nodes(game, graph)
    nodes = tuple(game.state(graph.nodes[s]) for s in order)
    edges = tuple((nodes[r], label, nodes[rank[d]])
                  for r, s in enumerate(order) for label, d in graph.out[s])
    assert len(graph.edges) == len(edges)
    return nodes[rank[0]], nodes, edges, graph.truncated


@SETTINGS
@given(st.data())
def test_ordered_explore_matches_reference(data):
    net = data.draw(nets())
    build, root, policy = game_and_root(data, net, data.draw(markings))
    depth, bound = data.draw(bounds)
    if policy is not None:
        reference = outcome(ref_mana_reach, net, policy, root, depth, bound)
    else:
        reference = outcome(ref_reach, net, root, depth, bound)
    if isinstance(reference, ReachGraph):
        reference = (reference.root, reference.nodes, reference.edges, reference.truncated)
    assert outcome(lambda: ordered(build(), root, depth, bound)) == reference


def test_marking_on_a_mana_place_name_merges_with_the_pool():
    net = Net.build(["a"], {"t0": ({"a": 1}, {})})
    policy = ManaPolicy.plain(net)
    initial = ManaState(Multiset({"a": 1, "mana:t0": 2}), Multiset({"t0": 1}))
    report = check_equivalence(net, policy, initial, 3, 10)
    assert report == ref_check_equivalence(net, policy, initial, 3, 10)
    assert report.isomorphic and report.int_nodes == 2


def test_count_overflow_is_reported_with_its_symbol():
    net = Net.build(["a"], {"u": ({}, {"a": 1})})
    full = Multiset({"a": COUNT_MAX})
    for bound in (4 * COUNT_MAX, 0):  # expanded root, and root cut at the token bound
        with pytest.raises(CountOverflowError) as err:
            reach(net, full, 3, bound)
        assert err.value.symbol == "a"
        assert outcome(reach, net, full, 3, bound) == outcome(ref_reach, net, full, 3, bound)


def test_pool_overflow_is_reported_with_its_symbol():
    net = Net.build(["a"], {"u": ({}, {})})
    policy = ManaPolicy({"u": 0}, {"u": Multiset({"u": 1})})
    initial = ManaState(Multiset(), Multiset({"u": COUNT_MAX}))
    with pytest.raises(CountOverflowError) as err:
        mana_reach(net, policy, initial, 3, 4 * COUNT_MAX)
    assert err.value.symbol == "u"


def test_pool_and_marking_overflow_report_the_pool():
    net = Net.build(["a"], {"u": ({}, {"a": 1})})
    policy = ManaPolicy({"u": 0}, {"u": Multiset({"u": 1})})
    initial = ManaState(Multiset({"a": COUNT_MAX}), Multiset({"u": COUNT_MAX}))
    with pytest.raises(CountOverflowError) as err:
        mana_reach(net, policy, initial, 3, 4 * COUNT_MAX)
    assert err.value.symbol == "u"
    assert outcome(mana_reach, net, policy, initial, 3, 4 * COUNT_MAX) == \
        outcome(ref_mana_reach, net, policy, initial, 3, 4 * COUNT_MAX)


def test_two_marking_overflows_report_the_first_in_post_order():
    net = Net.build(["a", "b"], {"u": ({"a": 1}, Multiset({"b": 1, "a": 2}))})
    full = Multiset({"a": COUNT_MAX, "b": COUNT_MAX})
    with pytest.raises(CountOverflowError) as err:
        reach(net, full, 3, 4 * COUNT_MAX)
    assert (err.value.symbol, err.value.count) == ("b", COUNT_MAX + 1)
    assert outcome(reach, net, full, 3, 4 * COUNT_MAX) == \
        outcome(ref_reach, net, full, 3, 4 * COUNT_MAX)


def test_malformed_entries_raise_when_the_game_is_built():
    net = Net.build(["a"], {"u": ({"a": 1}, {})})
    idle = ManaState(Multiset(), Multiset())
    missing = ManaPolicy({}, {})
    assert outcome(mana_reach, net, missing, idle, 3, 5)[:2] == ("raised", UnknownSymbolError)
    for consume, error in ((True, TypeError), (-1, ValueError), (1.0, TypeError)):
        policy = ManaPolicy({"u": consume}, {"u": EMPTY})
        assert outcome(ManaGame, net, policy, idle)[:2] == ("raised", error)
        assert outcome(mana_reach, net, policy, idle, 3, 5) == \
            outcome(ref_mana_reach, net, policy, idle, 3, 5)
    with pytest.raises(TypeError):
        ManaGame(net, ManaPolicy({"u": 1}, {"u": {"u": 1}}), idle)
    unwired = Net(("a",), ("u",), {}, {"u": EMPTY})
    with pytest.raises(UnknownSymbolError):
        TokenGame(unwired, Multiset())
    with pytest.raises(UnknownSymbolError):
        ManaGame(unwired, ManaPolicy.plain(unwired), idle)
    with pytest.raises(TypeError):
        TokenGame(Net(("a",), ("u",), {"u": {"a": 1}}, {"u": EMPTY}), Multiset())


# -- the graph writer ----------------------------------------------------------------

NAMES = st.text(alphabet=st.sampled_from('ab"\\é→ \n\t 😀'), min_size=1, max_size=4)


def canonical(graph) -> str:
    return json.dumps(graph_to_json_dict(graph), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


@st.composite
def named_nets(draw):
    places = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    names = draw(st.lists(NAMES, max_size=3, unique=True).map(
        lambda ns: [n + "!" for n in ns]))
    arcs = {t: (draw(multisets(places)), draw(multisets(places))) for t in names}
    return Net.build(places, arcs)


def written(game, root, depth, bound) -> str:
    graph = explore(game, game.vector(root), depth_bound=depth, token_bound=bound)
    return emit_graph_json(game, graph, depth, bound)


@SETTINGS
@given(st.data())
def test_writer_is_byte_identical_to_json_dumps(data):
    net = data.draw(named_nets())
    depth = data.draw(st.integers(0, 4))
    bound = data.draw(st.one_of(st.integers(0, 6), st.just(4 * COUNT_MAX)))
    # A stray marking symbol, counts near COUNT_MAX whose firings may
    # overflow, and policy entries that are missing or invalid.
    initial = data.draw(multisets(list(net.places) + ["stray~"], counts))
    build, root, policy = game_and_root(data, net, initial)
    if policy is not None:
        library = outcome(mana_reach, net, policy, root, depth, bound)
    else:
        library = outcome(reach, net, root, depth, bound)
    if isinstance(library, ReachGraph):
        library = canonical(library)
    assert outcome(lambda: written(build(), root, depth, bound)) == library


def test_writer_empty_node_and_no_edges():
    net = Net.build(["A"], {})
    graph = reach(net, Multiset(), 3, 3)
    assert graph.nodes == (Multiset(),) and graph.edges == ()
    text = written(TokenGame(net, Multiset()), Multiset(), 3, 3)
    assert text == canonical(graph)
    assert '"nodes": [\n    {}\n  ]' in text
    assert '"edges": []' in text
