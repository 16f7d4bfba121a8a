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
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mananets import (COUNT_MAX, EMPTY, CountOverflowError, EquivalenceReport,
                      ManaNet, ManaPolicy, ManaState, Multiset, NameClashError, Net,
                      UnknownSymbolError, check_equivalence, graph_to_json_dict,
                      internalize, mana_reach, reach, state_to_object)
from mananets import equivalence
from mananets.documents import emit_graph_json
from mananets.execution import ReachGraph, TokenGame, explore, order_nodes
from mananets.external import ManaGame, mana_enabled, mana_fire, span_of_transition
from mananets.net import lift_multiset_map

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
    root = state_to_object(mn, initial)
    ext = ref_mana_reach(net, policy, initial, depth_bound, token_bound)
    internal = ref_reach(mn.built, root, depth_bound, token_bound)
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

#: Counts on each side of the kernel's field-width edges: a node packs
#: into fields of 8, 16, 32 or 64 bits, guard bit included.
EDGES = (127, 128, 255, 256, 2**15 - 1, 2**15 + 1, 2**31 - 1, 2**31 + 1, 2**62)
edge_counts = st.sampled_from(EDGES)
counts = st.one_of(st.integers(0, 3), st.integers(0, 3), edge_counts,
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
    # A pre count at an edge or at COUNT_MAX may need more than a field holds.
    needs = st.one_of(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                      edge_counts, st.just(COUNT_MAX))
    pre = {t: draw(multisets(arc_symbols, needs)) for t in names}
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


bounds = st.tuples(st.integers(0, 5), st.one_of(st.integers(0, 8), edge_counts,
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


# -- faulty constructions --------------------------------------------------------
#
# Each fault rebuilds the built net of a sound ManaNet around transition
# `t` and, where it needs a second one, `w` (which may be `t`). The check
# and its reference must still agree on the verdict, the counts and the
# first discrepancy.


def rebuilt(mn, places=None, pre=None, post=None):
    b = mn.built
    built = Net(b.places if places is None else places, b.transitions,
                b.pre if pre is None else pre, b.post if post is None else post)
    return ManaNet(mn.base, built, mn.mana_place_of, mn.policy)


def drop_first_produce(mn, t, w):
    produce = mn.policy.produce[t]
    if not produce:
        return mn
    first = mn.mana_place_of[produce.support()[0]]
    return rebuilt(mn, post=dict(mn.built.post, **{t: mn.built.post[t].drop([first])}))


def consume_one_more(mn, t, w):
    more = Multiset({mn.mana_place_of[t]: 1})
    return rebuilt(mn, pre=dict(mn.built.pre, **{t: mn.built.pre[t] + more}))


def one_more_held(mn, t, w):
    """`t` needs one more unit of its mana and gives it back: only `pre` changes."""
    more = Multiset({mn.mana_place_of[t]: 1})
    return rebuilt(mn, pre=dict(mn.built.pre, **{t: mn.built.pre[t] + more}),
                   post=dict(mn.built.post, **{t: mn.built.post[t] + more}))


def produce_doubled(mn, t, w):
    again = lift_multiset_map(mn.mana_place_of, mn.policy.produce[t])
    return rebuilt(mn, post=dict(mn.built.post, **{t: mn.built.post[t] + again}))


def consume_moved(mn, t, w):
    own, other = mn.mana_place_of[t], mn.mana_place_of[w]
    pre = mn.built.pre[t]
    moved = pre.drop([own]) + Multiset({other: pre[own]})
    return rebuilt(mn, pre=dict(mn.built.pre, **{t: moved}))


def extra_post_place(name):
    def fault(mn, t, w):
        post = dict(mn.built.post, **{t: mn.built.post[t] + Multiset({name: 1})})
        return rebuilt(mn, places=mn.built.places + (name,), post=post)
    return fault


def renamed(old, new):
    """The built net with the place or transition `old` called `new` throughout."""
    def name(s):
        return new if s == old else s

    def fault(mn, t, w):
        b = mn.built
        pre, post = ({name(u): Multiset({name(s): c for s, c in m.items()})
                      for u, m in side.items()} for side in (b.pre, b.post))
        built = Net(tuple(map(name, b.places)), tuple(map(name, b.transitions)), pre, post)
        return ManaNet(mn.base, built, mn.mana_place_of, mn.policy)
    return fault


FAULTS = {
    "first-produce-dropped": drop_first_produce,
    "consume-plus-one": consume_one_more,
    "one-more-held": one_more_held,
    "produce-doubled": produce_doubled,
    "consume-moved-to-another-pool": consume_moved,
    "extra-post-place-first": extra_post_place("0extra"),
    "extra-post-place-last": extra_post_place("zextra"),
    "place-renamed": lambda mn, t, w: renamed(mn.base.places[0], "a'")(mn, t, w),
    "transition-renamed": lambda mn, t, w: renamed(t, t + "'")(mn, t, w),
}


def faulty(fault, t, w):
    """A construction, built as the sound one and then broken by `fault`."""
    sound = equivalence.generalized_internal_construction
    return mock.patch.object(equivalence, "generalized_internal_construction",
                             lambda net, policy: fault(sound(net, policy), t, w))


@st.composite
def small_cases(draw):
    """A net, a policy, a state and bounds, all small, so that most faults
    show within the window; the sound property above draws the errors and
    the counts near ``COUNT_MAX``."""
    places = draw(st.lists(st.sampled_from(PLACES), min_size=1, unique=True))
    names = draw(st.lists(st.sampled_from(TRANSITIONS), min_size=1, unique=True))
    net = Net(tuple(places), tuple(names), {t: draw(multisets(places)) for t in names},
              {t: draw(arcs(places)) for t in names})
    initial = ManaState(draw(multisets(places, st.integers(1, 3), min_size=1)),
                        draw(multisets(names, st.integers(1, 3), min_size=1)))
    return (net, draw(policies(net)), initial, draw(st.integers(1, 5)),
            initial.size() + draw(st.integers(0, 8)))


@st.composite
def any_cases(draw):
    net = draw(nets(stray_arcs=draw(st.booleans())))
    assume(net.transitions)
    initial = ManaState(draw(markings), draw(pools(net)))
    return (net, draw(policies(net)), initial, *draw(bounds))


@pytest.mark.parametrize("fault", sorted(FAULTS))
@settings(SETTINGS, max_examples=50)
@given(st.one_of(small_cases(), any_cases()), st.data())
def test_check_equivalence_matches_reference_on_a_faulty_construction(fault, case, data):
    net, policy, initial, depth, bound = case
    t, w = (data.draw(st.sampled_from(net.transitions)) for _ in range(2))
    with faulty(FAULTS[fault], t, w):
        assert outcome(check_equivalence, *case) == outcome(ref_check_equivalence, *case)


TWO_WAY = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1}), "v": ({"B": 1}, {"A": 1})})


@pytest.mark.parametrize("fault, isomorphic", [
    # A place outside the mana game, which sorts after every other one
    # or before: each side must be read in its own coordinates.
    (extra_post_place("zextra"), False),
    (extra_post_place("0extra"), False),
    # Steps equal coordinate by coordinate; only the names differ.
    (renamed("B", "B'"), False),
    (renamed("u", "u'"), False),
    # A place no arc touches: the coordinates differ, the windows do not.
    (lambda mn, t, w: rebuilt(mn, places=mn.built.places + ("zextra",)), True),
], ids=["extra-place-last", "extra-place-first", "place-renamed", "transition-renamed",
        "isolated-place-last"])
def test_a_faulty_built_net_is_judged_as_the_reference_judges_it(fault, isomorphic):
    policy = ManaPolicy.plain(TWO_WAY)
    initial = ManaState(Multiset({"A": 1}), Multiset({"u": 1, "v": 1}))
    with faulty(fault, "u", "v"):
        report = check_equivalence(TWO_WAY, policy, initial, 4, 10)
        assert report == ref_check_equivalence(TWO_WAY, policy, initial, 4, 10)
    assert report.isomorphic is isomorphic


def test_a_built_net_with_other_coordinates_is_decided_on_generators(monkeypatch):
    """A place no arc touches: the coordinates differ, but the steps agree
    by name and the place stays empty, so the built net is not explored."""
    explored = []

    def counting(game, *args, **kwargs):
        explored.append(type(game))
        return explore(game, *args, **kwargs)

    monkeypatch.setattr(equivalence, "explore", counting)
    policy = ManaPolicy.plain(TWO_WAY)
    initial = ManaState(Multiset({"A": 1}), Multiset({"u": 1, "v": 1}))
    with faulty(lambda mn, t, w: rebuilt(mn, places=mn.built.places + ("zextra",)), "u", "v"):
        report = check_equivalence(TWO_WAY, policy, initial, 4, 10)
        assert report == ref_check_equivalence(TWO_WAY, policy, initial, 4, 10)
    assert report.isomorphic
    assert explored == [ManaGame]


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
    assert list(graph.vectors(graph.nodes[:1])) == [game.vector(root)]
    discovered_by = {}
    for s, _, d in graph.edges:
        discovered_by.setdefault(d, s)
    assert all(discovered_by[d] < d for d in range(1, len(graph.nodes)))
    order, rank = order_nodes(game, graph)
    nodes = tuple(map(game.state, graph.vectors([graph.nodes[s] for s in order])))
    first = graph.first
    edges = tuple((nodes[r], graph.labels[e], nodes[rank[graph.targets[e]]])
                  for r, s in enumerate(order) for e in range(first[s], first[s + 1]))
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


def test_mana_nodes_sort_by_marking_then_pool():
    """({a:1}|{v:1}) sorts before ({a:1,b:1}|{}): the markings decide, as
    ``ManaState.sort_key`` does. One key over marking and pool together
    would put the pool's v after the marking's b and flip the two."""
    net = Net.build(["a", "b"], {"u": ({"b": 1}, {}), "v": ({}, {})})
    policy = ManaPolicy.of(net, {"u": (0, {"v": 1}), "v": (1, EMPTY)})
    root = ManaState(Multiset({"a": 1, "b": 1}), EMPTY)
    nodes = mana_reach(net, policy, root, 3, 10).nodes
    assert nodes == (ManaState(Multiset({"a": 1}), EMPTY),
                     ManaState(Multiset({"a": 1}), Multiset({"v": 1})),
                     ManaState(Multiset({"a": 1, "b": 1}), EMPTY))
    assert nodes == ref_mana_reach(net, policy, root, 3, 10).nodes


@pytest.mark.parametrize("pre", [{"a": 1}, {}], ids=["t0-needs-a", "t0-free"])
def test_marking_on_a_mana_place_name_is_refused(pre):
    """A marking symbol named like a mana place would merge with that pool.

    With ``t0: {} -> {}`` the merged layout is not one-to-one: the mana
    game sees one unit of t0's mana and the built net three, so the two
    windows differ though the construction is sound. Both the check and
    its reference refuse the state instead.
    """
    net = Net.build(["a"], {"t0": (pre, {})})
    policy = ManaPolicy.plain(net)
    initial = ManaState(Multiset({"a": 1, "mana:t0": 2}), Multiset({"t0": 1}))
    for check in (check_equivalence, ref_check_equivalence):
        with pytest.raises(NameClashError) as err:
            check(net, policy, initial, 3, 10)
        assert err.value.name == "mana:t0"


def test_pool_overflow_after_relabelling_names_the_pool_symbol():
    """u's pool is the mana game's last coordinate, and mana:u, sorting before
    z, is the built net's first: the overflow names the mana game's symbol."""
    net = Net.build(["z"], {"u": ({}, {})})
    policy = ManaPolicy({"u": 0}, {"u": Multiset({"u": 1})})
    initial = ManaState(Multiset({"z": 1}), Multiset({"u": COUNT_MAX}))
    with pytest.raises(CountOverflowError) as err:
        check_equivalence(net, policy, initial, 3, 4 * COUNT_MAX)
    assert err.value.symbol == "u"
    assert outcome(check_equivalence, net, policy, initial, 3, 4 * COUNT_MAX) == \
        outcome(ref_check_equivalence, net, policy, initial, 3, 4 * COUNT_MAX)


def test_count_overflow_is_reported_with_its_symbol():
    net = Net.build(["a"], {"u": ({}, {"a": 1})})
    full = Multiset({"a": COUNT_MAX})
    for bound in (4 * COUNT_MAX, 0):  # expanded root, and root cut at the token bound
        with pytest.raises(CountOverflowError) as err:
            reach(net, full, 3, bound)
        assert err.value.symbol == "a"
        assert outcome(reach, net, full, 3, bound) == outcome(ref_reach, net, full, 3, bound)


# A root that is not expanded, cut at the token bound or at depth 0.
CUT_BOUNDS = pytest.mark.parametrize("depth, bound", [(3, 0), (0, 4 * COUNT_MAX)],
                                     ids=["token-bound", "depth-bound"])


@CUT_BOUNDS
def test_a_cut_node_checks_only_its_first_enabled_firing_for_overflow(depth, bound):
    """u, enabled first, changes nothing; v would push b past COUNT_MAX, but
    a node that is not expanded is only asked whether some firing exists."""
    net = Net.build(["a", "b"], {"u": ({"a": 1}, {"a": 1}), "v": ({}, {"b": 1})})
    root = Multiset({"a": 1, "b": COUNT_MAX})
    graph = reach(net, root, depth, bound)
    assert graph.nodes == (root,) and graph.edges == () and graph.truncated
    assert outcome(reach, net, root, depth, bound) == outcome(ref_reach, net, root, depth, bound)


@CUT_BOUNDS
def test_a_cut_node_whose_first_enabled_firing_overflows_raises(depth, bound):
    net = Net.build(["a", "b"], {"u": ({}, {"b": 1}), "v": ({"a": 1}, {"a": 1})})
    root = Multiset({"a": 1, "b": COUNT_MAX})
    with pytest.raises(CountOverflowError) as err:
        reach(net, root, depth, bound)
    assert (err.value.symbol, err.value.count) == ("b", COUNT_MAX + 1)
    assert outcome(reach, net, root, depth, bound) == outcome(ref_reach, net, root, depth, bound)


def test_a_firing_that_fills_the_token_bound_exactly_is_kept():
    """From a: 1 under bound 3, u's growth of 2 is exactly the room left."""
    net = Net.build(["a"], {"u": ({}, {"a": 2})})
    root = Multiset({"a": 1})
    graph = reach(net, root, 3, 3)
    assert graph.edges == ((root, "u", Multiset({"a": 3})),) and graph.truncated
    assert graph == ref_reach(net, root, 3, 3)


def test_edges_are_counted_as_they_are_iterated(loop_net, ms):
    """The flat firing arrays: one offset per node and a closing one, and
    ``graph.edges`` has one triple per firing, read from its node's range."""
    game = TokenGame(loop_net, ms(p1=2))
    graph = explore(game, game.vector(ms(p1=2)), depth_bound=6, token_bound=8)
    assert len(graph.first) == len(graph.nodes) + 1
    assert graph.first[0] == 0 and graph.first[-1] == len(graph.targets)
    assert graph.edges == [(s, graph.labels[e], graph.targets[e])
                           for s in range(len(graph.nodes))
                           for e in range(graph.first[s], graph.first[s + 1])]
    assert len(graph.edges) == len(graph.labels) > 0
    assert len(ref_reach(loop_net, ms(p1=2), 6, 8).edges) == len(graph.edges)


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
    # A stray marking symbol and counts near COUNT_MAX whose firings may overflow.
    initial = data.draw(multisets(list(net.places) + ["stray~"], counts))
    library = outcome(reach, net, initial, depth, bound)
    if isinstance(library, ReachGraph):
        library = canonical(library)
    assert outcome(lambda: written(TokenGame(net, initial), initial, depth, bound)) == library


def test_writer_empty_node_and_no_edges():
    net = Net.build(["A"], {})
    graph = reach(net, Multiset(), 3, 3)
    assert graph.nodes == (Multiset(),) and graph.edges == ()
    text = written(TokenGame(net, Multiset()), Multiset(), 3, 3)
    assert text == canonical(graph)
    assert '"nodes": [\n    {}\n  ]' in text
    assert '"edges": []' in text


WRITER_NET = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1}), "v": ({"B": 1}, {})})
EMPTY_NET = Net.build([], {"t": ({}, {})})


@pytest.mark.parametrize("net, marking, bound, width", [
    # v empties the marking: an empty node that an edge leads to.
    pytest.param(WRITER_NET, {"B": 1}, 4, 8, id="empty-marking"),
    # One root at each field width; the root is also a node's largest count.
    pytest.param(WRITER_NET, {"A": 100}, 100, 8, id="width-8"),
    pytest.param(WRITER_NET, {"A": 200}, 200, 16, id="width-16"),
    pytest.param(WRITER_NET, {"A": 2**15 + 1}, 2**15 + 1, 32, id="width-32"),
    pytest.param(WRITER_NET, {"A": 2**31 + 1}, 2**31 + 1, 64, id="width-64"),
    # No coordinate at all: every node is the empty vector.
    pytest.param(EMPTY_NET, {}, 3, 8, id="no-coordinates"),
])
def test_writer_edge_cases(net, marking, bound, width):
    root = Multiset(marking)
    game = TokenGame(net, root)
    assert explore(game, game.vector(root), depth_bound=3, token_bound=bound).width == width
    assert written(game, root, 3, bound) == canonical(reach(net, root, 3, bound))
