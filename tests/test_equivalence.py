import random
from pathlib import Path

import pytest

from mananets import (EMPTY, EquivalenceReport, ManaNet, ManaPolicy, ManaState, Multiset,
                      NameClashError, Net, ShapeViolationError, check_equivalence, enabled,
                      externalize, internal_construction, internalize,
                      mana_enabled, mana_net_from_built, object_to_state,
                      state_to_object)
from mananets import equivalence
from mananets.documents import parse_json
from mananets.execution import TokenGame, explore
from mananets.external import ManaGame
from mananets.sampling import random_net, random_policy, random_state

DATA = Path(__file__).parent / "data"


def test_internalize_plain_matches_drawn_net(abc_net):
    mn = internalize(abc_net, ManaPolicy.plain(abc_net))
    assert mn == internal_construction(abc_net)


def test_internalize_generalized_matches_drawn_net(loop_net, loop_policy):
    built = internalize(loop_net, loop_policy).built
    assert built.pre["u3"]["mana:u3"] == 1
    assert built.post["u3"]["mana:u3"] == 1
    assert built.post["u4"] == Multiset({"mana:u2": 1, "mana:u3": 1})


def test_internalize_empty_net():
    empty = Net.build([], {})
    assert internalize(empty, ManaPolicy.plain(empty)).built == empty


def test_state_to_object_examples(abc_net, ms):
    mn = internalize(abc_net, ManaPolicy.plain(abc_net))
    assert state_to_object(mn, ManaState(ms(A=1, B=1), ms(u=2))) == \
        Multiset({"A": 1, "B": 1, "mana:u": 2})
    assert state_to_object(mn, ManaState(EMPTY, EMPTY)) == EMPTY
    assert state_to_object(mn, ManaState(ms(A=3), EMPTY)) == ms(A=3)


def test_state_to_object_refuses_a_marking_on_a_mana_place(ms):
    """Such a marking would merge with its pool, and the map would not be
    one-to-one; the least clashing symbol is named."""
    net = Net.build(["A"], {"u": ({"A": 1}, {}), "v": ({}, {"A": 1})})
    mn = internalize(net, ManaPolicy.plain(net))
    with pytest.raises(NameClashError) as err:
        state_to_object(mn, ManaState(ms(A=1, **{"mana:v": 1, "mana:u": 2}), ms(u=1)))
    assert err.value.name == "mana:u"
    assert state_to_object(mn, ManaState(ms(A=1, **{"mana:w": 1}), ms(u=1))) == \
        Multiset({"A": 1, "mana:u": 1, "mana:w": 1})


@pytest.mark.parametrize("seed", range(10))
def test_state_to_object_monoidal_and_injective(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    mn = internalize(net, random_policy(rng, net))
    s1 = random_state(rng, net)
    s2 = random_state(rng, net)
    combined = ManaState(s1.marking + s2.marking, s1.pool + s2.pool)
    assert state_to_object(mn, combined) == \
        state_to_object(mn, s1) + state_to_object(mn, s2)
    assert object_to_state(mn, state_to_object(mn, s1)) == s1


def test_externalize_inverts_plain(abc_net):
    policy = ManaPolicy.plain(abc_net)
    base, recovered = externalize(internalize(abc_net, policy))
    assert base == abc_net
    assert recovered == policy


def test_externalize_recovers_catalyst(loop_net, loop_policy):
    base, recovered = externalize(internalize(loop_net, loop_policy))
    assert base == loop_net
    assert recovered.consume["u3"] == 1
    assert recovered.produce["u3"] == Multiset({"u3": 1})


def test_mana_net_from_built_shape_violation(abc_net):
    mn = internalize(abc_net, ManaPolicy.plain(abc_net))
    tampered = Net.build(
        list(mn.built.places) + ["mana:v"],
        {"u": (mn.built.pre["u"] + Multiset({"mana:v": 1}), mn.built.post["u"]),
         "v": (Multiset({"mana:v": 1}), EMPTY)},
    )
    with pytest.raises(ShapeViolationError) as err:
        mana_net_from_built(tampered)
    assert err.value.transition == "u"


def test_mana_net_from_built_requires_labelled_places(abc_net):
    with pytest.raises(ShapeViolationError):
        mana_net_from_built(abc_net)  # no mana:u place at all


@pytest.mark.parametrize("seed", range(40))
def test_round_trip_random(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    base, recovered = externalize(internalize(net, policy))
    assert base == net
    assert recovered == policy


def hand_mana_bfs(net, policy, initial, depth, bound):
    """Independent exploration of the mana token game, layer by layer."""
    from mananets import mana_fire

    nodes = {initial}
    edges = set()
    frontier = [initial]
    for _ in range(depth):
        nxt = []
        for state in frontier:
            for t in net.transitions:
                if not mana_enabled(net, policy, state, t):
                    continue
                target = mana_fire(net, policy, state, t)
                if target.marking.total() + target.pool.total() > bound:
                    continue
                edges.add((state, t, target))
                if target not in nodes:
                    nodes.add(target)
                    nxt.append(target)
        frontier = nxt
    return nodes, edges


def test_mana_reach_matches_hand_bfs(abc_net, loop_net, loop_policy, ms):
    from mananets import mana_reach

    cases = [
        (abc_net, ManaPolicy.plain(abc_net),
         ManaState(ms(A=2, B=2), ms(u=1)), 6, 12),
        (loop_net, loop_policy,
         ManaState(ms(p1=1, p3=1), ms(u2=2, u3=1, u4=1)), 5, 14),
    ]
    for net, policy, initial, depth, bound in cases:
        graph = mana_reach(net, policy, initial, depth, bound)
        nodes, edges = hand_mana_bfs(net, policy, initial, depth, bound)
        assert set(graph.nodes) == nodes
        assert set(graph.edges) == edges


def test_check_equivalence_plain_example(abc_net, ms):
    report = check_equivalence(abc_net, ManaPolicy.plain(abc_net),
                               ManaState(ms(A=1, B=1), ms(u=2)), 4, 12)
    assert report.isomorphic
    assert report.ext_nodes == report.int_nodes == 2
    assert report.ext_edges == report.int_edges == 1
    assert report.first_discrepancy is None


def test_check_equivalence_generalized(loop_net, loop_policy, ms):
    init = ManaState(ms(p1=1, p3=1), ms(u2=2, u3=1, u4=1))
    report = check_equivalence(loop_net, loop_policy, init, 6, 14)
    assert report.isomorphic, report.first_discrepancy


def test_check_equivalence_empty_pool(abc_net, ms):
    report = check_equivalence(abc_net, ManaPolicy.plain(abc_net),
                               ManaState(ms(A=1, B=1), EMPTY), 4, 12)
    assert report.isomorphic
    assert report.ext_nodes == report.int_nodes == 1
    assert report.ext_edges == report.int_edges == 0


def test_check_equivalence_catches_a_faulty_construction(monkeypatch, loop_net, loop_policy,
                                                         ms):
    """Dropping u4's feed of u3's mana from the built net must not go unseen."""
    sound = equivalence.internalize

    def faulty(net, policy):
        mn = sound(net, policy)
        post = dict(mn.built.post)
        post["u4"] = post["u4"].drop(["mana:u3"])
        built = Net(mn.built.places, mn.built.transitions, mn.built.pre, post)
        return ManaNet(mn.base, built, mn.mana_place_of, mn.policy)

    monkeypatch.setattr(equivalence, "internalize", faulty)
    report = check_equivalence(loop_net, loop_policy,
                               ManaState(ms(p1=3), ms(u2=2, u3=1, u4=1)), 12, 20)
    assert report.to_json_dict()["isomorphic"] is False
    needs = {"p4": 1, "mana:u4": 1}
    assert report.first_discrepancy == {
        "kind": "generator", "transition": "u4",
        "external": {"needs": needs,
                     "changes": {"p4": -1, "mana:u2": 1, "mana:u3": 1, "mana:u4": -1}},
        "internal": {"needs": needs, "changes": {"p4": -1, "mana:u2": 1, "mana:u4": -1}}}


CATALYST = Net.build(["A"], {"u": ({"A": 1}, {"A": 1}), "v": ({"A": 1}, {"A": 1})})
CATALYST_POLICY = ManaPolicy.of(CATALYST, {"u": (1, {"u": 1}), "v": (1, {})})
#: The witness of the catalyst built to need two units of its mana.
HELD_TWICE = {"kind": "generator", "transition": "u",
              "external": {"needs": {"A": 1, "mana:u": 1}, "changes": {}},
              "internal": {"needs": {"A": 1, "mana:u": 2}, "changes": {}}}


def held_twice(monkeypatch):
    """Build u to need two units of its mana, and to give both back."""
    sound = equivalence.internalize

    def faulty(net, policy):
        mn = sound(net, policy)
        extra = Multiset({"mana:u": 1})
        pre = dict(mn.built.pre, u=mn.built.pre["u"] + extra)
        post = dict(mn.built.post, u=mn.built.post["u"] + extra)
        built = Net(mn.built.places, mn.built.transitions, pre, post)
        return ManaNet(mn.base, built, mn.mana_place_of, mn.policy)

    monkeypatch.setattr(equivalence, "internalize", faulty)


def test_check_equivalence_catches_a_faulty_firing(monkeypatch, ms):
    """A catalyst built to need two units of its mana, and to give both back.

    Both sides find the same nodes, since the catalyst loops back to
    where it starts; only its firings differ.
    """
    held_twice(monkeypatch)
    report = check_equivalence(CATALYST, CATALYST_POLICY, ManaState(ms(A=1), ms(u=1, v=1)),
                               4, 10)
    assert not report.isomorphic
    assert (report.ext_nodes, report.int_nodes, report.ext_edges, report.int_edges) == \
        (2, 2, 3, 1)
    assert report.first_discrepancy == HELD_TWICE


#: (ext_nodes, int_nodes, ext_edges, int_edges) of each window.
@pytest.mark.parametrize("pool, depth, counts", [
    # Depth 0: neither window has a firing.
    ({"u": 1, "v": 1}, 0, (1, 1, 0, 0)),
    # Two units of u's mana: the faulty u fires wherever the sound one does.
    ({"u": 2, "v": 1}, 4, (2, 2, 3, 3)),
], ids=["depth-0", "two-units-of-mana"])
def test_a_mismatch_the_window_does_not_reach_is_not_isomorphic(monkeypatch, ms, pool,
                                                                depth, counts):
    """Equal windows do not make a faulty construction sound: the steps decide."""
    held_twice(monkeypatch)
    report = check_equivalence(CATALYST, CATALYST_POLICY, ManaState(ms(A=1), ms(**pool)),
                               depth, 10)
    assert report == EquivalenceReport(False, *counts, HELD_TWICE)


def explored_window(game, root, depth, bound, lay_out=lambda state: state):
    """Explore `game` from `root`: its graph, and its window of built-net states.

    The firings are read from the graph's flat arrays, so the window does
    not rest on ``VectorGraph.edges``."""
    graph = explore(game, game.vector(root), depth_bound=depth, token_bound=bound)
    states = [lay_out(game.state(v)) for v in graph.vectors(graph.nodes)]
    first, labels, targets = graph.first, graph.labels, graph.targets
    return graph, (set(states), {(states[s], labels[e], states[targets[e]])
                                 for s in range(len(states))
                                 for e in range(first[s], first[s + 1])})


def two_window_report(net, policy, initial, depth, bound):
    """Explore both sides and compare the two windows, with no decision on generators."""
    mn = internalize(net, policy)
    root = state_to_object(mn, initial)
    ext, ext_window = explored_window(ManaGame(net, policy, initial), initial, depth, bound,
                                      lambda state: state_to_object(mn, state))
    internal, int_window = explored_window(TokenGame(mn.built, root), root, depth, bound)
    return EquivalenceReport(ext_window == int_window, len(ext.nodes), len(internal.nodes),
                             len(ext.targets), len(internal.targets), None)


def assert_decided_on_generators(monkeypatch, net, policy, initial, depth, bound):
    """check_equivalence accepts a sound construction after one exploration,
    with the report that exploring both sides and comparing the windows gives."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return explore(*args, **kwargs)

    monkeypatch.setattr(equivalence, "explore", counting)
    report = check_equivalence(net, policy, initial, depth, bound)
    assert report.isomorphic, report.first_discrepancy
    assert len(calls) == 1
    assert report == two_window_report(net, policy, initial, depth, bound)


@pytest.mark.parametrize("seed", range(25))
def test_check_equivalence_random(monkeypatch, seed):
    rng = random.Random(seed)
    net = random_net(rng, max_places=4, max_transitions=3)
    policy = random_policy(rng, net, max_consume=2, max_produce_total=2)
    init = random_state(rng, net)
    assert_decided_on_generators(monkeypatch, net, policy, init, 6, 12)


@pytest.mark.parametrize("name, depth, bound", [
    ("ring6", 8, 12), ("loop", 10, 10), ("pump", 6, 127), ("pump", 6, 128)])
def test_golden_equiv_inputs_are_found_in_one_order(monkeypatch, name, depth, bound):
    """A sound construction needs no search of the built net on the golden inputs."""
    doc = parse_json((DATA / f"{name}.json").read_bytes())
    policy = doc.policy if doc.policy is not None else ManaPolicy.plain(doc.net)
    initial = ManaState(doc.marking or EMPTY, doc.pool or EMPTY)
    assert_decided_on_generators(monkeypatch, doc.net, policy, initial, depth, bound)


def test_a_stray_marking_symbol_is_decided_on_generators(monkeypatch):
    """x is no place of the net and sorts between mana:u and z, so every
    coordinate has another rank in each game; the steps still compare by name."""
    net = Net.build(["z"], {"u": ({"z": 1}, {"z": 1})})
    initial = ManaState(Multiset({"x": 1, "z": 1}), Multiset({"u": 2}))
    assert_decided_on_generators(monkeypatch, net, ManaPolicy.plain(net), initial, 4, 10)


@pytest.mark.parametrize("seed", range(15))
def test_enabledness_transfers(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    mn = internalize(net, policy)
    state = random_state(rng, net)
    marking = state_to_object(mn, state)
    for t in net.transitions:
        assert mana_enabled(net, policy, state, t) == enabled(mn.built, marking, t)


def test_report_json_keys(abc_net, ms):
    report = check_equivalence(abc_net, ManaPolicy.plain(abc_net),
                               ManaState(ms(A=1, B=1), ms(u=1)), 3, 10)
    assert set(report.to_json_dict()) == {
        "isomorphic", "ext_nodes", "int_nodes", "ext_edges", "int_edges",
        "first_discrepancy"}
