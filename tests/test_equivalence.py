import random

import pytest

from mananets import (EMPTY, ManaNet, ManaPolicy, ManaState, Multiset, Net,
                      ShapeViolationError, check_equivalence, enabled,
                      externalize, internal_construction, internalize,
                      mana_enabled, mana_net_from_built, object_to_state,
                      state_to_object)
from mananets import equivalence
from mananets.sampling import random_net, random_policy, random_state


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
    assert report.first_discrepancy == {
        "kind": "node", "side": "external-only",
        "value": {"mana:u2": 1, "mana:u3": 2, "mana:u4": 1, "p1": 1, "p2": 1}}


@pytest.mark.parametrize("seed", range(25))
def test_check_equivalence_random(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_places=4, max_transitions=3)
    policy = random_policy(rng, net, max_consume=2, max_produce_total=2)
    init = random_state(rng, net)
    report = check_equivalence(net, policy, init, 6, 12)
    assert report.isomorphic, report.first_discrepancy


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
