import random
from collections import Counter

import pytest

from mananets import (EMPTY, ManaPolicy, Multiset, NameClashError, Net, NetMorphism,
                      PolicyError, Trace, apply_functor,
                      apply_functor_to_marking, check_comonad_laws,
                      compose_functors, comultiplication, counit,
                      functor_of_net_morphism, generalized_internal_construction,
                      identity_functor, internal_construction,
                      iterated_construction, lift_functor,
                      occurrence_multiset, run_trace, validate_functor)
from mananets import internal
from mananets.functors import PresentedFunctor, compare_functors
from mananets.reports import law_result
from mananets.sampling import (random_marking, random_net, random_net_morphism,
                               random_trace)


def test_plain_construction_on_abc(abc_net, ms):
    built = internal_construction(abc_net).built
    assert built.places == ("A", "B", "C", "mana:u")
    assert built.transitions == ("u",)
    assert built.pre["u"] == ms(A=1, B=1) + Multiset({"mana:u": 1})
    assert built.post["u"] == ms(C=1)


def test_construction_without_transitions_is_identity():
    net = Net.build(["A", "B"], {})
    mn = internal_construction(net)
    assert mn.built == net


def test_two_transitions_two_mana_places():
    net = Net.build(["A"], {"u": ({"A": 1}, {}), "v": ({}, {"A": 1})})
    mn = internal_construction(net)
    assert mn.mana_place_of == {"u": "mana:u", "v": "mana:v"}
    assert len(set(mn.mana_place_of.values())) == 2


def test_name_clash_fails_fast():
    net = Net.build(["mana:u", "A"], {"u": ({"A": 1}, {})})
    with pytest.raises(NameClashError):
        internal_construction(net)


def test_plain_equals_generalized_with_plain_policy(loop_net):
    plain = internal_construction(loop_net)
    general = generalized_internal_construction(loop_net, ManaPolicy.plain(loop_net))
    assert plain == general


def test_catalyst_self_loop(loop_net, loop_policy):
    built = generalized_internal_construction(loop_net, loop_policy).built
    assert built.pre["u3"]["mana:u3"] == 1
    assert built.post["u3"]["mana:u3"] == 1


def test_cross_feeding_loop(loop_net, loop_policy):
    built = generalized_internal_construction(loop_net, loop_policy).built
    assert built.pre["u2"]["mana:u2"] == 2
    assert built.post["u2"]["mana:u4"] == 1
    assert built.pre["u4"]["mana:u4"] == 1
    assert built.post["u4"] == Multiset({"mana:u2": 1, "mana:u3": 1})


def test_zero_policy_adds_isolated_places(loop_net):
    policy = ManaPolicy.of(loop_net, {t: (0, {}) for t in loop_net.transitions})
    mn = generalized_internal_construction(loop_net, policy)
    for t in loop_net.transitions:
        assert mn.built.pre[t] == loop_net.pre[t]
        assert mn.built.post[t] == loop_net.post[t]
    assert set(mn.built.places) == set(loop_net.places) | set(mn.mana_place_of.values())


def test_policy_domain_mismatch_rejected(abc_net):
    with pytest.raises(PolicyError):
        generalized_internal_construction(abc_net, ManaPolicy({"x": 1}, {"x": EMPTY}))


@pytest.mark.parametrize("seed", range(10))
def test_construction_never_touches_compound_layer(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    from mananets.sampling import random_policy
    mn = generalized_internal_construction(net, random_policy(rng, net))
    base_places = set(net.places)
    for t in net.transitions:
        assert mn.built.pre[t].restrict(base_places) == net.pre[t]
        assert mn.built.post[t].restrict(base_places) == net.post[t]
        # plain mana partition: own place in pre only via consume
        for other in net.transitions:
            if other != t:
                assert mn.built.pre[t][mn.mana_place_of[other]] == 0


def test_counit_erases_mana_marking(abc_net):
    mn = internal_construction(abc_net)
    eps = counit(mn)
    marking = Multiset({"A": 1, "mana:u": 3})
    assert apply_functor_to_marking(eps, marking) == Multiset({"A": 1})


def test_counit_maps_built_firing_to_base_firing(abc_net, ms):
    mn = internal_construction(abc_net)
    eps = counit(mn)
    built_trace = Trace(mn.built, mn.built.pre["u"], ("u",))
    assert apply_functor(eps, built_trace) == Trace(abc_net, ms(A=1, B=1), ("u",))
    assert validate_functor(eps) == []


@pytest.mark.parametrize("seed", range(8))
def test_counit_inverts_padded_inclusion(seed):
    # pad a base trace with exactly the mana it needs, replay it in the
    # built net, erase the mana again: the original trace comes back.
    rng = random.Random(seed)
    net = random_net(rng)
    mn = internal_construction(net)
    trace = random_trace(rng, net, random_marking(rng, net, 4))
    needed = occurrence_multiset(trace)
    padded_initial = trace.initial + Multiset(
        {mn.mana_place_of[t]: count for t, count in needed.items()})
    padded = Trace(mn.built, padded_initial, trace.steps)
    run_trace(padded)  # must replay: every step has its mana
    assert apply_functor(counit(mn), padded) == trace


def test_comultiplication_duplicates_mana(abc_net):
    mn = internal_construction(abc_net)
    delta = comultiplication(mn)
    assert delta.object_map["mana:u"] == Multiset({"mana:u": 1, "outer-mana:u": 1})
    assert delta.object_map["A"] == Multiset({"A": 1})
    image = delta.morphism_map["u"]
    assert image.steps == ("u",)
    assert validate_functor(delta) == []


def test_comultiplication_rejects_generalized_policies(loop_net, loop_policy):
    mn = generalized_internal_construction(loop_net, loop_policy)
    with pytest.raises(PolicyError):
        comultiplication(mn)


def test_iterated_construction_freshens_names(abc_net):
    mn = internal_construction(abc_net)
    double = iterated_construction(mn)
    assert double.mana_place_of == {"u": "outer-mana:u"}
    triple = iterated_construction(double)
    assert triple.mana_place_of == {"u": "outer-outer-mana:u"}


def test_lift_identity_functor(abc_net):
    from mananets.functors import identity_functor, functors_equal
    mn = internal_construction(abc_net)
    lifted = lift_functor(identity_functor(abc_net))
    assert functors_equal(lifted, identity_functor(mn.built)) is True


def test_lift_functor_counts_occurrences(abc_net):
    # u maps to a trace firing v twice; its mana place must map to two
    # units of v's mana, as counted by an independent occurrence oracle.
    target = Net.build(["X"], {"v": ({"X": 1}, {"X": 1})})
    functor = PresentedFunctor(
        abc_net, target,
        {"A": Multiset({"X": 1}), "B": EMPTY, "C": Multiset({"X": 1})},
        {"u": Trace(target, Multiset({"X": 1}), ("v", "v"))},
    )
    assert validate_functor(functor) == []
    lifted = lift_functor(functor)
    oracle = Counter(functor.morphism_map["u"].steps)
    assert lifted.object_map["mana:u"] == Multiset({"mana:v": oracle["v"]})
    assert validate_functor(lifted) == []


def test_lift_functor_empty_image(abc_net):
    target = Net.build(["X"], {})
    functor = PresentedFunctor(
        abc_net, target,
        {"A": EMPTY, "B": EMPTY, "C": EMPTY},
        {"u": Trace(target, EMPTY, ())},
    )
    lifted = lift_functor(functor)
    assert lifted.object_map["mana:u"] == EMPTY


def test_comonad_laws_on_named_nets(atp_net, abc_net):
    for net in (atp_net, abc_net):
        report = check_comonad_laws(net)
        assert report.ok, report.results
        assert any("outer" in note for note in report.notes)


def test_comonad_laws_vacuous_on_empty_net():
    report = check_comonad_laws(Net.build([], {}))
    assert report.ok


@pytest.mark.parametrize("seed", range(10))
def test_comonad_laws_on_random_nets(seed):
    rng = random.Random(seed)
    report = check_comonad_laws(random_net(rng))
    assert report.ok, report.results


def test_law_names_are_stable(abc_net):
    report = check_comonad_laws(abc_net)
    assert [r.law for r in report.results] == [
        "left-counit", "right-counit", "coassociativity",
        "counit-naturality", "comultiplication-naturality"]


# -- shared builds against the per-morphism reference -------------------------


def reference_comonad_laws(net, morphisms=()):
    """The comonad check with every construction rebuilt where it is used.

    Constructions are looked up on the module at call time, so a
    monkeypatched construction reaches this reference and the library
    alike.
    """
    mn = internal.internal_construction(net)
    double = internal.iterated_construction(mn)
    triple = internal.iterated_construction(double)
    eps = internal.counit(mn)
    delta = internal.comultiplication(mn)
    results = []
    left = compose_functors(internal.lift_functor(eps, double, mn), delta)
    results.append(law_result("left-counit",
                              *compare_functors(left, identity_functor(mn.built))))
    right = compose_functors(internal.counit(double), delta)
    results.append(law_result("right-counit",
                              *compare_functors(right, identity_functor(mn.built))))
    path_outer = compose_functors(internal.comultiplication(double), delta)
    path_lifted = compose_functors(internal.lift_functor(delta, double, triple), delta)
    results.append(law_result("coassociativity",
                              *compare_functors(path_outer, path_lifted)))
    results.extend(reference_naturality_results(morphisms))
    return [r.to_json_dict() for r in results]


def reference_naturality_results(morphisms):
    counit_acc = delta_acc = (True, None)
    for index, morphism in enumerate(morphisms):
        functor = functor_of_net_morphism(morphism)
        smn = internal.internal_construction(morphism.source)
        tmn = internal.internal_construction(morphism.target)
        lifted = internal.lift_functor(functor, smn, tmn)

        lhs = compose_functors(internal.counit(tmn), lifted)
        rhs = compose_functors(functor, internal.counit(smn))
        counit_acc = internal._merge(*counit_acc, *compare_functors(lhs, rhs), index)

        sdd = internal.iterated_construction(smn)
        tdd = internal.iterated_construction(tmn)
        lifted_twice = internal.lift_functor(lifted, sdd, tdd)
        lhs = compose_functors(internal.comultiplication(tmn), lifted)
        rhs = compose_functors(lifted_twice, internal.comultiplication(smn))
        delta_acc = internal._merge(*delta_acc, *compare_functors(lhs, rhs), index)
    return [law_result("counit-naturality", *counit_acc),
            law_result("comultiplication-naturality", *delta_acc)]


def faulty_counit_on(bad_net, monkeypatch):
    """Make counit send the last transition's mana place of `bad_net` to a place."""
    real = internal.counit

    def faulty(mn):
        functor = real(mn)
        if mn.base != bad_net or not mn.base.transitions or not mn.base.places:
            return functor
        object_map = dict(functor.object_map)
        object_map[mn.mana_place_of[mn.base.transitions[-1]]] = \
            Multiset({mn.base.places[0]: 1})
        return PresentedFunctor(functor.source, functor.target, object_map,
                                functor.morphism_map)

    monkeypatch.setattr(internal, "counit", faulty)


def sampled_morphisms(rng, net):
    """Morphisms out of `net`, out of an equal copy of it and out of another net."""
    copy = Net(net.places, net.transitions, net.pre, net.post)
    other = random_net(rng)
    return ([random_net_morphism(rng, net) for _ in range(3)]
            + [random_net_morphism(rng, other), random_net_morphism(rng, copy)])


@pytest.mark.parametrize("seed", range(12))
def test_shared_builds_match_per_morphism_reference(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    morphisms = sampled_morphisms(rng, net)
    got = check_comonad_laws(net, morphisms).to_json_list()
    assert got == reference_comonad_laws(net, morphisms)
    assert all(entry["status"] == "pass" for entry in got)


@pytest.mark.parametrize("seed", range(12))
def test_shared_builds_match_reference_under_faulty_counit(seed, monkeypatch):
    rng = random.Random(seed)
    net = random_net(rng)
    morphisms = sampled_morphisms(rng, net)
    bad = rng.choice([net] + [m.target for m in morphisms] + [morphisms[3].source])
    faulty_counit_on(bad, monkeypatch)
    got = check_comonad_laws(net, morphisms).to_json_list()
    assert got == reference_comonad_laws(net, morphisms)


def test_faulty_counit_on_a_target_fails_naturality_at_its_index(loop_net, monkeypatch):
    rng = random.Random(1)
    morphisms = [random_net_morphism(rng, loop_net) for _ in range(4)]
    faulty_counit_on(morphisms[2].target, monkeypatch)
    got = check_comonad_laws(loop_net, morphisms).to_json_list()
    assert got == [
        {"law": "left-counit", "status": "pass"},
        {"law": "right-counit", "status": "pass"},
        {"law": "coassociativity", "status": "pass"},
        {"law": "counit-naturality", "status": "fail",
         "counterexample": {"morphism_index": 2, "kind": "object",
                            "generator": "mana:u4", "left": {"q0": 1}, "right": {}}},
        {"law": "comultiplication-naturality", "status": "pass"},
    ]
    assert got == reference_comonad_laws(loop_net, morphisms)


def test_faulty_counit_on_the_source_fails_every_square_it_serves(loop_net, monkeypatch):
    rng = random.Random(1)
    morphisms = [random_net_morphism(rng, loop_net) for _ in range(4)]
    faulty_counit_on(loop_net, monkeypatch)
    got = check_comonad_laws(loop_net, morphisms).to_json_list()
    assert got == [
        {"law": "left-counit", "status": "fail",
         "counterexample": {"kind": "object", "generator": "mana:u4",
                            "left": {"mana:u4": 1, "p1": 1}, "right": {"mana:u4": 1}}},
        {"law": "right-counit", "status": "pass"},
        {"law": "coassociativity", "status": "pass"},
        {"law": "counit-naturality", "status": "fail",
         "counterexample": {"morphism_index": 0, "kind": "object",
                            "generator": "mana:u4", "left": {}, "right": {"q0": 1}}},
        {"law": "comultiplication-naturality", "status": "pass"},
    ]
    assert got == reference_comonad_laws(loop_net, morphisms)


# -- repeated morphisms and nets ------------------------------------------------


def faulty_comultiplication_on(bad_net, monkeypatch):
    """Make comultiplication drop the outer copy of the first mana place of `bad_net`."""
    real = internal._comultiplication

    def faulty(mn, double):
        functor = real(mn, double)
        if mn.base != bad_net or not mn.base.transitions:
            return functor
        object_map = dict(functor.object_map)
        inner = mn.mana_place_of[mn.base.transitions[0]]
        object_map[inner] = Multiset({inner: 1})
        return PresentedFunctor(functor.source, functor.target, object_map,
                                functor.morphism_map)

    monkeypatch.setattr(internal, "_comultiplication", faulty)


def equal_copy(net):
    return Net(tuple(net.places), tuple(net.transitions), dict(net.pre), dict(net.post))


def repeating_morphisms(rng, net):
    """Morphisms that repeat: the same object twice, an equal copy, an equal
    target under other maps, and a repeated morphism out of another net.

    The remapped morphisms need not commute with the arcs, so their
    squares may fail; one of them maps into a net that differs from an
    earlier target only in its post-sets.
    """
    other = random_net(rng)
    first = random_net_morphism(rng, net)
    out_of_other = random_net_morphism(rng, other)
    copy = NetMorphism(equal_copy(net), equal_copy(first.target),
                       dict(first.transition_map), dict(first.place_map))
    target = first.target
    transition_map = {t: rng.choice(target.transitions) for t in net.transitions}
    place_map = {p: rng.choice(target.places) for p in net.places}
    remapped = NetMorphism(net, equal_copy(target), transition_map, place_map)
    other_post = Net(target.places, target.transitions, target.pre, target.pre)
    into_other_post = NetMorphism(net, other_post, transition_map, place_map)
    return [first, out_of_other, random_net_morphism(rng, net), first, copy,
            remapped, out_of_other, random_net_morphism(rng, other), remapped,
            into_other_post]


def distinct(items):
    found = []
    for item in items:
        if item not in found:
            found.append(item)
    return found


FAULTS = {"clean": None, "counit": faulty_counit_on,
          "comultiplication": faulty_comultiplication_on}


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("seed", range(12))
def test_repeated_morphisms_match_reference(seed, fault, monkeypatch):
    rng = random.Random(seed)
    net = random_net(rng)
    morphisms = repeating_morphisms(rng, net)
    if FAULTS[fault] is not None:
        bad = rng.choice([net] + [m.target for m in morphisms] + [morphisms[1].source])
        FAULTS[fault](bad, monkeypatch)
    built, checked = [], []
    real_built_side = internal._built_side
    real_functor_of = internal.functor_of_net_morphism

    def counting_built_side(side_net):
        built.append(side_net)
        return real_built_side(side_net)

    def counting_functor_of(morphism):
        checked.append(morphism)
        return real_functor_of(morphism)

    monkeypatch.setattr(internal, "_built_side", counting_built_side)
    monkeypatch.setattr(internal, "functor_of_net_morphism", counting_functor_of)
    got = check_comonad_laws(net, morphisms).to_json_list()
    assert checked == distinct(morphisms)
    assert built == distinct([net] + [side for m in morphisms for side in (m.source, m.target)])
    assert got == reference_comonad_laws(net, morphisms)
