import random
from collections import Counter

import pytest

from mananets import (EMPTY, ManaPolicy, mana_place_name, Multiset, NameClashError, Net, NetMorphism,
                      PolicyError, Trace, apply_functor,
                      apply_functor_to_marking, check_comonad_laws,
                      compose_functors, comultiplication, counit,
                      functor_of_net_morphism, generalized_internal_construction,
                      identity_functor, internal_construction,
                      iterated_construction, lift_functor,
                      occurrence_multiset, run_trace, validate_functor,
                      validate_policy)
from mananets import functors, internal
from mananets.execution import trace_equivalent
from mananets.functors import PresentedFunctor, compare_functors
from mananets.multiset import COUNT_MAX
from mananets.net import lift_multiset_map
from mananets.reports import law_result
from mananets.sampling import (random_marking, random_net, random_net_morphism,
                               random_policy, random_trace)


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
    mn = generalized_internal_construction(net, random_policy(rng, net))
    base_places = set(net.places)
    for t in net.transitions:
        assert mn.built.pre[t].restrict(base_places) == net.pre[t]
        assert mn.built.post[t].restrict(base_places) == net.post[t]
        # plain mana partition: own place in pre only via consume
        for other in net.transitions:
            if other != t:
                assert mn.built.pre[t][mn.mana_place_of[other]] == 0


class Count(int):
    """An int subclass, which Multiset accepts as a count."""


class Pool(Multiset):
    """A Multiset subclass."""


ODD_CONSUME = [0, 1, 2, 3, COUNT_MAX, COUNT_MAX + 1, True, 1.0, Count(2)]


def built_by_multiset_arithmetic(net, policy):
    """The plain-named build with every arc summed as a Multiset.

    The policy is validated first, as the construction does.
    """
    problems = validate_policy(net, policy)
    if problems:
        raise PolicyError(problems[0])
    mana = {t: mana_place_name(t) for t in net.transitions}
    return Net(net.places + tuple(mana.values()), net.transitions,
               {t: net.pre[t] + Multiset({mana[t]: policy.consume[t]})
                for t in net.transitions},
               {t: net.post[t] + lift_multiset_map(mana, policy.produce[t])
                for t in net.transitions})


def build_outcome(build):
    try:
        return build()
    except Exception as err:  # the error itself is what is compared
        return type(err), str(err)


@pytest.mark.parametrize("seed", range(24))
def test_construction_matches_multiset_arithmetic(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    if seed % 3:
        policy = ManaPolicy(
            {t: rng.choice(ODD_CONSUME) for t in net.transitions},
            {t: Pool(p.as_dict()) if rng.random() < 0.3 else p
             for t, p in policy.produce.items()})
    got = build_outcome(lambda: generalized_internal_construction(net, policy).built)
    assert got == build_outcome(lambda: built_by_multiset_arithmetic(net, policy))


@pytest.mark.parametrize("consume, produce, shown", [
    (True, EMPTY, "True"), (1.0, EMPTY, "1.0"), ("1", EMPTY, "'1'"),
    (1, {"u": 1}, "{'u': 1}")])
def test_odd_policy_entries_are_reported_not_crashed_on(abc_net, consume, produce, shown):
    policy = ManaPolicy({"u": consume}, {"u": produce})
    problems = validate_policy(abc_net, policy)
    assert len(problems) == 1 and problems[0].endswith(shown)
    with pytest.raises(PolicyError):
        generalized_internal_construction(abc_net, policy)


def test_int_subclass_consume_passes_validation(abc_net):
    assert validate_policy(abc_net, ManaPolicy({"u": Count(2)}, {"u": EMPTY})) == []


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


# -- the PresentedFunctor reference path -----------------------------------------
#
# The functor algebra as it ran before the generator form: every functor a
# PresentedFunctor, every image a Trace, every count a Multiset. Only the net
# constructions are shared with the library, and every construction is rebuilt
# where it is used. Functions are looked up in this module at call time, so
# install_fault reaches them.


def reference_apply(functor, trace):
    initial = lift_multiset_map(functor.object_map, trace.initial)
    steps = []
    for transition in trace.steps:
        if transition not in functor.morphism_map:
            raise KeyError(f"functor has no image for transition {transition!r}")
        steps.extend(functor.morphism_map[transition].steps)
    return Trace(functor.target, initial, tuple(steps))


def reference_compose(outer, inner):
    if inner.target != outer.source:
        raise ValueError("functors are not composable: target/source nets differ")
    return PresentedFunctor(
        inner.source, outer.target,
        {p: lift_multiset_map(outer.object_map, image)
         for p, image in inner.object_map.items()},
        {t: reference_apply(outer, image) for t, image in inner.morphism_map.items()},
    )


def reference_compare(left, right):
    """The witness of the first mismatch, or None when the functors are equal."""
    if left.source != right.source or left.target != right.target:
        return {"kind": "boundary", "detail": "source or target nets differ"}
    for p in left.source.places:
        if left.object_map[p] != right.object_map[p]:
            return {"kind": "object", "generator": p,
                    "left": left.object_map[p].as_dict(),
                    "right": right.object_map[p].as_dict()}
    for t in left.source.transitions:
        a, b = left.morphism_map[t], right.morphism_map[t]
        if not trace_equivalent(a, b):
            return {"kind": "morphism", "generator": t,
                    "left": {"initial": a.initial.as_dict(), "steps": list(a.steps)},
                    "right": {"initial": b.initial.as_dict(), "steps": list(b.steps)}}
    return None


def reference_identity(net):
    return PresentedFunctor(net, net, {p: Multiset({p: 1}) for p in net.places},
                            {t: Trace(net, net.pre[t], (t,)) for t in net.transitions})


def reference_functor_of_net_morphism(morphism):
    tgt = morphism.target
    return PresentedFunctor(
        morphism.source, tgt,
        {p: Multiset({morphism.place_map[p]: 1}) for p in morphism.source.places},
        {t: Trace(tgt, tgt.pre[morphism.transition_map[t]], (morphism.transition_map[t],))
         for t in morphism.source.transitions},
    )


def reference_counit(mn):
    base = mn.base
    object_map = {p: Multiset({p: 1}) for p in base.places}
    for t in base.transitions:
        object_map[mn.mana_place_of[t]] = EMPTY
    return PresentedFunctor(mn.built, base, object_map,
                            {t: Trace(base, base.pre[t], (t,)) for t in base.transitions})


def reference_comultiplication(mn, double):
    object_map = {p: Multiset({p: 1}) for p in mn.base.places}
    for t in mn.built.transitions:
        inner = mn.mana_place_of[t]
        object_map[inner] = Multiset({inner: 1, double.mana_place_of[t]: 1})
    return PresentedFunctor(mn.built, double.built, object_map,
                            {t: Trace(double.built, double.built.pre[t], (t,))
                             for t in mn.built.transitions})


def reference_lift_functor(functor, smn, tmn):
    if smn.base != functor.source or tmn.base != functor.target:
        raise ValueError("mana nets do not match the functor's boundary nets")
    object_map = dict(functor.object_map)
    morphism_map = {}
    for t in functor.source.transitions:
        image = functor.morphism_map[t]
        mana_image = lift_multiset_map(tmn.mana_place_of, occurrence_multiset(image))
        object_map[smn.mana_place_of[t]] = mana_image
        morphism_map[t] = Trace(tmn.built, image.initial + mana_image, image.steps)
    return PresentedFunctor(smn.built, tmn.built, object_map, morphism_map)


def reference_comonad_laws(net, morphisms=()):
    """The comonad check on PresentedFunctor values, rebuilt per use."""
    mn = internal.internal_construction(net)
    double = internal.iterated_construction(mn)
    triple = internal.iterated_construction(double)
    eps = reference_counit(mn)
    delta = reference_comultiplication(mn, internal.iterated_construction(mn))
    results = []
    left = reference_compose(reference_lift_functor(eps, double, mn), delta)
    results.append(law_result("left-counit",
                              reference_compare(left, reference_identity(mn.built))))
    right = reference_compose(reference_counit(double), delta)
    results.append(law_result("right-counit",
                              reference_compare(right, reference_identity(mn.built))))
    path_outer = reference_compose(reference_comultiplication(double, triple), delta)
    path_lifted = reference_compose(reference_lift_functor(delta, double, triple), delta)
    results.append(law_result("coassociativity",
                              reference_compare(path_outer, path_lifted)))
    results.extend(reference_naturality_results(morphisms))
    return [r.to_json_dict() for r in results]


def first_witness(found, witness, index):
    """Keep the first counterexample found, tagged with its morphism's index."""
    if found is not None or witness is None:
        return found
    return {"morphism_index": index, **witness}


def reference_naturality_results(morphisms):
    counit_found = delta_found = None
    for index, morphism in enumerate(morphisms):
        functor = reference_functor_of_net_morphism(morphism)
        smn = internal.internal_construction(morphism.source)
        tmn = internal.internal_construction(morphism.target)
        lifted = reference_lift_functor(functor, smn, tmn)

        lhs = reference_compose(reference_counit(tmn), lifted)
        rhs = reference_compose(functor, reference_counit(smn))
        counit_found = first_witness(counit_found, reference_compare(lhs, rhs), index)

        sdd = internal.iterated_construction(smn)
        tdd = internal.iterated_construction(tmn)
        lifted_twice = reference_lift_functor(lifted, sdd, tdd)
        lhs = reference_compose(
            reference_comultiplication(tmn, internal.iterated_construction(tmn)), lifted)
        rhs = reference_compose(
            lifted_twice,
            reference_comultiplication(smn, internal.iterated_construction(smn)))
        delta_found = first_witness(delta_found, reference_compare(lhs, rhs), index)
    return [law_result("counit-naturality", counit_found),
            law_result("comultiplication-naturality", delta_found)]


def test_public_constructions_match_the_reference(loop_net):
    rng = random.Random(4)
    mn = internal_construction(loop_net)
    double = iterated_construction(mn)
    morphism = random_net_morphism(rng, loop_net)
    tmn = internal_construction(morphism.target)
    functor = functor_of_net_morphism(morphism)
    pairs = [
        (counit(mn), reference_counit(mn)),
        (comultiplication(mn), reference_comultiplication(mn, double)),
        (identity_functor(mn.built), reference_identity(mn.built)),
        (functor, reference_functor_of_net_morphism(morphism)),
        (lift_functor(functor, mn, tmn), reference_lift_functor(functor, mn, tmn)),
        (compose_functors(counit(tmn), lift_functor(functor, mn, tmn)),
         reference_compose(reference_counit(tmn), reference_lift_functor(functor, mn, tmn))),
    ]
    for got, want in pairs:
        assert got == want
    # an object mismatch, a morphism mismatch, a boundary mismatch, a pass
    ident = identity_functor(mn.built)
    erased = with_object(ident, "mana:u1", {})
    restarted = PresentedFunctor(mn.built, mn.built, ident.object_map,
                                 {**ident.morphism_map,
                                  "u2": Trace(mn.built, Multiset({"mana:u2": 5}), ("u2",))})
    for left, right in [(ident, erased), (ident, restarted), (ident, counit(mn)),
                        (ident, reference_identity(mn.built))]:
        witness = reference_compare(left, right)
        assert compare_functors(left, right) == (witness is None, witness)
    with pytest.raises(ValueError):
        compose_functors(counit(mn), counit(mn))


# -- faulty constructions, on both paths -------------------------------------------

#: Where a construction is patched: its generator-form function in the
#: library, and its PresentedFunctor function in the reference above.
FAULT_POINTS = {
    "counit": ("_counit_form", "reference_counit"),
    "comultiplication": ("_comultiplication_form", "reference_comultiplication"),
    "lift": ("_lift_form", "reference_lift_functor"),
    "morphism": ("_morphism_form", "reference_functor_of_net_morphism"),
}


def install_fault(monkeypatch, point, fault):
    """Make one construction return ``fault(functor, *its arguments)`` on both paths.

    The library's generator form goes through ``PresentedFunctor`` and back,
    so one `fault` serves both.
    """
    form_name, reference_name = FAULT_POINTS[point]
    real_form = getattr(internal, form_name)
    real_reference = globals()[reference_name]

    def faulty_form(*args):
        return functors._to_form(fault(functors._present(real_form(*args)), *args))

    monkeypatch.setattr(internal, form_name, faulty_form)
    monkeypatch.setitem(globals(), reference_name,
                        lambda *args: fault(real_reference(*args), *args))


def with_object(functor, place, image):
    object_map = {**functor.object_map, place: Multiset(image)}
    return PresentedFunctor(functor.source, functor.target, object_map,
                            functor.morphism_map)


def faulty_counit_on(bad_net, monkeypatch):
    """Make counit send the last transition's mana place of `bad_net` to a place."""
    def fault(functor, mn):
        if mn.base != bad_net or not mn.base.transitions or not mn.base.places:
            return functor
        return with_object(functor, mn.mana_place_of[mn.base.transitions[-1]],
                           {mn.base.places[0]: 1})

    install_fault(monkeypatch, "counit", fault)


def faulty_comultiplication_on(bad_net, monkeypatch):
    """Make comultiplication drop the outer copy of the first mana place of `bad_net`."""
    def fault(functor, mn, double):
        if mn.base != bad_net or not mn.base.transitions:
            return functor
        inner = mn.mana_place_of[mn.base.transitions[0]]
        return with_object(functor, inner, {inner: 1})

    install_fault(monkeypatch, "comultiplication", fault)


def faulty_lift_on(bad_net, monkeypatch):
    """Make lifting count one unit too many in the first transition's mana image,
    whenever `bad_net` is the base of either side."""
    def fault(functor, _, smn, tmn):
        if bad_net not in (smn.base, tmn.base) or not smn.base.transitions:
            return functor
        place = smn.mana_place_of[smn.base.transitions[0]]
        image = functor.object_map[place].as_dict()
        if not image:
            return functor
        first = min(image)
        return with_object(functor, place, {**image, first: image[first] + 1})

    install_fault(monkeypatch, "lift", fault)


def faulty_morphism_functor_on(bad_net, monkeypatch):
    """Make the functor of a morphism into or out of `bad_net` relabel its first
    place to another target place."""
    def fault(functor, morphism):
        if bad_net not in (morphism.source, morphism.target) or not morphism.source.places:
            return functor
        first = morphism.source.places[0]
        others = [q for q in morphism.target.places if q != morphism.place_map[first]]
        return with_object(functor, first, {others[0]: 1}) if others else functor

    install_fault(monkeypatch, "morphism", fault)


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


def test_faulty_lift_into_a_target_fails_comultiplication_naturality(loop_net, monkeypatch):
    rng = random.Random(1)
    morphisms = [random_net_morphism(rng, loop_net) for _ in range(4)]
    faulty_lift_on(morphisms[2].target, monkeypatch)
    got = check_comonad_laws(loop_net, morphisms).to_json_list()
    assert got == [
        {"law": "left-counit", "status": "pass"},
        {"law": "right-counit", "status": "pass"},
        {"law": "coassociativity", "status": "pass"},
        {"law": "counit-naturality", "status": "pass"},
        {"law": "comultiplication-naturality", "status": "fail",
         "counterexample": {"morphism_index": 2, "kind": "object", "generator": "mana:u1",
                            "left": {"mana:m_u1": 2, "outer-mana:m_u1": 2},
                            "right": {"mana:m_u1": 2, "outer-mana:m_u1": 1}}},
    ]
    assert got == reference_comonad_laws(loop_net, morphisms)


def test_faulty_morphism_functor_fails_both_naturality_squares(loop_net, monkeypatch):
    rng = random.Random(1)
    morphisms = [random_net_morphism(rng, loop_net) for _ in range(4)]
    faulty_morphism_functor_on(morphisms[2].target, monkeypatch)
    got = check_comonad_laws(loop_net, morphisms).to_json_list()
    assert got == [
        {"law": "left-counit", "status": "pass"},
        {"law": "right-counit", "status": "pass"},
        {"law": "coassociativity", "status": "pass"},
        {"law": "counit-naturality", "status": "fail",
         "counterexample": {"morphism_index": 2, "kind": "morphism", "generator": "u1",
                            "left": {"initial": {"q0": 1}, "steps": ["m_u1"]},
                            "right": {"initial": {"q_extra": 1}, "steps": ["m_u1"]}}},
        {"law": "comultiplication-naturality", "status": "fail",
         "counterexample": {"morphism_index": 2, "kind": "morphism", "generator": "u1",
                            "left": {"initial": {"mana:m_u1": 1, "outer-mana:m_u1": 1,
                                                 "q0": 1}, "steps": ["m_u1"]},
                            "right": {"initial": {"mana:m_u1": 1, "outer-mana:m_u1": 1,
                                                  "q_extra": 1}, "steps": ["m_u1"]}}},
    ]
    assert got == reference_comonad_laws(loop_net, morphisms)


# -- repeated morphisms and nets ------------------------------------------------


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
          "comultiplication": faulty_comultiplication_on,
          "lift": faulty_lift_on, "morphism": faulty_morphism_functor_on}


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
    real_morphism_form = internal._morphism_form

    def counting_built_side(side_net):
        built.append(side_net)
        return real_built_side(side_net)

    def counting_morphism_form(morphism):
        checked.append(morphism)
        return real_morphism_form(morphism)

    monkeypatch.setattr(internal, "_built_side", counting_built_side)
    monkeypatch.setattr(internal, "_morphism_form", counting_morphism_form)
    got = check_comonad_laws(net, morphisms).to_json_list()
    assert checked == distinct(morphisms)
    assert built == distinct([net] + [side for m in morphisms for side in (m.source, m.target)])
    assert got == reference_comonad_laws(net, morphisms)
