import copy
import random
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mananets import (EMPTY, CountOverflowError, ManaPolicy, mana_place_name, Multiset,
                      NameClashError, Net, NetMorphism, NotEnabledError, UnknownSymbolError,
                      PolicyError, Trace, apply_functor,
                      apply_functor_to_marking, check_comonad_laws,
                      compose_functors, comultiplication, counit,
                      functor_of_net_morphism, generalized_internal_construction,
                      identity_functor, internal_construction,
                      is_mana_place_name, iterated_construction, lift_functor,
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
from reference_firing import outcome, reference_replay


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
    mana_places = mn.mana_places()
    for t in net.transitions:
        assert mn.built.pre[t].drop(mana_places) == net.pre[t]
        assert mn.built.post[t].drop(mana_places) == net.post[t]
        # plain mana partition: own place in pre only via consume
        for other in net.transitions:
            if other != t:
                assert mn.built.pre[t][mn.mana_place_of[other]] == 0


class Count(int):
    """An int subclass, which Multiset accepts as a count."""


class Pool(Multiset):
    """A Multiset subclass."""


ODD_CONSUME = [0, 1, 2, 3, COUNT_MAX, COUNT_MAX + 1, True, 1.0, Count(2)]


def built_by_multiset_arithmetic(net, policy, namer=mana_place_name):
    """The build with every arc summed as a Multiset, through the public Net().

    The policy is validated first, as the construction does.
    """
    problems = validate_policy(net, policy)
    if problems:
        raise PolicyError(problems[0])
    mana = {t: namer(t) for t in net.transitions}
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


def public_build(net, policy, namer):
    """The ManaNet of `net` under `policy`, every record built by its public constructor."""
    return internal.ManaNet(net, built_by_multiset_arithmetic(net, policy, namer),
                            {t: namer(t) for t in net.transitions}, policy)


def public_plain(net):
    return ManaPolicy(dict.fromkeys(net.transitions, 1), dict.fromkeys(net.transitions, EMPTY))


@pytest.mark.parametrize("seed", range(12))
def test_constructions_equal_their_public_builds(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    mn = internal_construction(net)
    pairs = [(ManaPolicy.plain(net), public_plain(net)),
             (mn, public_build(net, public_plain(net), mana_place_name)),
             (generalized_internal_construction(net, policy),
              public_build(net, policy, mana_place_name)),
             (iterated_construction(mn),
              public_build(mn.built, public_plain(mn.built), lambda t: "outer-mana:" + t))]
    for got, want in pairs:
        assert got == want and repr(got) == repr(want)
    for built in (pair[0].built for pair in pairs[1:]):
        assert type(built.places) is tuple and type(built.transitions) is tuple


def test_a_consume_count_past_the_bound_is_refused(abc_net):
    policy = ManaPolicy({"u": COUNT_MAX + 1}, {"u": EMPTY})
    assert raised(lambda: generalized_internal_construction(abc_net, policy)) == (
        CountOverflowError, "count for 'mana:u' exceeds the bound: 9223372036854775808")


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


def reference_validate_policy(net, policy):
    """validate_policy as one walk over every entry, with no usable-case shortcut."""
    problems = []
    transitions = set(net.transitions)
    if set(policy.consume) != transitions:
        problems.append("consume map is not total on the net's transitions")
    if set(policy.produce) != transitions:
        problems.append("produce map is not total on the net's transitions")
    for t in sorted(set(policy.consume) & transitions):
        consume = policy.consume[t]
        if not isinstance(consume, int) or isinstance(consume, bool):
            problems.append(f"consume count for {t!r} is not an int: {consume!r}")
        elif consume < 0:
            problems.append(f"consume count for {t!r} is negative")
    for t in sorted(set(policy.produce) & transitions):
        produce = policy.produce[t]
        if not isinstance(produce, Multiset):
            problems.append(f"produce of {t!r} is not a Multiset: {produce!r}")
            continue
        for target in produce.support():
            if target not in transitions:
                problems.append(f"produce of {t!r} targets unknown transition {target!r}")
    return problems


def policy_outcome(validate, net, policy):
    try:
        return "ok", validate(net, policy)
    except Exception as err:  # the exception type is what is compared
        return "raises", type(err)


#: Consume counts the validator must name, and an int subclass, which it accepts.
ODD_POLICY_CONSUME = [-1, True, False, 1.0, "1", None, Count(2), Count(-1), COUNT_MAX + 1]
#: Produce entries the validator must name, and a Multiset subclass, which it accepts.
ODD_POLICY_PRODUCE = [{"u": 1}, {}, None, (), Pool({"u": 1}), Pool()]
POLICY_FAULTS = ("drop-consume", "drop-produce", "extra-consume", "extra-produce",
                 "odd-consume", "odd-produce", "unknown-target")


@st.composite
def faulty_policies(draw):
    """A net's transitions and a policy for them with some of POLICY_FAULTS injected."""
    names = draw(st.lists(st.sampled_from("uvw"), max_size=3, unique=True))
    net = Net(("A",), tuple(names), {t: EMPTY for t in names}, {t: EMPTY for t in names})
    produces = (st.dictionaries(st.sampled_from(names), st.integers(1, 2), max_size=3)
                .map(Multiset) if names else st.just(EMPTY))
    consume = {t: draw(st.integers(0, 2)) for t in names}
    produce = {t: draw(produces) for t in names}
    for fault in draw(st.lists(st.sampled_from(POLICY_FAULTS), max_size=3)):
        side = consume if "consume" in fault else produce
        if fault.startswith("drop") and side:
            del side[draw(st.sampled_from(sorted(side)))]
        elif fault.startswith("extra"):
            side[draw(st.sampled_from("xyz"))] = (draw(st.integers(0, 2)) if side is consume
                                                   else draw(produces))
        elif fault.startswith("odd") and side:
            odd = ODD_POLICY_CONSUME if side is consume else ODD_POLICY_PRODUCE
            side[draw(st.sampled_from(sorted(side)))] = draw(st.sampled_from(odd))
        elif fault == "unknown-target" and produce:
            t = draw(st.sampled_from(sorted(produce)))
            if isinstance(produce[t], Multiset):
                produce[t] = produce[t] + Multiset({draw(st.sampled_from("xyz")): 1})
    return net, ManaPolicy(consume, produce)


ONE_TRANSITION = Net(("A",), ("u",), {"u": EMPTY}, {"u": EMPTY})


@given(faulty_policies())
@example((ONE_TRANSITION, ManaPolicy({"u": -1}, {"u": EMPTY})))
@example((ONE_TRANSITION, ManaPolicy({"u": Count(-1)}, {"u": Multiset({"u": 1})})))
@example((ONE_TRANSITION, ManaPolicy({"u": 1.0}, {"u": EMPTY})))
@example((ONE_TRANSITION, ManaPolicy({"u": 1}, {"u": Multiset({"x": 1})})))
def test_validate_policy_matches_full_walk(case):
    net, policy = case
    assert (policy_outcome(validate_policy, net, policy)
            == policy_outcome(reference_validate_policy, net, policy))


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


def test_mana_place_names_carry_any_number_of_outer_prefixes():
    assert [is_mana_place_name(name) for name in
            ("mana:u", "outer-mana:u", "outer-outer-mana:u", "outer-u", "u", "outer-")] == [
        True, True, True, False, False, False]


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


def test_lift_functor_refuses_mana_nets_of_other_nets(abc_net, loop_net):
    other = internal_construction(loop_net)
    for smn, tmn in ((other, None), (None, other)):
        with pytest.raises(ValueError, match="mana nets do not match the functor's boundary nets"):
            lift_functor(identity_functor(abc_net), smn, tmn)


def test_lift_functor_adds_mana_to_a_start_that_holds_it(abc_net):
    # A hand-made target ManaNet whose mana place for v is the target's own
    # place X, so the image's start already holds it: the two are added as
    # Multisets are, overflow included.
    target = Net.build(["X"], {"v": ({"X": 1}, {"X": 1})})
    smn = internal_construction(abc_net)
    tmn = internal.ManaNet(target, target, {"v": "X"}, ManaPolicy.plain(target))
    objects = {"A": Multiset({"X": 1}), "B": EMPTY, "C": Multiset({"X": 1})}
    functor = PresentedFunctor(abc_net, target, objects,
                               {"u": Trace(target, Multiset({"X": 1}), ("v", "v"))})
    lifted = lift_functor(functor, smn, tmn)
    assert lifted.morphism_map["u"] == Trace(target, Multiset({"X": 3}), ("v", "v"))
    assert lifted == reference_lift_functor(functor, smn, tmn)
    full = PresentedFunctor(abc_net, target, objects,
                            {"u": Trace(target, Multiset({"X": COUNT_MAX}), ("v",))})
    assert raised(lambda: lift_functor(full, smn, tmn)) == (
        CountOverflowError, str(CountOverflowError("X", COUNT_MAX + 1)))


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


# -- identical images and shared dicts ------------------------------------------


def doubled_images(functor, *_):
    """`functor` with every image firing sequence run twice from the same start."""
    return PresentedFunctor(functor.source, functor.target, functor.object_map,
                            {t: Trace(functor.target, image.initial, image.steps * 2)
                             for t, image in functor.morphism_map.items()})


def test_identical_images_that_cannot_fire_raise_from_the_laws(loop_net, monkeypatch):
    # Under a morphism functor that fires each image twice, both sides of
    # the counit-naturality square carry the same image of u3, and its
    # second firing has no token.
    morphisms = [random_net_morphism(random.Random(1), loop_net)]
    install_fault(monkeypatch, "morphism", doubled_images)
    for check in (check_comonad_laws, reference_comonad_laws):
        with pytest.raises(NotEnabledError) as err:
            check(loop_net, morphisms)
        assert (err.value.transition, err.value.index) == ("m_u3", 1)


def form_snapshot(form):
    return copy.deepcopy((form.objects, form.morphisms))


@pytest.mark.parametrize("seed", range(8))
def test_composing_and_lifting_leave_input_forms_unchanged(seed):
    # Composites share image dicts with their inputs, so no step may write
    # to a dict it was given.
    rng = random.Random(seed)
    net = random_net(rng)
    mn, double, eps, delta = internal._built_side(net)
    triple = iterated_construction(double)
    morphism = random_net_morphism(rng, net)
    tmn, tdd, t_eps, t_delta = internal._built_side(morphism.target)
    functor = internal._morphism_form(morphism)
    inputs = [eps, delta, functor, t_eps, t_delta, functors._identity_form(mn.built),
              internal._counit_form(double), internal._comultiplication_form(double, triple)]
    before = [form_snapshot(form) for form in inputs]
    lifted = internal._lift_form(functor, mn, tmn)
    lifted_twice = internal._lift_form(lifted, double, tdd)
    made = [lifted, lifted_twice, internal._lift_form(eps, double, mn),
            internal._lift_form(delta, double, triple)]
    made_before = [form_snapshot(form) for form in made]
    composites = [functors._compose_forms(t_eps, lifted),
                  functors._compose_forms(functor, eps),
                  functors._compose_forms(t_delta, lifted),
                  functors._compose_forms(lifted_twice, delta),
                  functors._compose_forms(made[2], delta),
                  functors._compose_forms(inputs[6], delta),
                  functors._compose_forms(inputs[7], delta),
                  functors._compose_forms(made[3], delta)]
    composites.append(functors._compose_forms(composites[0], inputs[5]))
    for left, right in zip(composites[::2], composites[1::2]):
        functors._compare_forms(left, right)
    assert [form_snapshot(form) for form in inputs] == before
    assert [form_snapshot(form) for form in made] == made_before


# -- one pass over a square's generators ------------------------------------------


def composed_and_compared(lo, li, ro, ri):
    return functors._compare_forms(functors._compose_forms(lo, li),
                                   functors._compose_forms(ro, ri))


def assert_decided_in_one_pass_alike(lo, li, ro, ri):
    """The one-pass decision returns or raises what composing and comparing does."""
    got = build_outcome(lambda: functors._compare_composites(lo, li, ro, ri))
    assert got == build_outcome(lambda: composed_and_compared(lo, li, ro, ri))
    return got


#: u and v share their arcs; w runs back.
TWIN = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1}), "v": ({"A": 1}, {"B": 1}),
                              "w": ({"B": 1}, {"A": 1})})
OTHER = Net.build(["A"], {"u": ({"A": 1}, {"A": 1})})


def twin_form(objects=None, **images):
    """The identity form of TWIN with some object and morphism images replaced."""
    form = functors._identity_form(TWIN)
    objects = {**form.objects, **(objects or {})}
    return functors.GeneratorForm(TWIN, TWIN, objects, {**form.morphisms, **images})


IDENTITY = twin_form()
ONE_PASS_CASES = {
    "agree": ((IDENTITY,) * 4, None),
    "object": ((IDENTITY, IDENTITY, IDENTITY, twin_form({"B": {"A": 1}})), "object"),
    "start": ((IDENTITY, IDENTITY, IDENTITY, twin_form(w=({"B": 2}, ("w",)))), "morphism"),
    "steps": ((IDENTITY, IDENTITY, IDENTITY, twin_form(u=({"A": 1}, ("v",)))), "morphism"),
    "outer-steps": ((IDENTITY, IDENTITY, twin_form(u=({"A": 1}, ("v",))), IDENTITY),
                    "morphism"),
    "differs-then-cannot-fire": (
        (IDENTITY, twin_form(w=({"B": 1}, ("w", "w"))),
         IDENTITY, twin_form(u=({"A": 1}, ("v",)), w=({"B": 1}, ("w", "w")))), "morphism"),
    "differs-then-does-not-compose": (
        (IDENTITY, IDENTITY, IDENTITY, twin_form({"A": {"B": 1}}, w=({"B": 1}, ("x",)))),
        KeyError),
    "cannot-fire": ((IDENTITY, twin_form(u=({"A": 1}, ("u", "u"))),
                     IDENTITY, twin_form(u=({"A": 1}, ("u", "u")))), NotEnabledError),
    "unknown-symbol": ((IDENTITY, twin_form({"A": {"Z": 1}}), IDENTITY, IDENTITY),
                       UnknownSymbolError),
    "missing-object": ((IDENTITY, IDENTITY, IDENTITY,
                        functors.GeneratorForm(TWIN, TWIN, {"A": {"A": 1}},
                                               IDENTITY.morphisms)), KeyError),
    "not-composable": ((IDENTITY, functors._identity_form(OTHER), IDENTITY, IDENTITY),
                       ValueError),
    "boundary": ((IDENTITY, IDENTITY, functors._identity_form(OTHER),
                  functors._identity_form(OTHER)), "boundary"),
    # Identical composite images, walked once: a firing past COUNT_MAX,
    # and an outer image that names a transition TWIN lacks.
    "identical-overflow": ((IDENTITY, twin_form(u=({"A": 1, "B": COUNT_MAX}, ("u",))),
                            IDENTITY, twin_form(u=({"A": 1, "B": COUNT_MAX}, ("u",)))),
                           CountOverflowError),
    "identical-unknown-step": ((twin_form(w=({"B": 1}, ("x",))), IDENTITY,
                                twin_form(w=({"B": 1}, ("x",))), IDENTITY),
                               UnknownSymbolError),
}


@pytest.mark.parametrize("case", sorted(ONE_PASS_CASES))
def test_one_pass_decides_a_square_as_composing_and_comparing(case):
    square, expected = ONE_PASS_CASES[case]
    got = assert_decided_in_one_pass_alike(*square)
    if expected is None or isinstance(expected, str):
        assert (got if expected is None else got["kind"]) == expected
    else:
        assert got[0] is expected


#: The composite image each identical-image case walks once, as a trace.
IDENTICAL_IMAGES = {
    "identical-overflow": Trace(TWIN, Multiset({"A": 1, "B": COUNT_MAX}), ("u",)),
    "identical-unknown-step": Trace(TWIN, Multiset({"B": 1}), ("x",)),
}


@pytest.mark.parametrize("case", sorted(IDENTICAL_IMAGES))
def test_identical_square_images_raise_what_the_reference_replay_raises(case):
    square, _ = ONE_PASS_CASES[case]
    expected = outcome(reference_replay, IDENTICAL_IMAGES[case])
    assert expected[0] != "ok"
    assert outcome(functors._composites_agree, *square) == expected


def law_squares(net, morphism):
    """The squares check_comonad_laws decides in one pass, built as it builds
    them, plus a pair that does not compose and a pair with other boundaries."""
    mn, double, eps, delta = internal._built_side(net)
    triple = internal._iterated(double)
    smn, sdd, s_eps, s_delta = internal._built_side(morphism.source)
    tmn, tdd, t_eps, t_delta = internal._built_side(morphism.target)
    functor = internal._morphism_form(morphism)
    lifted = internal._lift_form(functor, smn, tmn)
    return [(internal._comultiplication_form(double, triple), delta,
             internal._lift_form(delta, double, triple), delta),
            (t_eps, lifted, functor, s_eps),
            (t_delta, lifted, internal._lift_form(lifted, sdd, tdd), s_delta),
            (functor, lifted, t_eps, lifted),
            (t_eps, lifted, t_delta, lifted)]


def doubled_images_on(bad_net, monkeypatch):
    """Make the functor of a morphism into or out of `bad_net` fire every image twice."""
    def fault(functor, morphism):
        if bad_net not in (morphism.source, morphism.target):
            return functor
        return doubled_images(functor)

    install_fault(monkeypatch, "morphism", fault)


SQUARE_FAULTS = {**FAULTS, "doubled": doubled_images_on}


@given(st.integers(0, 2**32), st.lists(st.sampled_from(sorted(SQUARE_FAULTS)), max_size=2))
@example(0, ["counit"])
@example(0, ["comultiplication"])
@example(0, ["lift"])
@example(4, ["morphism"])
@example(1, ["doubled"])
@example(1, ["counit", "doubled"])  # an object differs before an image that cannot fire
def test_one_pass_decides_the_law_squares_as_composing_and_comparing(seed, faults):
    rng = random.Random(seed)
    net = random_net(rng)
    morphism = random_net_morphism(rng, net)
    with pytest.MonkeyPatch.context() as patch:
        for fault in faults:
            if SQUARE_FAULTS[fault] is not None:
                SQUARE_FAULTS[fault](rng.choice([net, morphism.target]), patch)
        for square in law_squares(net, morphism):
            assert_decided_in_one_pass_alike(*square)


# -- where validation happens ----------------------------------------------------

#: An arc on an undeclared place: the first fault validate_net reports.
DANGLING = Net(("A",), ("u",), {"u": Multiset({"B": 1})}, {"u": EMPTY})
DANGLING_MESSAGE = "net is not well formed: unknown-place B"


def raised(call):
    with pytest.raises(Exception) as err:
        call()
    return type(err.value), str(err.value)


class Clashing(str):
    """A transition name whose every prefixed form is one fixed name."""

    def __radd__(self, prefix):
        return "mana:x"


def test_internal_construction_rejects_a_malformed_net():
    assert raised(lambda: internal_construction(DANGLING)) == (ValueError, DANGLING_MESSAGE)


def test_generalized_construction_checks_the_net_then_the_policy(abc_net):
    bad = ManaPolicy({"u": -1}, {"u": EMPTY})
    assert raised(lambda: generalized_internal_construction(abc_net, bad)) == (
        PolicyError, "consume count for 'u' is negative")
    assert raised(lambda: generalized_internal_construction(DANGLING, bad)) == (
        ValueError, DANGLING_MESSAGE)


def test_iterated_construction_checks_a_hand_made_built_net(abc_net):
    plain = ManaPolicy.plain(abc_net)
    malformed = internal.ManaNet(abc_net, DANGLING, {}, plain)
    assert raised(lambda: iterated_construction(malformed)) == (ValueError, DANGLING_MESSAGE)
    # Two transitions whose outer mana places get one name: the built net
    # itself is well formed, so the clash is found while naming.
    built = Net(("A",), (Clashing("u"), Clashing("v")),
                {"u": EMPTY, "v": EMPTY}, {"u": EMPTY, "v": EMPTY})
    clashing = internal.ManaNet(abc_net, built, {}, plain)
    assert raised(lambda: iterated_construction(clashing)) == (
        NameClashError, "name 'mana:x' already exists in the net")


def test_comonad_laws_check_every_net_they_are_given(abc_net):
    assert raised(lambda: check_comonad_laws(DANGLING)) == (ValueError, DANGLING_MESSAGE)
    target = Net(("q",), ("m",), {"m": Multiset({"z": 1})}, {"m": EMPTY})
    morphism = NetMorphism(abc_net, target, {"u": "m"}, {"A": "q", "B": "q", "C": "q"})
    for morphisms in ([morphism], [NetMorphism.identity(abc_net), morphism]):
        assert raised(lambda: check_comonad_laws(abc_net, morphisms)) == (
            ValueError, "net is not well formed: unknown-place z")


@given(st.integers(0, 2**32), st.booleans())
@example(0, True)
def test_trusted_builds_equal_the_validated_ones(seed, outer_place):
    # A place named like an outer mana place makes the double build
    # freshen its names one level further.
    net = random_net(random.Random(seed))
    if outer_place and net.transitions:
        net = Net(net.places + ("outer-mana:" + net.transitions[0],), net.transitions,
                  net.pre, net.post)
    # Net equality compares places as tuples, so their order counts.
    mn, double, _, _ = internal._built_side(net)
    assert mn == internal_construction(net)
    assert double == iterated_construction(internal_construction(net))
    assert internal._iterated(double) == iterated_construction(double)
