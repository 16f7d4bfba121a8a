import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mananets import (EMPTY, AffineSpan, ManaPolicy, ManaState, Multiset,
                      NotManaEnabledError, Trace, check_functor_laws,
                      check_laxator_naturality, compose_spans, laxator,
                      mana_enabled, mana_fire, mana_reach, mana_simulate,
                      occurrence_multiset, span_of_trace, span_of_transition)
from mananets.sampling import random_marking, random_net, random_policy, random_trace

pools = st.dictionaries(st.sampled_from(["u", "v", "w"]), st.integers(1, 5),
                        max_size=3).map(Multiset)


@pytest.fixture
def plain(abc_net):
    return ManaPolicy.plain(abc_net)


def test_span_of_plain_transition(abc_net, plain):
    span = span_of_transition(plain, "u")
    assert span == AffineSpan(Multiset({"u": 1}), EMPTY)


def test_span_of_catalyst(loop_policy):
    span = span_of_transition(loop_policy, "u3")
    assert span == AffineSpan(Multiset({"u3": 1}), Multiset({"u3": 1}))


def test_span_of_free_transition(loop_policy):
    span = span_of_transition(loop_policy, "u1")
    assert span.consume == EMPTY
    assert span.produce == EMPTY


def test_compose_spans_examples():
    u = AffineSpan(Multiset({"u": 1}), EMPTY)
    assert compose_spans(u, u) == AffineSpan(Multiset({"u": 2}), EMPTY)
    assert compose_spans(u, AffineSpan.identity()) == u
    a = AffineSpan(Multiset({"u2": 2}), Multiset({"u4": 1}))
    b = AffineSpan(Multiset({"u4": 1}), Multiset({"u2": 1, "u3": 1}))
    assert compose_spans(a, b) == AffineSpan(
        Multiset({"u2": 2, "u4": 1}), Multiset({"u4": 1, "u2": 1, "u3": 1}))


@given(pools, pools, pools, pools, pools, pools)
def test_span_monoid(c1, p1, c2, p2, c3, p3):
    a, b, c = AffineSpan(c1, p1), AffineSpan(c2, p2), AffineSpan(c3, p3)
    assert compose_spans(a, b) == compose_spans(b, a)
    assert compose_spans(a, AffineSpan.identity()) == a
    assert compose_spans(compose_spans(a, b), c) == compose_spans(a, compose_spans(b, c))


def test_span_of_empty_trace(abc_net, plain):
    assert span_of_trace(plain, Trace(abc_net, EMPTY)) == AffineSpan.identity()


def test_span_of_plain_trace_counts_occurrences(pipeline_net, ms):
    policy = ManaPolicy.plain(pipeline_net)
    trace = Trace(pipeline_net, ms(p1=1, p2=1, p3=2), ("t", "v", "u"))
    span = span_of_trace(policy, trace)
    assert span.consume == occurrence_multiset(trace)
    assert span.produce == EMPTY


def test_span_of_generalized_trace_fold_oracle(loop_net, loop_policy, ms):
    trace = Trace(loop_net, ms(p2=2), ("u2", "u2"))
    # fold oracle: two copies of u2's firing span composed by hand
    single = span_of_transition(loop_policy, "u2")
    expected = compose_spans(single, single)
    got = span_of_trace(loop_policy, trace)
    assert got == expected
    assert got == AffineSpan(Multiset({"u2": 4}), Multiset({"u4": 2}))


@pytest.mark.parametrize("seed", range(10))
def test_span_decomposes_over_occurrences(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    trace = random_trace(rng, net, random_marking(rng, net, 4))
    occurrences = occurrence_multiset(trace)
    span = span_of_trace(policy, trace)
    assert span.consume == Multiset.sum(
        count * Multiset({t: policy.consume[t]}) for t, count in occurrences.items())
    assert span.produce == Multiset.sum(
        count * policy.produce[t] for t, count in occurrences.items())


def test_mana_enabled_with_budget(abc_net, plain, ms):
    state = ManaState(ms(A=1, B=1), ms(u=2))
    assert mana_enabled(abc_net, plain, state, "u")


def test_not_enabled_with_empty_pool(abc_net, plain, ms):
    assert not mana_enabled(abc_net, plain, ManaState(ms(A=1, B=1), EMPTY), "u")


def test_not_enabled_when_tokens_short(abc_net, plain, ms):
    assert not mana_enabled(abc_net, plain, ManaState(ms(A=1), ms(u=4)), "u")


def test_mana_fire_discharges_one_unit(abc_net, plain, ms):
    got = mana_fire(abc_net, plain, ManaState(ms(A=1, B=1), ms(u=2)), "u")
    assert got == ManaState(ms(C=1), ms(u=1))


def test_catalyst_keeps_its_pool(loop_net, loop_policy, ms):
    state = ManaState(ms(p3=1), ms(u3=1))
    fired = mana_fire(loop_net, loop_policy, state, "u3")
    assert fired.pool["u3"] == 1


def test_free_transition_fires_with_empty_pool(loop_net, loop_policy, ms):
    state = ManaState(ms(p1=1), EMPTY)
    fired = mana_fire(loop_net, loop_policy, state, "u1")
    assert fired.marking == ms(p2=1, p3=1)
    assert fired.pool == EMPTY


def test_mana_fire_error_distinguishes_sides(abc_net, plain, ms):
    with pytest.raises(NotManaEnabledError) as err:
        mana_fire(abc_net, plain, ManaState(ms(A=1, B=1), EMPTY), "u")
    assert err.value.compound_ok and not err.value.mana_ok
    with pytest.raises(NotManaEnabledError) as err:
        mana_fire(abc_net, plain, ManaState(ms(A=1), ms(u=1)), "u")
    assert not err.value.compound_ok and err.value.mana_ok
    with pytest.raises(NotManaEnabledError) as err:
        mana_fire(abc_net, plain, ManaState(ms(A=1), EMPTY), "u")
    assert not err.value.compound_ok and not err.value.mana_ok


def reference_mana_simulate(net, policy, initial, max_steps, rng=None):
    """The checks of mana_enabled for every transition, then mana_fire."""
    state = initial
    steps = []
    for _ in range(max_steps):
        candidates = [t for t in sorted(net.transitions)
                      if mana_enabled(net, policy, state, t)]
        if not candidates:
            break
        choice = rng.choice(candidates) if rng is not None else candidates[0]
        state = mana_fire(net, policy, state, choice)
        steps.append(choice)
    return tuple(steps), state


@pytest.mark.parametrize("seed", range(20))
def test_mana_simulate_matches_reference(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    initial = ManaState(random_marking(rng, net, 4),
                        Multiset({t: rng.randint(0, 3) for t in net.transitions}))
    assert mana_simulate(net, policy, initial, 12) == \
        reference_mana_simulate(net, policy, initial, 12)
    assert mana_simulate(net, policy, initial, 12, random.Random(seed)) == \
        reference_mana_simulate(net, policy, initial, 12, random.Random(seed))


@pytest.mark.parametrize("seed", range(10))
def test_plain_fire_changes_one_pool_entry(seed, abc_net, plain, ms):
    rng = random.Random(seed)
    pool = Multiset({"u": rng.randint(1, 5)})
    state = ManaState(ms(A=1, B=1), pool)
    fired = mana_fire(abc_net, plain, state, "u")
    assert fired.pool == pool.minus(Multiset({"u": 1}))


@pytest.mark.parametrize("seed", range(10))
def test_pool_balance_equation(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    state = ManaState(random_marking(rng, net, 4),
                      Multiset({t: rng.randint(0, 3) for t in net.transitions}))
    for t in net.transitions:
        if mana_enabled(net, policy, state, t):
            span = span_of_transition(policy, t)
            fired = mana_fire(net, policy, state, t)
            assert fired.pool + span.consume == state.pool + span.produce


def test_laxator_merges_knowledge(ms):
    assert laxator(ms(u=3), ms(u=1, v=8)) == ms(u=4, v=8)
    assert laxator(EMPTY, ms(u=1)) == ms(u=1)


@given(pools, pools)
def test_laxator_symmetric(a, b):
    assert laxator(a, b) == laxator(b, a)


def test_spans_well_defined_on_equivalent_traces(pipeline_net, ms):
    policy = ManaPolicy.plain(pipeline_net)
    initial = ms(p1=1, p2=1, p3=2)
    t1 = Trace(pipeline_net, initial, ("t", "v", "u"))
    t2 = Trace(pipeline_net, initial, ("t", "u", "v"))
    assert span_of_trace(policy, t1) == span_of_trace(policy, t2)


def test_functor_laws_plain(pipeline_net, ms):
    policy = ManaPolicy.plain(pipeline_net)
    rng = random.Random(0)
    traces = [random_trace(rng, pipeline_net, random_marking(rng, pipeline_net, 5))
              for _ in range(20)]
    report = check_functor_laws(pipeline_net, policy, traces)
    assert report.ok, report.results


def test_functor_laws_generalized(loop_net, loop_policy):
    rng = random.Random(1)
    traces = [random_trace(rng, loop_net, random_marking(rng, loop_net, 5))
              for _ in range(20)]
    report = check_functor_laws(loop_net, loop_policy, traces)
    assert report.ok, report.results


def test_functor_laws_on_empty_sample(abc_net, plain):
    report = check_functor_laws(abc_net, plain, [])
    assert report.ok


def test_laxator_naturality_samples(loop_net, loop_policy):
    rng = random.Random(2)
    samples = []
    for _ in range(20):
        t1 = random_trace(rng, loop_net, random_marking(rng, loop_net, 4))
        t2 = random_trace(rng, loop_net, random_marking(rng, loop_net, 4))
        pool1 = Multiset({t: rng.randint(0, 4) for t in loop_net.transitions})
        pool2 = Multiset({t: rng.randint(0, 4) for t in loop_net.transitions})
        samples.append((t1, t2, pool1, pool2))
    report = check_laxator_naturality(loop_net, loop_policy, samples)
    assert report.ok, report.results
    assert len(report.results) == len(samples)


def test_laxator_naturality_empty_traces(abc_net, plain):
    empty = Trace(abc_net, EMPTY)
    report = check_laxator_naturality(abc_net, plain, [(empty, empty, EMPTY, EMPTY)])
    assert report.ok


def test_mana_reach_respects_pool(abc_net, plain, ms):
    graph = mana_reach(abc_net, plain, ManaState(ms(A=2, B=2), ms(u=1)), 6, 12)
    # only one firing possible: the pool runs dry before the tokens do
    assert len(graph.edges) == 1
