import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mananets import external
from mananets import (EMPTY, AffineSpan, ManaPolicy, ManaState, Multiset,
                      NotManaEnabledError, Trace, check_functor_laws,
                      check_laxator_naturality, compose_spans, laxator,
                      mana_enabled, mana_fire, mana_reach, mana_simulate,
                      occurrence_multiset, span_of_trace, span_of_transition)
from mananets.errors import CountOverflowError, NotEnabledError, UnknownSymbolError
from mananets.execution import replay
from mananets.reports import LawReport, law_result
from mananets.multiset import COUNT_MAX
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


# -- one pass over occurrence counts against the step-by-step fold ----------


def reference_span_of_trace(policy, trace):
    """The span as a fold of one firing span per step."""
    span = AffineSpan.identity()
    for transition in trace.steps:
        span = compose_spans(span, span_of_transition(policy, transition))
    return span


def span_outcome(policy, trace, span_fn):
    try:
        return "ok", span_fn(policy, trace)
    except Exception as err:  # the error itself is what is compared
        return (type(err), getattr(err, "symbol", None), getattr(err, "count", None),
                str(err))


small_counts = st.integers(1, 3)
big_counts = st.integers(COUNT_MAX // 3, COUNT_MAX)
consume_counts = st.one_of(st.just(0), small_counts, small_counts, big_counts,
                           st.just(COUNT_MAX + 1),
                           st.sampled_from([-1, True, 1.0, None, "1"]))
produce_maps = st.dictionaries(st.sampled_from(["a", "b", "c", "x", "y"]),
                               st.one_of(small_counts, small_counts, small_counts, big_counts),
                               max_size=3).map(Multiset)


@st.composite
def policies_and_traces(draw):
    """Policies that may lack or garble entries, and steps they may not know."""
    consume = draw(st.dictionaries(st.sampled_from("abc"), consume_counts,
                                   min_size=1, max_size=3))
    produce = {t: draw(produce_maps) for t in consume if draw(st.integers(0, 9))}
    steps = draw(st.lists(st.sampled_from(sorted(consume)), max_size=8))
    if draw(st.sampled_from([False, False, False, True])):
        steps.insert(draw(st.integers(0, len(steps))), "d")
    return ManaPolicy(consume, produce), Trace(None, EMPTY, tuple(steps))


@given(policies_and_traces())
def test_span_of_trace_matches_the_fold(policy_and_trace):
    policy, trace = policy_and_trace
    assert (span_outcome(policy, trace, span_of_trace)
            == span_outcome(policy, trace, reference_span_of_trace))


HALF = COUNT_MAX // 2 + 1


@pytest.mark.parametrize("steps, consume, produce, error", [
    # the sum overflows at step 1, before the unknown step 2
    (("a", "a", "d"), {"a": HALF}, {}, (CountOverflowError, "a", 2 * HALF)),
    (("d", "a", "a"), {"a": HALF}, {}, (UnknownSymbolError, "d", None)),
    (("a", "b", "a"), {"a": 1, "b": -1}, {}, (ValueError, None, None)),
    (("a", "b", "a"), {"a": 1, "b": 0}, {"a": {"x": HALF}, "b": {"y": 1, "x": HALF}},
     (CountOverflowError, "x", 2 * HALF)),
])
def test_span_of_trace_raises_at_the_first_offending_step(steps, consume, produce, error):
    policy = ManaPolicy(consume, {t: Multiset(produce.get(t, {})) for t in consume})
    trace = Trace(None, EMPTY, steps)
    got = span_outcome(policy, trace, span_of_trace)
    assert got == span_outcome(policy, trace, reference_span_of_trace)
    assert got[:3] == error


@pytest.mark.parametrize("produce, error, message", [
    ({}, UnknownSymbolError, "unknown symbol 'u' in mana policy"),
    ({"u": {"u": 1}}, TypeError, "produce of 'u' must be a Multiset, got {'u': 1}"),
])
def test_missing_or_unwrapped_produce_is_named(abc_net, ms, produce, error, message):
    policy = ManaPolicy({"u": 1}, produce)
    state = ManaState(ms(A=1, B=1), ms(u=1))
    calls = (lambda: mana_fire(abc_net, policy, state, "u"),
             lambda: mana_enabled(abc_net, policy, state, "u"),
             lambda: mana_reach(abc_net, policy, state, 2, 10),
             lambda: span_of_trace(policy, Trace(abc_net, state.marking, ("u",))))
    for call in calls:
        with pytest.raises(error) as err:
            call()
        assert str(err.value) == message


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


# -- one prefix-count pass against the per-cut reference -------------------------


def reference_check_functor_laws(net, policy, sample_traces):
    """The functor-law check with both spans recomputed at every cut.

    `span_of_trace` and `compose_spans` are looked up on the module at call
    time, so a monkeypatched fault reaches this reference and the library
    alike.
    """
    identity_witness = None
    for trace in sample_traces:
        span = external.span_of_trace(policy, Trace(net, trace.initial, ()))
        if span != AffineSpan.identity():
            identity_witness = {"initial": trace.initial.as_dict(),
                                "span": external._span_dict(span)}
            break
    composition_witness = None
    for index, trace in enumerate(sample_traces):
        whole = external.span_of_trace(policy, trace)
        markings = replay(trace)
        for cut in range(len(trace.steps) + 1):
            head = Trace(net, trace.initial, trace.steps[:cut])
            tail = Trace(net, markings[cut], trace.steps[cut:])
            glued = external.compose_spans(external.span_of_trace(policy, head),
                                           external.span_of_trace(policy, tail))
            if glued != whole:
                composition_witness = {"sample": index, "cut": cut,
                                       "whole": external._span_dict(whole),
                                       "glued": external._span_dict(glued)}
                break
        if composition_witness:
            break
    return LawReport((
        law_result("identity", identity_witness),
        law_result("composition", composition_witness),
    ))


def laws_outcome(check, net, policy, traces):
    try:
        return check(net, policy, traces).to_json_list()
    except Exception as err:  # the error itself is what is compared
        return type(err), str(err)


def overcounting_span(monkeypatch):
    """span_of_trace, through the count body it shares with the prefix pass,
    consumes one unit too many of every transition that fires twice or more."""
    real = external._span_of_counts

    def faulty(policy, occurrences):
        span = real(policy, occurrences)
        extra = {t: 1 for t, k in occurrences.items() if k >= 2}
        if span is None or not extra:
            return span
        return AffineSpan(span.consume + Multiset(extra), span.produce)

    monkeypatch.setattr(external, "_span_of_counts", faulty)


def body_giving_up(monkeypatch):
    """The count body gives up on every odd total, so the fold takes over."""
    real = external._span_of_counts
    monkeypatch.setattr(external, "_span_of_counts",
                        lambda policy, occurrences: None if sum(occurrences.values()) % 2
                        else real(policy, occurrences))


def produce_dropping_compose(monkeypatch):
    """compose_spans drops the second produce when both sides consume."""
    real = external.compose_spans

    def faulty(first, second):
        glued = real(first, second)
        if first.consume and second.consume:
            return AffineSpan(glued.consume, first.produce)
        return glued

    monkeypatch.setattr(external, "compose_spans", faulty)


SPAN_FAULTS = {"clean": None, "span": overcounting_span, "fallback": body_giving_up,
               "compose": produce_dropping_compose}


class Count(int):
    """An int subclass: the count body gives up on it, the fold accepts it."""


@pytest.mark.parametrize("fault", sorted(SPAN_FAULTS))
@pytest.mark.parametrize("seed", range(16))
def test_prefix_pass_matches_per_cut_reference(seed, fault, monkeypatch):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    if seed % 4 == 1 and net.transitions:
        # an entry only the fold accepts, or one it rejects
        t = rng.choice(net.transitions)
        bad = Count(2) if seed % 8 == 1 else rng.choice([-1, True, COUNT_MAX])
        policy = ManaPolicy({**policy.consume, t: bad}, policy.produce)
    traces = [random_trace(rng, net, random_marking(rng, net, 4)) for _ in range(8)]
    if SPAN_FAULTS[fault] is not None:
        SPAN_FAULTS[fault](monkeypatch)
    got = laws_outcome(check_functor_laws, net, policy, traces)
    assert got == laws_outcome(reference_check_functor_laws, net, policy, traces)


def test_prefix_pass_still_replays_each_trace(loop_net, loop_policy, ms):
    stuck = Trace(loop_net, ms(p1=1), ("u1", "u1"))
    got = laws_outcome(check_functor_laws, loop_net, loop_policy, [stuck])
    assert got == laws_outcome(reference_check_functor_laws, loop_net, loop_policy, [stuck])
    assert got == (NotEnabledError, "transition 'u1' is not enabled (step 1)")


def test_faulty_spans_fail_the_same_cut(loop_net, loop_policy, monkeypatch):
    rng = random.Random(1)
    traces = [random_trace(rng, loop_net, random_marking(rng, loop_net, 5))
              for _ in range(20)]
    overcounting_span(monkeypatch)
    got = check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got == reference_check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got == [
        {"law": "identity", "status": "pass"},
        {"law": "composition", "status": "fail",
         "counterexample": {"sample": 2, "cut": 2,
                            "whole": {"consume": {"u3": 1, "u4": 3},
                                      "produce": {"u2": 2, "u3": 3}},
                            "glued": {"consume": {"u3": 1, "u4": 2},
                                      "produce": {"u2": 2, "u3": 3}}}},
    ]


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
