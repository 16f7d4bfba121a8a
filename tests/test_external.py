import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mananets import external
from mananets import (EMPTY, AffineSpan, ManaPolicy, ManaState, Multiset, Net,
                      NotManaEnabledError, Trace, check_functor_laws,
                      check_laxator_naturality, compose_spans, laxator,
                      mana_enabled, mana_fire, mana_reach, mana_simulate,
                      occurrence_multiset, span_of_trace, span_of_transition)
from mananets.errors import CountOverflowError, NotEnabledError, UnknownSymbolError
from mananets.execution import replay
from mananets.reports import LawReport, law_result
from mananets.multiset import COUNT_MAX
from mananets.sampling import (random_marking, random_net, random_policy, random_state,
                                random_trace)

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
    span = span_of_trace(plain, Trace(abc_net, EMPTY))
    assert span == AffineSpan.identity()
    assert span.consume is EMPTY and span.produce is EMPTY


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


# -- the count-dict fold against the fold of AffineSpans ---------------------


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


class Count(int):
    """An int subclass: the fold's inline gate refuses it, span_of_transition accepts it."""


@pytest.mark.parametrize("steps, consume, produce, error", [
    # the sum overflows at step 1, before the unknown step 2
    (("a", "a", "d"), {"a": HALF}, {}, (CountOverflowError, "a", 2 * HALF)),
    (("d", "a", "a"), {"a": HALF}, {}, (UnknownSymbolError, "d", None)),
    (("a", "b", "a"), {"a": 1, "b": -1}, {}, (ValueError, None, None)),
    (("a", "b", "a"), {"a": 1, "b": 0}, {"a": {"x": HALF}, "b": {"y": 1, "x": HALF}},
     (CountOverflowError, "x", 2 * HALF)),
    # consume and produce pass the bound at the same step: consume comes first
    pytest.param(("a", "a"), {"a": HALF}, {"a": {"x": HALF}},
                 (CountOverflowError, "a", 2 * HALF), id="consume-and-produce-past-bound"),
    pytest.param(("a",), {"a": True}, {}, (TypeError, None, None), id="bool-consume"),
    pytest.param(("a", "a"), {"a": Count(2)}, {},
                 ("ok", AffineSpan(Multiset({"a": 4}), EMPTY)), id="int-subclass-consume"),
    # the bound itself is a count, so the first step is accepted
    pytest.param(("a", "a"), {"a": COUNT_MAX}, {},
                 (CountOverflowError, "a", 2 * COUNT_MAX), id="consume-at-bound-twice"),
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
    """mana_simulate as a walk over ManaState values, firing with mana_fire().

    A transition is a candidate when the marking covers its pre-set and
    the pool its consumption; only the chosen one fires, so only its
    counts can overflow.
    """
    state = initial
    steps = []
    for _ in range(max_steps):
        candidates = [t for t in sorted(set(net.transitions))
                      if net.pre[t] <= state.marking
                      and span_of_transition(policy, t).consume <= state.pool]
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


def mana_simulate_outcome(walk, net, policy, initial, max_steps, seed):
    rng = None if seed is None else random.Random(seed)
    try:
        result = "ok", walk(net, policy, initial, max_steps, rng)
    except CountOverflowError as err:
        result = "overflow", err.symbol, err.count
    return result, None if rng is None else rng.getstate()


# Counts near the bound make some firings overflow, in the marking, in the
# pool or in both. Multisets built from pairs keep the drawn order, so a
# post or a produce may meet two overflowing symbols out of symbol order.
walk_counts = st.one_of(st.integers(1, 2), st.integers(COUNT_MAX - 2, COUNT_MAX))


def ordered_multisets(symbols, counts=walk_counts):
    return st.lists(st.tuples(st.sampled_from(symbols), counts),
                    unique_by=lambda pair: pair[0], max_size=3).map(Multiset)


@st.composite
def mana_walks(draw):
    """A net, a policy and a state whose marking and pool may hold symbols
    outside the net: the place X and the pool entry zz."""
    names = draw(st.lists(st.sampled_from("uvw"), max_size=3, unique=True))
    pool_symbols = [*names, "zz"]
    net = Net(("A", "B", "C"), tuple(names),
              {t: draw(ordered_multisets("ABC")) for t in names},
              {t: draw(ordered_multisets("CBA")) for t in names})
    policy = ManaPolicy({t: draw(st.integers(0, 2)) for t in names},
                        {t: draw(ordered_multisets(pool_symbols)) for t in names})
    initial = ManaState(draw(ordered_multisets("ABCX")), draw(ordered_multisets(pool_symbols)))
    return net, policy, initial


@settings(max_examples=300)
@given(mana_walks(), st.integers(0, 8), st.one_of(st.none(), st.integers(0, 2**32)))
def test_mana_simulate_matches_mana_state_walk(case, max_steps, seed):
    net, policy, initial = case
    got = mana_simulate_outcome(mana_simulate, net, policy, initial, max_steps, seed)
    assert got == mana_simulate_outcome(reference_mana_simulate, net, policy, initial,
                                        max_steps, seed)


def test_mana_simulate_fires_past_a_transition_whose_pool_would_overflow():
    net = Net.build(["a"], {"u": ({}, {}), "v": ({}, {})})
    policy = ManaPolicy({"u": 0, "v": 0}, {"u": EMPTY, "v": Multiset({"v": 1})})
    initial = ManaState(EMPTY, Multiset({"v": COUNT_MAX}))
    assert mana_simulate(net, policy, initial, 3) == (("u", "u", "u"), initial)


def test_mana_enabled_does_not_apply_the_produce():
    # Only the firing itself overflows the pool.
    net = Net.build(["a"], {"v": ({}, {})})
    policy = ManaPolicy({"v": 0}, {"v": Multiset({"v": 1})})
    state = ManaState(EMPTY, Multiset({"v": COUNT_MAX}))
    assert mana_enabled(net, policy, state, "v")
    with pytest.raises(CountOverflowError) as err:
        mana_fire(net, policy, state, "v")
    assert (err.value.symbol, err.value.count) == ("v", COUNT_MAX + 1)


def test_mana_simulate_names_the_pool_overflow_first():
    net = Net.build(["a"], {"u": ({}, {"a": 1})})
    policy = ManaPolicy({"u": 0}, {"u": Multiset({"u": 1})})
    initial = ManaState(Multiset({"a": COUNT_MAX}), Multiset({"u": COUNT_MAX}))
    with pytest.raises(CountOverflowError) as err:
        mana_simulate(net, policy, initial, 1)
    assert (err.value.symbol, err.value.count) == ("u", COUNT_MAX + 1)
    assert mana_simulate_outcome(mana_simulate, net, policy, initial, 1, None) == \
        mana_simulate_outcome(reference_mana_simulate, net, policy, initial, 1, None)


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


# -- the law check against a per-cut reference --------------------------------


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


def overcounting_span(monkeypatch, policy):
    """The span fold, which span_of_trace and every cut of the law check
    run, consumes one unit too many of every transition that fires twice
    or more."""
    real = external._span_of_steps

    def faulty(policy, steps):
        span = real(policy, steps)
        extra = {t: 1 for t in set(steps) if steps.count(t) >= 2}
        return AffineSpan(span.consume + Multiset(extra), span.produce) if extra else span

    monkeypatch.setattr(external, "_span_of_steps", faulty)
    return policy


def every_consume_delegated(monkeypatch, policy):
    """Every int consume count becomes a Count, so that every step of the
    fold takes the fallback through span_of_transition."""
    return ManaPolicy({t: Count(c) if type(c) is int else c for t, c in policy.consume.items()},
                      policy.produce)


def produce_dropping_compose(monkeypatch, policy):
    """compose_spans drops the second produce when both sides consume."""
    real = external.compose_spans

    def faulty(first, second):
        glued = real(first, second)
        if first.consume and second.consume:
            return AffineSpan(glued.consume, first.produce)
        return glued

    monkeypatch.setattr(external, "compose_spans", faulty)
    return policy


def empty_fold_unit(monkeypatch, policy):
    """The fold of no steps produces one unit of ``x``, so the empty trace
    is no identity and every glued cut carries an extra unit."""
    real = external._span_of_steps

    def faulty(policy, steps):
        span = real(policy, steps)
        return span if steps else AffineSpan(span.consume, span.produce + Multiset({"x": 1}))

    monkeypatch.setattr(external, "_span_of_steps", faulty)
    return policy


def sequential_span(monkeypatch, policy):
    """The fold composes step spans as affine partial maps in sequence: a
    step's consume first takes what earlier steps produced, so the span
    depends on the order of the steps, not only on their counts."""
    real = external._span_of_steps

    def faulty(policy, steps):
        consume: dict = {}
        produce: dict = {}
        for transition in steps:
            step = real(policy, (transition,))
            for symbol, n in step.consume.items():
                used = min(n, produce.get(symbol, 0))
                produce[symbol] = produce.get(symbol, 0) - used
                consume[symbol] = consume.get(symbol, 0) + n - used
            for symbol, n in step.produce.items():
                produce[symbol] = produce.get(symbol, 0) + n
        return AffineSpan(Multiset({s: n for s, n in consume.items() if n}),
                          Multiset({s: n for s, n in produce.items() if n}))

    monkeypatch.setattr(external, "_span_of_steps", faulty)
    return policy


SPAN_FAULTS = {"clean": None, "span": overcounting_span, "fallback": every_consume_delegated,
               "compose": produce_dropping_compose, "empty": empty_fold_unit,
               "order": sequential_span}


@pytest.mark.parametrize("fault", sorted(SPAN_FAULTS))
@pytest.mark.parametrize("seed", range(16))
def test_prefix_pass_matches_per_cut_reference(seed, fault, monkeypatch):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    if seed % 4 == 1 and net.transitions:
        # an entry the inline gate refuses: span_of_transition accepts or rejects it
        t = rng.choice(net.transitions)
        bad = Count(2) if seed % 8 == 1 else rng.choice([-1, True, COUNT_MAX])
        policy = ManaPolicy({**policy.consume, t: bad}, policy.produce)
    traces = [random_trace(rng, net, random_marking(rng, net, 4)) for _ in range(8)]
    if SPAN_FAULTS[fault] is not None:
        policy = SPAN_FAULTS[fault](monkeypatch, policy)
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
    overcounting_span(monkeypatch, loop_policy)
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


def test_laxator_naturality_does_not_add_the_initial_markings():
    """Only the steps are combined: two markings whose sum passes
    COUNT_MAX are never added, so the check does not overflow."""
    net = Net.build(["a"], {"u": ({"a": 1}, {"a": 1})})
    t1 = Trace(net, Multiset({"a": COUNT_MAX}), ("u",))
    t2 = Trace(net, Multiset({"a": 1}), ("u", "u"))
    pool = Multiset({"u": 2})
    report = check_laxator_naturality(net, ManaPolicy.plain(net), [(t1, t2, pool, pool)])
    assert report.ok, report.results


# -- the laxator check against a fresh-fold reference -------------------------


def reference_check_laxator_naturality(net, policy, samples):
    """The laxator check with every span folded afresh.

    `span_of_trace`, `compose_spans` and `laxator` are looked up on the
    module at call time, so a monkeypatched fault reaches this reference
    and the library alike.
    """
    results = []
    for index, (t1, t2, pool1, pool2) in enumerate(samples):
        span1 = external.span_of_trace(policy, t1)
        span2 = external.span_of_trace(policy, t2)
        span12 = external.span_of_trace(policy, Trace(net, EMPTY, t1.steps + t2.steps))
        composed = external.compose_spans(span1, span2)
        witness = None
        if span12 != composed:
            witness = {"sample": index, "combined": external._span_dict(span12),
                       "composed": external._span_dict(composed)}
        else:
            left1, left2 = span1.apply(pool1), span2.apply(pool2)
            if left1 is not None and left2 is not None:
                acted = external.laxator(left1, left2)
                merged = span12.apply(external.laxator(pool1, pool2))
                if merged != acted:
                    witness = {"sample": index, "acted-then-merged": acted.as_dict(),
                               "merged-then-acted": None if merged is None else merged.as_dict()}
        results.append(law_result("laxator-naturality", witness))
    if not samples:
        results.append(law_result("laxator-naturality", None))
    return LawReport(tuple(results))


def laxator_samples(rng, net, count):
    """Samples drawn as ``check-laws`` draws them."""
    return [(random_trace(rng, net, random_marking(rng, net, 4)),
             random_trace(rng, net, random_marking(rng, net, 4)),
             random_state(rng, net).pool, random_state(rng, net).pool)
            for _ in range(count)]


@pytest.mark.parametrize("fault", sorted(SPAN_FAULTS))
@pytest.mark.parametrize("seed", range(16))
def test_laxator_check_matches_fresh_fold_reference(seed, fault, monkeypatch):
    rng = random.Random(seed)
    net = random_net(rng)
    policy = random_policy(rng, net)
    samples = laxator_samples(rng, net, 8)
    samples.append(samples[seed % 8])  # a repeated sample is judged again
    if SPAN_FAULTS[fault] is not None:
        policy = SPAN_FAULTS[fault](monkeypatch, policy)
    got = laws_outcome(check_laxator_naturality, net, policy, samples)
    assert got == laws_outcome(reference_check_laxator_naturality, net, policy, samples)


def test_identity_law_fails_with_its_witness(loop_net, loop_policy, ms, monkeypatch):
    traces = [Trace(loop_net, ms(p3=1), ("u3",)), Trace(loop_net, ms(p1=2), ())]
    empty_fold_unit(monkeypatch, loop_policy)
    got = check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got == reference_check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got == [
        {"law": "identity", "status": "fail",
         "counterexample": {"initial": {"p3": 1},
                            "span": {"consume": {}, "produce": {"x": 1}}}},
        {"law": "composition", "status": "fail",
         "counterexample": {"sample": 0, "cut": 0,
                            "whole": {"consume": {"u3": 1}, "produce": {"u3": 1}},
                            "glued": {"consume": {"u3": 1}, "produce": {"u3": 1, "x": 1}}}},
    ]


def union_laxator(monkeypatch):
    """Merging takes the larger count of each symbol instead of the sum."""
    monkeypatch.setattr(external, "laxator", lambda a, b: Multiset(
        {s: max(a[s], b[s]) for s in sorted(set(a.support()) | set(b.support()))}))


@pytest.mark.parametrize("fault, pool, witness", [
    pytest.param(overcounting_span, 2,
                 {"sample": 0, "combined": {"consume": {"u": 3}, "produce": {}},
                  "composed": {"consume": {"u": 2}, "produce": {}}}, id="combined-composed"),
    pytest.param(None, 2,
                 {"sample": 0, "acted-then-merged": {"u": 1}, "merged-then-acted": {}},
                 id="acted-merged"),
    pytest.param(None, 1,
                 {"sample": 0, "acted-then-merged": {}, "merged-then-acted": None},
                 id="acted-merged-undefined"),
])
def test_laxator_naturality_fails_with_each_witness(abc_net, plain, ms, monkeypatch,
                                                    fault, pool, witness):
    trace = Trace(abc_net, ms(A=1, B=1), ("u",))
    samples = [(trace, trace, ms(u=pool), ms(u=pool))]
    if fault is None:
        union_laxator(monkeypatch)
    else:
        fault(monkeypatch, plain)
    got = check_laxator_naturality(abc_net, plain, samples).to_json_list()
    assert got == reference_check_laxator_naturality(abc_net, plain, samples).to_json_list()
    assert got == [{"law": "laxator-naturality", "status": "fail", "counterexample": witness}]


# -- the per-call memo of folded spans ----------------------------------------


def test_consecutive_calls_fold_under_their_own_policy(abc_net, plain, ms):
    trace = Trace(abc_net, ms(A=2, B=2), ("u", "u"))
    assert check_functor_laws(abc_net, plain, [trace]).ok
    assert check_laxator_naturality(abc_net, plain, [(trace, trace, EMPTY, EMPTY)]).ok
    unknown = ManaPolicy({}, {})  # knows no transition: every non-empty fold raises
    for check, sample in ((check_functor_laws, trace),
                          (check_laxator_naturality, (trace, trace, EMPTY, EMPTY))):
        with pytest.raises(UnknownSymbolError) as err:
            check(abc_net, unknown, [sample])
        assert str(err.value) == "unknown symbol 'u' in mana policy"


def test_consecutive_calls_report_their_own_spans(abc_net, ms, monkeypatch):
    trace = Trace(abc_net, ms(A=2, B=2), ("u", "u"))
    twice = ManaPolicy({"u": 2}, {"u": EMPTY})
    overcounting_span(monkeypatch, twice)
    first = check_functor_laws(abc_net, ManaPolicy.plain(abc_net), [trace]).to_json_list()
    second = check_functor_laws(abc_net, twice, [trace]).to_json_list()
    assert first[1]["counterexample"]["whole"] == {"consume": {"u": 3}, "produce": {}}
    assert second[1]["counterexample"]["whole"] == {"consume": {"u": 5}, "produce": {}}


def test_law_checks_fold_each_step_order_apart(loop_net, loop_policy, ms, monkeypatch):
    # Under a fold that depends on order, u4 then u3 feeds u3's consume
    # from u4's produce, while u3 then u4 does not: equal occurrence
    # counts, different spans.
    sequential_span(monkeypatch, loop_policy)
    both = ms(p3=1, p4=1)
    traces = [Trace(loop_net, both, ("u3", "u4")), Trace(loop_net, both, ("u4", "u3"))]
    got = check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got == reference_check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got[1]["counterexample"] == {
        "sample": 1, "cut": 1,
        "whole": {"consume": {"u4": 1}, "produce": {"u2": 1, "u3": 1}},
        "glued": {"consume": {"u3": 1, "u4": 1}, "produce": {"u2": 1, "u3": 2}}}
    u3, u4 = Trace(loop_net, ms(p3=1), ("u3",)), Trace(loop_net, ms(p4=1), ("u4",))
    samples = [(u3, u4, EMPTY, EMPTY), (u4, u3, EMPTY, EMPTY)]
    got = check_laxator_naturality(loop_net, loop_policy, samples).to_json_list()
    assert got == reference_check_laxator_naturality(loop_net, loop_policy,
                                                      samples).to_json_list()
    assert [entry["status"] for entry in got] == ["pass", "fail"]


def test_a_repeated_step_tuple_is_still_walked_from_its_own_marking(abc_net, plain, ms):
    fires = Trace(abc_net, ms(A=2, B=2), ("u", "u"))
    stuck = Trace(abc_net, ms(A=1, B=1), ("u", "u"))
    traces = [fires, fires, stuck]
    got = laws_outcome(check_functor_laws, abc_net, plain, traces)
    assert got == laws_outcome(reference_check_functor_laws, abc_net, plain, traces)
    assert got == (NotEnabledError, "transition 'u' is not enabled (step 1)")


def test_the_first_failing_sample_keeps_the_witness(loop_net, loop_policy, ms, monkeypatch):
    once = Trace(loop_net, ms(p3=1), ("u3",))
    twice = Trace(loop_net, ms(p3=2), ("u3", "u3"))
    again = Trace(loop_net, ms(p3=3), ("u3", "u3"))
    traces = [once, twice, once, again]
    overcounting_span(monkeypatch, loop_policy)
    got = check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got == reference_check_functor_laws(loop_net, loop_policy, traces).to_json_list()
    assert got[1]["counterexample"] == {
        "sample": 1, "cut": 1,
        "whole": {"consume": {"u3": 3}, "produce": {"u3": 2}},
        "glued": {"consume": {"u3": 2}, "produce": {"u3": 2}}}
    none = Trace(loop_net, ms(p3=1), ())
    samples = [(once, once, EMPTY, EMPTY), (none, once, EMPTY, EMPTY),
               (once, once, EMPTY, EMPTY)]
    got = check_laxator_naturality(loop_net, loop_policy, samples).to_json_list()
    assert got == reference_check_laxator_naturality(loop_net, loop_policy,
                                                      samples).to_json_list()
    assert [entry["status"] for entry in got] == ["fail", "pass", "fail"]
    assert got[0]["counterexample"]["sample"] == 0
    assert got[2]["counterexample"]["sample"] == 2


def test_mana_reach_respects_pool(abc_net, plain, ms):
    graph = mana_reach(abc_net, plain, ManaState(ms(A=2, B=2), ms(u=1)), 6, 12)
    # only one firing possible: the pool runs dry before the tokens do
    assert len(graph.edges) == 1
