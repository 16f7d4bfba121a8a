import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mananets import (COUNT_MAX, EMPTY, CountOverflowError, Multiset, Net, NotEnabledError, Trace, TraceClassBudgetError,
                      UnknownSymbolError,
                      concat_traces, enabled, fire, occurrence_multiset,
                      reach, replay, run_trace, simulate, trace_equivalent)
from mananets import execution
from mananets.sampling import random_marking, random_net, random_trace
from reference_firing import outcome, reference_fire, reference_replay, replays


def test_enabled_with_surplus(atp_net, ms):
    assert enabled(atp_net, ms(ATP=2, H2O=1), "hydrolysis")


def test_not_enabled_without_water(atp_net, ms):
    assert not enabled(atp_net, ms(ATP=1), "hydrolysis")


def test_fire_moves_tokens(atp_net, ms):
    got = fire(atp_net, ms(ATP=2, H2O=1), "hydrolysis")
    assert got == ms(ATP=1, ADP=1, Pi=1)


def test_fire_fixpoint_when_pre_equals_post(ms):
    net = Net.build(["A"], {"u": ({"A": 1}, {"A": 1})})
    assert fire(net, ms(A=1), "u") == ms(A=1)


def test_fire_merge(abc_net, ms):
    assert fire(abc_net, ms(A=1, B=1), "u") == ms(C=1)


def test_fire_not_enabled_raises(abc_net, ms):
    with pytest.raises(NotEnabledError) as err:
        fire(abc_net, ms(A=1), "u")
    # One firing has no step index, unlike a step of a trace.
    assert err.value.index is None
    assert "(step" not in str(err.value)


def test_enabled_rejects_an_unknown_transition(abc_net, ms):
    with pytest.raises(UnknownSymbolError) as err:
        enabled(abc_net, ms(A=1), "z")
    assert err.value.symbol == "z"


def test_run_empty_trace_is_identity(abc_net, ms):
    assert run_trace(Trace(abc_net, ms(A=1))) == ms(A=1)


def test_run_three_stage_trace(pipeline_net, ms):
    trace = Trace(pipeline_net, ms(p1=1, p2=1, p3=2), ("t", "v", "u"))
    assert run_trace(trace) == ms(p2=1, p3=2, p4=2)


def test_single_step_trace_agrees_with_fire(atp_net, ms):
    initial = ms(ATP=2, H2O=1)
    assert run_trace(Trace(atp_net, initial, ("hydrolysis",))) == \
        fire(atp_net, initial, "hydrolysis")


def test_run_reports_failing_index(abc_net, ms):
    with pytest.raises(NotEnabledError) as err:
        run_trace(Trace(abc_net, ms(A=2, B=1), ("u", "u")))
    assert err.value.index == 1


def test_occurrence_examples(pipeline_net, ms):
    assert occurrence_multiset(Trace(pipeline_net, EMPTY)) == EMPTY
    trace = Trace(pipeline_net, ms(p1=1, p2=1, p3=2), ("t", "v", "u"))
    assert occurrence_multiset(trace) == ms(t=1, v=1, u=1)
    net = Net.build(["A"], {"u": ({}, {"A": 1})})
    assert occurrence_multiset(Trace(net, EMPTY, ("u", "u"))) == ms(u=2)


def test_occurrence_additive_under_concat(pipeline_net, ms):
    first = Trace(pipeline_net, ms(p1=1, p2=1, p3=2), ("t",))
    second = Trace(pipeline_net, run_trace(first), ("v", "u"))
    both = concat_traces(first, second)
    assert occurrence_multiset(both) == \
        occurrence_multiset(first) + occurrence_multiset(second)
    assert run_trace(both) == run_trace(second)


def test_concat_rejects_traces_that_do_not_compose(pipeline_net, abc_net, ms):
    first = Trace(pipeline_net, ms(p1=1), ("t",))
    with pytest.raises(ValueError, match="^traces live on different nets$"):
        concat_traces(first, Trace(abc_net, ms(p2=1)))
    with pytest.raises(ValueError, match="^traces do not compose: end marking differs"):
        concat_traces(first, Trace(pipeline_net, ms(p1=1)))


# -- trace equivalence -------------------------------------------------------


def oracle_equivalent(t1, t2):
    """Independent oracle: breadth-first search over legal adjacent swaps,
    where a swap is legal exactly when the reference replays the swapped
    sequence."""
    if (t1.initial != t2.initial
            or sorted(t1.steps) != sorted(t2.steps)
            or reference_replay(t1)[-1] != reference_replay(t2)[-1]):
        return False
    seen = {t1.steps}
    queue = deque([t1.steps])
    while queue:
        steps = queue.popleft()
        if steps == t2.steps:
            return True
        for i in range(len(steps) - 1):
            swapped = steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:]
            if swapped not in seen and replays(Trace(t1.net, t1.initial, swapped)):
                seen.add(swapped)
                queue.append(swapped)
    return False


def test_independent_steps_commute(ms):
    net = Net.build(["A", "B", "X", "Y"], {
        "u": ({"A": 1}, {"X": 1}),
        "v": ({"B": 1}, {"Y": 1}),
    })
    initial = ms(A=1, B=1)
    assert trace_equivalent(Trace(net, initial, ("u", "v")),
                            Trace(net, initial, ("v", "u"))) is True


def test_distinct_parallel_generators_differ(ms):
    net = Net.build(["A", "B"], {
        "u": ({"A": 1}, {"B": 1}),
        "v": ({"A": 1}, {"B": 1}),
    })
    assert trace_equivalent(Trace(net, ms(A=1), ("u",)),
                            Trace(net, ms(A=1), ("v",))) is False


def test_pipeline_swap_after_shared_prefix(pipeline_net, ms):
    initial = ms(p1=1, p2=1, p3=2)
    t1 = Trace(pipeline_net, initial, ("t", "v", "u"))
    t2 = Trace(pipeline_net, initial, ("t", "u", "v"))
    assert oracle_equivalent(t1, t2)
    assert trace_equivalent(t1, t2) is True


def test_conflicting_order_not_equivalent(ms):
    # v eats the token u needs, so only one order replays; the two traces
    # are even distinguishable by their endpoints here.
    net = Net.build(["A", "B"], {
        "u": ({"A": 2}, {"A": 1}),
        "v": ({"A": 1}, {"B": 1}),
    })
    t1 = Trace(net, ms(A=2), ("u", "v"))
    t2 = Trace(net, ms(A=2), ("v", "u"))
    assert run_trace(t1) == ms(B=1)
    with pytest.raises(NotEnabledError):
        run_trace(t2)


def test_resource_contention_swap_still_legal(ms):
    # u needs the whole budget that v touches; the swap is legal exactly
    # because both orders replay, and the search must find it.
    net = Net.build(["A"], {
        "u": ({"A": 2}, {"A": 2}),
        "v": ({"A": 1}, {"A": 1}),
    })
    t1 = Trace(net, ms(A=2), ("u", "v"))
    t2 = Trace(net, ms(A=2), ("v", "u"))
    assert run_trace(t1) == run_trace(t2)
    assert oracle_equivalent(t1, t2)
    assert trace_equivalent(t1, t2) is True


def test_identical_traces_equivalent_beyond_bound(ms):
    net = Net.build(["A"], {"u": ({"A": 1}, {"A": 1})})
    steps = ("u",) * 12
    t = Trace(net, ms(A=1), steps)
    assert trace_equivalent(t, t) is True


#: Two processes share the lock L (acquire, then release), next to the
#: self-loops x and y. A release followed by the other side's acquire
#: cannot swap, since the acquire needs the lock the release returns, so
#: the two orders of the critical sections are a mutex hole: same
#: endpoints and occurrences, no chain of swaps between them.
MUTEX = Net.build(["L", "A0", "A1", "B0", "B1", "X", "Y"], {
    "acq_a": ({"L": 1, "A0": 1}, {"A1": 1}),
    "rel_a": ({"A1": 1}, {"L": 1, "A0": 1}),
    "acq_b": ({"L": 1, "B0": 1}, {"B1": 1}),
    "rel_b": ({"B1": 1}, {"L": 1, "B0": 1}),
    "x": ({"X": 1}, {"X": 1}),
    "y": ({"Y": 1}, {"Y": 1}),
})
A_THEN_B = ("acq_a", "rel_a", "acq_b", "rel_b")
B_THEN_A = ("acq_b", "rel_b", "acq_a", "rel_a")


@pytest.mark.parametrize("steps1, steps2, expected", [
    (("acq_a", "x", "rel_a", "y", "x", "y", "x", "y", "x"),
     ("x", "y", "acq_a", "y", "x", "rel_a", "x", "y", "x"), True),
    (A_THEN_B + ("x",) * 5, ("x",) * 5 + B_THEN_A, False),
    (("x", "y") * 5, ("y", "x") * 5, True),
    (A_THEN_B + ("x",) * 5 + ("y",), ("y",) + B_THEN_A + ("x",) * 5, False),
    (("x",) * 3 + A_THEN_B + ("x",) * 4, ("x",) * 7 + A_THEN_B, True),
    (A_THEN_B + ("x",) * 7, ("x",) * 7 + B_THEN_A, False),
    (("x", "y") * 6, ("y", "x") * 6, True),
    (("x",) * 4 + A_THEN_B + ("x",) * 4, B_THEN_A + ("x",) * 8, False),
], ids=[f"{n}-{kind}" for n in (9, 10, 11, 12) for kind in ("swaps", "hole")])
def test_long_pairs_match_oracle(ms, steps1, steps2, expected):
    # 9 to 12 steps: past the length the search once gave up at.
    initial = ms(L=1, A0=1, B0=1, X=1, Y=1)
    t1, t2 = Trace(MUTEX, initial, steps1), Trace(MUTEX, initial, steps2)
    assert 9 <= len(t1) <= 12
    # Only the swap search tells the pair apart.
    assert occurrence_multiset(t1) == occurrence_multiset(t2)
    assert run_trace(t1) == run_trace(t2)
    assert oracle_equivalent(t1, t2) is expected
    assert trace_equivalent(t1, t2) is expected
    assert trace_equivalent(t2, t1) is expected


def test_class_past_the_budget_raises(ms, monkeypatch):
    # A false pair's search visits the whole class of t1: A_THEN_B in its
    # fixed order with x and y anywhere, 6 * 5 = 30 orderings.
    initial = ms(L=1, A0=1, B0=1, X=1, Y=1)
    t1 = Trace(MUTEX, initial, A_THEN_B + ("x", "y"))
    t2 = Trace(MUTEX, initial, ("x", "y") + B_THEN_A)
    monkeypatch.setattr(execution, "TRACE_CLASS_BUDGET", 30)
    assert trace_equivalent(t1, t2) is False
    monkeypatch.setattr(execution, "TRACE_CLASS_BUDGET", 29)
    with pytest.raises(TraceClassBudgetError) as err:
        trace_equivalent(t1, t2)
    assert err.value.budget == 29
    # Pairs the invariants decide never search.
    monkeypatch.setattr(execution, "TRACE_CLASS_BUDGET", 0)
    assert trace_equivalent(t1, t1) is True
    assert trace_equivalent(t1, Trace(MUTEX, initial, ("x", "y"))) is False


def test_an_illegal_swap_is_not_a_stepping_stone(ms):
    # v fires before u from {A}, but u cannot fire after it. Were that swap
    # taken, (v, u, w) would carry the markings of the pair as if both had
    # fired, and its legal-looking swap of u and w would reach t2.
    net = Net.build(["A", "B", "C"], {
        "u": ({"A": 1}, {"A": 1, "B": 1}),
        "v": ({"A": 1}, {"C": 1}),
        "w": ({"C": 1}, {"A": 1}),
    })
    t1 = Trace(net, ms(A=1), ("u", "v", "w"))
    t2 = Trace(net, ms(A=1), ("v", "w", "u"))
    assert replays(t1) and replays(t2)
    assert oracle_equivalent(t1, t2) is False
    assert trace_equivalent(t1, t2) is False
    assert trace_equivalent(t2, t1) is False


def test_no_ordering_is_walked_again(ms, monkeypatch):
    # The false pair of the budget test: its search visits all 30
    # orderings of the class of t1.
    initial = ms(L=1, A0=1, B0=1, X=1, Y=1)
    t1 = Trace(MUTEX, initial, A_THEN_B + ("x", "y"))
    t2 = Trace(MUTEX, initial, ("x", "y") + B_THEN_A)
    walked = []
    walk = execution._walk

    def spy(net, counts, steps, markings=None):
        walked.append(tuple(steps))
        return walk(net, counts, steps, markings)

    monkeypatch.setattr(execution, "_walk", spy)
    assert trace_equivalent(t1, t2) is False
    assert walked[:2] == [t1.steps, t2.steps]
    # After the two validation walks, only a swap's pair or the one
    # marking between it is walked: one one-step walk for each ordering
    # of the class but t1.
    assert sum(len(steps) == 1 for steps in walked[2:]) == 30 - 1
    assert max(map(len, walked[2:])) <= 2


@pytest.mark.parametrize("block", range(15))
def test_equivalence_matches_oracle_on_random_traces(block):
    """Every reordering that replays of a random trace of up to 6 steps,
    for 40 seeds per block."""
    for seed in range(40 * block, 40 * block + 40):
        rng = random.Random(seed)
        net = random_net(rng, max_places=3, max_transitions=3)
        initial = random_marking(rng, net, 4)
        t1 = random_trace(rng, net, initial, max_steps=6)
        for steps in sorted(set(itertools.permutations(t1.steps))):
            t2 = Trace(net, initial, steps)
            if replays(t2):
                assert trace_equivalent(t1, t2) is oracle_equivalent(t1, t2), (seed, steps)


def test_traces_on_two_different_nets_are_not_equivalent(abc_net, ms):
    other = Net.build(["A", "B", "C"], {"u": ({"A": 1, "B": 1}, {"A": 1})})
    t = Trace(abc_net, ms(A=1, B=1), ("u",))
    assert trace_equivalent(t, Trace(other, ms(A=1, B=1), ("u",))) is False


def test_equivalence_reflexive_symmetric(pipeline_net, ms):
    initial = ms(p1=1, p2=1, p3=2)
    t1 = Trace(pipeline_net, initial, ("t", "v", "u"))
    t2 = Trace(pipeline_net, initial, ("t", "u", "v"))
    assert trace_equivalent(t1, t1) is True
    assert trace_equivalent(t1, t2) == trace_equivalent(t2, t1)


# -- reachability --------------------------------------------------------------


def bfs_oracle(net, initial, depth, bound):
    """Independent breadth-first exploration used to freeze expectations."""
    nodes = {initial}
    edges = set()
    frontier = [initial]
    for _ in range(depth):
        nxt = []
        for marking in frontier:
            for t in net.transitions:
                rest = marking.minus(net.pre[t])
                if rest is None:
                    continue
                target = rest + net.post[t]
                if target.total() > bound:
                    continue
                edges.add((marking, t, target))
                if target not in nodes:
                    nodes.add(target)
                    nxt.append(target)
        frontier = nxt
    return nodes, edges


def test_reach_atp_window(atp_net, ms):
    initial = ms(ATP=2, H2O=1)
    graph = reach(atp_net, initial, 2, 10)
    nodes, edges = bfs_oracle(atp_net, initial, 2, 10)
    assert set(graph.nodes) == nodes
    assert set(graph.edges) == edges
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1
    assert not graph.truncated


def test_reach_empty_marking(abc_net):
    graph = reach(abc_net, EMPTY, 4, 10)
    assert graph.nodes == (EMPTY,)
    assert graph.edges == ()


def test_reach_self_loop(ms):
    net = Net.build(["A"], {"u": ({"A": 1}, {"A": 1})})
    graph = reach(net, ms(A=1), 3, 10)
    assert len(graph.nodes) == 1
    assert graph.edges == ((ms(A=1), "u", ms(A=1)),)
    assert not graph.truncated


def test_reach_token_bound_truncates(ms):
    net = Net.build(["A"], {"u": ({"A": 1}, {"A": 2})})
    graph = reach(net, ms(A=1), 10, 3)
    assert graph.truncated
    assert all(m.total() <= 3 for m in graph.nodes)


def test_reach_depth_bound_truncates(ms):
    net = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1})})
    graph = reach(net, ms(A=3), 1, 10)
    assert graph.truncated  # a second firing exists beyond the window


def test_reach_deterministic(loop_net, ms):
    a = reach(loop_net, ms(p1=2, p2=1), 4, 10)
    b = reach(loop_net, ms(p1=2, p2=1), 4, 10)
    assert a == b


def test_token_conservation_per_firing(atp_net, ms):
    initial = ms(ATP=2, H2O=1)
    fired = fire(atp_net, initial, "hydrolysis")
    pre, post = atp_net.arcs("hydrolysis")
    assert fired.total() == initial.total() - pre.total() + post.total()


def test_simulate_lex_and_seeded(pipeline_net, ms):
    trace = simulate(pipeline_net, ms(p1=1, p2=1), 5)
    assert trace.steps  # something fires, deterministically
    again = simulate(pipeline_net, ms(p1=1, p2=1), 5)
    assert trace == again
    seeded = simulate(pipeline_net, ms(p1=1, p2=1), 5, random.Random(3))
    assert run_trace(seeded) is not None


def reference_simulate(net, initial, max_steps, rng=None):
    """simulate as a walk over Multiset markings, firing with the reference."""
    labels = sorted(net.transitions)
    marking = initial
    steps = []
    for _ in range(max_steps):
        candidates = [t for t in labels if net.pre[t] <= marking]
        if not candidates:
            break
        choice = rng.choice(candidates) if rng is not None else candidates[0]
        marking = reference_fire(net, marking, choice)
        steps.append(choice)
    return Trace(net, initial, tuple(steps))


def simulate_outcome(walk, net, initial, max_steps, seed):
    rng = None if seed is None else random.Random(seed)
    try:
        result = "ok", walk(net, initial, max_steps, rng)
    except CountOverflowError as err:
        result = "overflow", err.symbol, err.count
    return result, None if rng is None else rng.getstate()


# Counts near the bound make some firings overflow. Arcs and markings built
# from pairs keep the drawn order, so a post with two overflowing symbols
# meets them out of symbol order.
sim_counts = st.one_of(st.integers(1, 2), st.integers(COUNT_MAX - 2, COUNT_MAX))
sim_multisets = st.lists(st.tuples(st.sampled_from("DCBA"), sim_counts),
                         unique_by=lambda pair: pair[0], max_size=3).map(Multiset)


@st.composite
def simulation_nets(draw):
    names = draw(st.lists(st.sampled_from("uvwx"), max_size=4, unique=True))
    return Net(("A", "B", "C", "D"), tuple(names),
               {t: draw(sim_multisets) for t in names},
               {t: draw(sim_multisets) for t in names})


#: Initial markings may hold X, a symbol outside every net, which is inert.
sim_markings = st.lists(st.tuples(st.sampled_from("XDCBA"), sim_counts),
                        unique_by=lambda pair: pair[0], max_size=3).map(Multiset)


@given(simulation_nets(), sim_markings, st.integers(0, 8),
       st.one_of(st.none(), st.integers(0, 2**32)))
def test_simulate_matches_multiset_walk(net, initial, max_steps, seed):
    got = simulate_outcome(simulate, net, initial, max_steps, seed)
    assert got == simulate_outcome(reference_simulate, net, initial, max_steps, seed)


def test_simulate_compiles_each_net_once(monkeypatch, pipeline_net, ms):
    compiled = []
    compile_game = execution.TokenGame._compile

    def counting(game, *layout):
        compiled.append(game.net)
        compile_game(game, *layout)

    monkeypatch.setattr(execution.TokenGame, "_compile", counting)
    text = repr(pipeline_net)
    for seed in range(25):
        simulate(pipeline_net, ms(p1=1, p2=1), 5, random.Random(seed))
    assert len(compiled) == 1 and compiled[0] is pipeline_net
    twin = Net(pipeline_net.places, pipeline_net.transitions, pipeline_net.pre,
               pipeline_net.post)
    assert simulate(twin, ms(p1=1, p2=1), 5) == simulate(pipeline_net, ms(p1=1, p2=1), 5)
    assert len(compiled) == 2 and compiled[1] is twin
    assert twin == pipeline_net and repr(pipeline_net) == repr(twin) == text


def test_simulate_names_the_first_overflowing_post_symbol():
    net = Net(("A", "B"), ("u",), {"u": EMPTY},
              {"u": Multiset([("B", COUNT_MAX), ("A", COUNT_MAX)])})
    initial = Multiset({"A": 1, "B": 1})
    with pytest.raises(CountOverflowError) as err:
        simulate(net, initial, 1)
    assert (err.value.symbol, err.value.count) == ("B", COUNT_MAX + 1)


def test_identical_invalid_traces_still_raise_with_index(abc_net, ms):
    t = Trace(abc_net, ms(A=1, B=1), ("u", "u"))
    with pytest.raises(NotEnabledError) as err:
        trace_equivalent(t, Trace(abc_net, ms(A=1, B=1), ("u", "u")))
    assert err.value.index == 1
    with pytest.raises(NotEnabledError) as err:
        trace_equivalent(t, t)
    assert err.value.index == 1


def test_an_invalid_pair_raises_with_the_index_of_the_first_invalid_trace(pipeline_net, ms):
    initial = ms(p1=1)
    valid = Trace(pipeline_net, initial, ("t", "v", "u"))
    u_too_early = Trace(pipeline_net, initial, ("t", "u", "v"))  # blocked at 1
    u_first = Trace(pipeline_net, initial, ("u", "t", "v"))  # blocked at 0
    for t1, t2, index in [(u_too_early, valid, 1), (valid, u_first, 0),
                          (u_too_early, u_first, 1), (u_first, u_too_early, 0)]:
        # Same occurrences, so only the walks tell the pair apart.
        assert occurrence_multiset(t1) == occurrence_multiset(t2)
        with pytest.raises(NotEnabledError) as err:
            trace_equivalent(t1, t2)
        assert (err.value.transition, err.value.index) == ("u", index)


@st.composite
def walked_traces(draw):
    """Traces whose steps may lack tokens, name an unknown transition or overflow a count."""
    net = draw(simulation_nets())
    post = dict(net.post)
    if post and draw(st.booleans()):
        del post[draw(st.sampled_from(sorted(post)))]  # a transition with no post arcs
    steps = draw(st.lists(st.sampled_from((*net.transitions, "z")), max_size=6))
    return Trace(Net(net.places, net.transitions, net.pre, post), draw(sim_multisets), steps)


ONE_STEP = Net(("A", "B"), ("u",), {"u": Multiset({"A": 1})}, {"u": Multiset({"B": 1})})
#: A post whose two counts overflow, met out of symbol order.
TWO_OVERFLOWS = Trace(Net(("A", "B"), ("u",), {"u": EMPTY},
                          {"u": Multiset([("B", COUNT_MAX), ("A", COUNT_MAX)])}),
                      Multiset({"A": 1, "B": 1}), ("u",))


def fired_markings(fire_one, trace):
    """The markings of `trace`, firing its steps one by one with `fire_one`."""
    markings = [trace.initial]
    for transition in trace.steps:
        markings.append(fire_one(trace.net, markings[-1], transition))
    return markings


def assert_fires_as_the_reference(trace):
    """Each public way to fire `trace` returns or raises what the reference does."""
    expected = outcome(reference_replay, trace)
    valid = expected[0] == "ok"
    assert outcome(replay, trace) == expected
    assert outcome(run_trace, trace) == (("ok", expected[1][-1]) if valid else expected)
    assert outcome(trace_equivalent, trace, trace) == (("ok", True) if valid else expected)
    assert (outcome(fired_markings, fire, trace)
            == outcome(fired_markings, reference_fire, trace))
    return expected


BLOCKED = Trace(ONE_STEP, Multiset({"A": 1}), ("u", "u"))
UNKNOWN_STEP = Trace(ONE_STEP, Multiset({"A": 1}), ("u", "z"))
NO_POST_ARCS = Trace(Net(("A",), ("u",), {"u": EMPTY}, {}), EMPTY, ("u",))


@given(walked_traces())
@example(BLOCKED)
@example(UNKNOWN_STEP)
@example(NO_POST_ARCS)
@example(TWO_OVERFLOWS)
@example(Trace(ONE_STEP, Multiset({"A": 2}), ("u", "u")))
def test_firing_entry_points_match_the_reference(trace):
    assert_fires_as_the_reference(trace)


def test_each_firing_error_is_named_as_the_reference_names_it():
    cases = [(BLOCKED, NotEnabledError), (UNKNOWN_STEP, UnknownSymbolError),
             (NO_POST_ARCS, UnknownSymbolError), (TWO_OVERFLOWS, CountOverflowError)]
    for trace, kind in cases:
        assert assert_fires_as_the_reference(trace)[0] is kind
    with pytest.raises(NotEnabledError) as err:
        replay(BLOCKED)
    assert err.value.index == 1
    with pytest.raises(CountOverflowError) as err:
        run_trace(TWO_OVERFLOWS)
    assert (err.value.symbol, err.value.count) == ("B", COUNT_MAX + 1)
