import random
from collections import deque

import pytest

from mananets import (EMPTY, Net, NotEnabledError, Trace, TraceClassBudgetError,
                      concat_traces, enabled, fire, occurrence_multiset,
                      reach, replay, run_trace, simulate, trace_equivalent)
from mananets import execution
from mananets.sampling import random_marking, random_net, random_trace


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
    with pytest.raises(NotEnabledError):
        fire(abc_net, ms(A=1), "u")


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


# -- trace equivalence -------------------------------------------------------


def oracle_equivalent(t1, t2):
    """Independent oracle: breadth-first search over legal adjacent swaps,
    where a swap is legal exactly when the swapped sequence still replays."""
    if (t1.initial != t2.initial
            or sorted(t1.steps) != sorted(t2.steps)
            or run_trace(t1) != run_trace(t2)):
        return False

    def replays(steps):
        marking = t1.initial
        for u in steps:
            rest = marking.minus(t1.net.pre[u])
            if rest is None:
                return False
            marking = rest + t1.net.post[u]
        return True

    seen = {t1.steps}
    queue = deque([t1.steps])
    while queue:
        steps = queue.popleft()
        if steps == t2.steps:
            return True
        for i in range(len(steps) - 1):
            swapped = steps[:i] + (steps[i + 1], steps[i]) + steps[i + 2:]
            if swapped not in seen and replays(swapped):
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


@pytest.mark.parametrize("seed", range(15))
def test_equivalence_matches_oracle_on_random_traces(seed):
    rng = random.Random(seed)
    net = random_net(rng, max_places=3, max_transitions=3)
    initial = random_marking(rng, net, 4)
    t1 = random_trace(rng, net, initial, max_steps=5)
    shuffled = list(t1.steps)
    rng.shuffle(shuffled)
    t2 = Trace(net, initial, tuple(shuffled))
    try:
        replay(t2)
    except NotEnabledError:
        return
    assert trace_equivalent(t1, t2) is oracle_equivalent(t1, t2)


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


def test_identical_invalid_traces_still_raise_with_index(abc_net, ms):
    t = Trace(abc_net, ms(A=1, B=1), ("u", "u"))
    with pytest.raises(NotEnabledError) as err:
        trace_equivalent(t, Trace(abc_net, ms(A=1, B=1), ("u", "u")))
    assert err.value.index == 1
    with pytest.raises(NotEnabledError) as err:
        trace_equivalent(t, t)
    assert err.value.index == 1
