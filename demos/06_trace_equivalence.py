"""When do two firing sequences describe the same execution?

Independent firings commute: swapping them gives a different sequence
but the same execution. trace_equivalent searches the space of such
swaps exhaustively after comparing the cheap invariants, endpoints and
occurrence counts, so every answer is True or False.
"""

from mananets import (Multiset, Net, Trace, occurrence_multiset, run_trace,
                      trace_equivalent)

net = Net.build(
    ["p1", "p2", "p3", "p4"],
    {
        "t": ({"p1": 1}, {"p2": 1}),
        "v": ({"p2": 1}, {"p3": 1, "p4": 1}),
        "u": ({"p3": 1}, {"p4": 1}),
    },
)
start = Multiset({"p1": 1, "p2": 1, "p3": 2})

tvu = Trace(net, start, ("t", "v", "u"))
tuv = Trace(net, start, ("t", "u", "v"))
print("final of t;v;u:", run_trace(tvu).as_dict())
print("final of t;u;v:", run_trace(tuv).as_dict())
print("occurrences:   ", occurrence_multiset(tvu).as_dict())

# After t, the firings u and v touch disjoint tokens, so the two orders
# are the same execution.
print("t;v;u == t;u;v ?", trace_equivalent(tvu, tuv))

# Distinct generators are never the same execution, even between the
# same endpoints.
twin = Net.build(["A", "B"], {"u": ({"A": 1}, {"B": 1}),
                              "v": ({"A": 1}, {"B": 1})})
one = Trace(twin, Multiset({"A": 1}), ("u",))
other = Trace(twin, Multiset({"A": 1}), ("v",))
print("u == v ?        ", trace_equivalent(one, other))

# Length is no limit: these 10-step traces are decided exactly. A class
# of more than TRACE_CLASS_BUDGET orderings raises TraceClassBudgetError.
loops = Net.build(["A", "B"], {"a": ({"A": 1}, {"A": 1}),
                               "b": ({"B": 1}, {"B": 1})})
start = Multiset({"A": 1, "B": 1})
long1 = Trace(loops, start, ("a", "b") * 5)
long2 = Trace(loops, start, ("b", "a") * 5)
print("10 steps:       ", trace_equivalent(long1, long2))
