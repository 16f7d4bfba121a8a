"""Seed-driven random generators for nets, policies, states and traces.

Law checks and the test suite sample from these with an explicit
``random.Random`` so every report is reproducible from its seed.

Every integer draw, here and in a seeded walk, goes through
:func:`~mananets.execution._below`: ``rng.getrandbits(n.bit_length())``,
drawn again while the result is ``n`` or more. That is the rule of
``Random``'s own ``randrange``, ``randint`` and ``choice``, so the
numbers are theirs; written out here, it pins each report to its seed
across interpreters, whatever their ``random`` module does around the
rule. A ``Random`` subclass that overrides only ``random()`` draws
its integers through ``getrandbits``, not through its ``random()`` as
its own ``randrange`` would.
"""

from __future__ import annotations

import random

from .execution import Trace, _below, simulate
from .external import ManaState
from .internal import ManaPolicy
from .multiset import EMPTY, Multiset, _of_counts
from .net import Net, NetMorphism, lift_multiset_map


def random_multiset(rng: random.Random, symbols, max_total: int) -> Multiset:
    """Up to `max_total` draws from `symbols`, with replacement."""
    symbols = list(symbols)
    if not symbols or max_total <= 0:
        return EMPTY
    counts: dict[str, int] = {}
    for _ in range(_below(rng, max_total + 1)):
        symbol = symbols[_below(rng, len(symbols))]
        counts[symbol] = counts.get(symbol, 0) + 1
    return _of_counts(counts)


def random_net(rng: random.Random, max_places: int = 5, max_transitions: int = 4,
               max_arc_total: int = 3) -> Net:
    """A small well-formed net with places p0.. and transitions t0.."""
    places = tuple(f"p{i}" for i in range(1 + _below(rng, max_places)))
    names = tuple(f"t{i}" for i in range(_below(rng, max_transitions + 1)))
    return Net(places, names,
               {t: random_multiset(rng, places, max_arc_total) for t in names},
               {t: random_multiset(rng, places, max_arc_total) for t in names})


def random_policy(rng: random.Random, net: Net, max_consume: int = 2,
                  max_produce_total: int = 3) -> ManaPolicy:
    """Arbitrary consume counts (0 allowed) and produce multisets."""
    return ManaPolicy(
        {t: _below(rng, max_consume + 1) for t in net.transitions},
        {t: random_multiset(rng, net.transitions, max_produce_total)
         for t in net.transitions},
    )


def random_marking(rng: random.Random, net: Net, max_tokens: int = 3) -> Multiset:
    return random_multiset(rng, net.places, max_tokens)


def random_state(rng: random.Random, net: Net, max_tokens: int = 3,
                 max_pool: int = 3) -> ManaState:
    """A random marking, then a random pool, drawn in that order.

    Callers that keep only the pool still draw the marking, so the
    numbers drawn after it, and every report seeded with them, stay put.
    """
    return ManaState(random_marking(rng, net, max_tokens),
                     random_multiset(rng, net.transitions, max_pool))


def random_trace(rng: random.Random, net: Net, initial: Multiset,
                 max_steps: int = 6) -> Trace:
    """A random walk through enabled transitions, possibly shorter than asked."""
    return simulate(net, initial, _below(rng, max_steps + 1), rng)


def random_net_morphism(rng: random.Random, source: Net) -> NetMorphism:
    """A valid morphism out of `source`, built as quotient-then-embed.

    Places are merged through a random bucketing; transitions whose
    relabelled arcs coincide may be merged too. The target optionally
    gains an extra isolated place so the morphism need not be surjective.
    """
    buckets = 1 + _below(rng, max(1, len(source.places)))
    place_map = {p: f"q{_below(rng, buckets)}" for p in source.places}
    target_places = sorted(set(place_map.values()))

    lifted = {t: (lift_multiset_map(place_map, source.pre[t]),
                  lift_multiset_map(place_map, source.post[t]))
              for t in source.transitions}
    merge_parallel = rng.random() < 0.5
    transition_map: dict[str, str] = {}
    representative: dict[tuple, str] = {}
    for t in source.transitions:
        key = lifted[t] if merge_parallel else (t,)
        if key not in representative:
            representative[key] = f"m_{t}"
        transition_map[t] = representative[key]

    target_transitions = []
    pre = {}
    post = {}
    for t in source.transitions:
        image = transition_map[t]
        if image not in pre:
            target_transitions.append(image)
            pre[image], post[image] = lifted[t]

    if rng.random() < 0.5:
        target_places.append("q_extra")
    target = Net(tuple(target_places), tuple(target_transitions), pre, post)
    return NetMorphism(source, target, transition_map, place_map)
