import random

import pytest

from mananets import (EMPTY, ManaPolicy, Multiset, Net, Trace, replay,
                      validate_morphism, validate_net, validate_policy)
from mananets.execution import _below
from mananets.sampling import (random_marking, random_multiset, random_net,
                               random_net_morphism, random_policy, random_state,
                               random_trace)
from reference_firing import reference_fire


@pytest.mark.parametrize("seed", range(25))
def test_generators_produce_wellformed_data(seed):
    rng = random.Random(seed)
    net = random_net(rng)
    assert validate_net(net) == []

    policy = random_policy(rng, net)
    assert validate_policy(net, policy) == []

    state = random_state(rng, net)
    assert set(state.marking.support()) <= set(net.places)
    assert set(state.pool.support()) <= set(net.transitions)

    trace = random_trace(rng, net, random_marking(rng, net, 4))
    replay(trace)  # must not raise

    morphism = random_net_morphism(rng, net)
    assert validate_morphism(morphism) == []


def test_same_seed_same_output():
    a = random_net(random.Random(99))
    b = random_net(random.Random(99))
    assert a == b


# -- the draw rule ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_a_draw_is_what_randrange_returns(seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    assert [_below(mine, n) for n in range(1, 301)] == [theirs.randrange(n)
                                                       for n in range(1, 301)]
    assert mine.getstate() == theirs.getstate()


def ref_multiset(rng, symbols, max_total):
    symbols = list(symbols)
    if not symbols or max_total <= 0:
        return EMPTY
    counts = {}
    for _ in range(rng.randint(0, max_total)):
        symbol = rng.choice(symbols)
        counts[symbol] = counts.get(symbol, 0) + 1
    return Multiset(counts)


def ref_net(rng):
    places = tuple(f"p{i}" for i in range(rng.randint(1, 5)))
    names = tuple(f"t{i}" for i in range(rng.randint(0, 4)))
    return Net(places, names, {t: ref_multiset(rng, places, 3) for t in names},
               {t: ref_multiset(rng, places, 3) for t in names})


def ref_policy(rng, net):
    return ManaPolicy({t: rng.randint(0, 2) for t in net.transitions},
                      {t: ref_multiset(rng, net.transitions, 3) for t in net.transitions})


def ref_trace(rng, net, initial):
    marking, steps = initial, []
    for _ in range(rng.randint(0, 6)):
        moves = [t for t in sorted(net.transitions) if net.pre[t] <= marking]
        if not moves:
            break
        steps.append(rng.choice(moves))
        marking = reference_fire(net, marking, steps[-1])
    return Trace(net, initial, tuple(steps))


def ref_morphism(rng, source):
    """The draws of random_net_morphism: the place map and the extra place."""
    buckets = max(1, rng.randint(1, max(1, len(source.places))))
    place_map = {p: f"q{rng.randrange(buckets)}" for p in source.places}
    rng.random()  # whether parallel transitions merge
    return place_map, rng.random() < 0.5


def morphism_draws(rng, source):
    morphism = random_net_morphism(rng, source)
    return morphism.place_map, "q_extra" in morphism.target.places


def samples(rng, net_of, policy_of, multiset_of, trace_of, morphism_of):
    net = net_of(rng)
    policy = policy_of(rng, net)
    marking = multiset_of(rng, net.places, 4)
    pool = multiset_of(rng, net.transitions, 3)
    return net, policy, marking, pool, trace_of(rng, net, marking), morphism_of(rng, net)


@pytest.mark.parametrize("seed", range(40))
def test_each_sampler_draws_what_randint_and_choice_draw(seed):
    mine, theirs = random.Random(seed), random.Random(seed)
    assert samples(mine, random_net, random_policy, random_multiset, random_trace,
                   morphism_draws) == samples(theirs, ref_net, ref_policy, ref_multiset,
                                              ref_trace, ref_morphism)
    assert mine.getstate() == theirs.getstate()


def test_empty_ranges_raise():
    # The redraw rule would never stop on an empty range.
    net = random_net(random.Random(0))
    for draw in (lambda rng: _below(rng, 0), lambda rng: _below(rng, -1),
                 lambda rng: random_trace(rng, net, EMPTY, max_steps=-1),
                 lambda rng: random_net(rng, max_places=0)):
        with pytest.raises(ValueError):
            draw(random.Random(0))
