"""The external mana semantics: states with pools and affine spans.

Instead of baking mana places into the net, a state is a pair
:class:`ManaState` of a marking and a pool of mana counts per
transition, and each execution acts on pools through an
:class:`AffineSpan`: subtract the consumed multiset, add the produced
one. Span composition is componentwise addition, and the laxator that
merges the pools of two states considered together is just the multiset
sum; :func:`check_functor_laws` and :func:`check_laxator_naturality`
verify these facts on sampled traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotManaEnabledError, UnknownSymbolError
from .execution import (ReachGraph, TokenGame, Trace, _segment_key, enabled, fire,
                        replay)
from .internal import ManaPolicy
from .multiset import EMPTY, Multiset
from .net import Net
from .reports import LawReport, LawResult, law_result


@dataclass(frozen=True)
class ManaState:
    """A marking over the places plus a mana pool over the transitions."""

    marking: Multiset
    pool: Multiset

    def sort_key(self):
        return (self.marking.sort_key(), self.pool.sort_key())

    def size(self) -> int:
        """Tokens plus pooled mana, the quantity bounded by reachability."""
        return self.marking.total() + self.pool.total()


@dataclass(frozen=True)
class AffineSpan:
    """The action of an execution on mana pools: consume, then produce.

    Applied to a pool ``u`` this computes ``u - consume + produce``,
    undefined (None) when the pool cannot cover the consumption.
    """

    consume: Multiset
    produce: Multiset

    @classmethod
    def identity(cls) -> AffineSpan:
        return cls(EMPTY, EMPTY)

    def apply(self, pool: Multiset) -> Multiset | None:
        rest = pool.minus(self.consume)
        return None if rest is None else rest + self.produce


def span_of_transition(policy: ManaPolicy, transition: str) -> AffineSpan:
    """One firing's pool action: its own mana in, its products out."""
    if transition not in policy.consume:
        raise UnknownSymbolError(transition, "mana policy")
    return AffineSpan(Multiset({transition: policy.consume[transition]}),
                      policy.produce[transition])


def compose_spans(first: AffineSpan, second: AffineSpan) -> AffineSpan:
    """Sequential composition, which for affine spans is componentwise sum."""
    return AffineSpan(first.consume + second.consume,
                      first.produce + second.produce)


def span_of_trace(policy: ManaPolicy, trace: Trace) -> AffineSpan:
    """Fold the firing spans of a whole trace."""
    span = AffineSpan.identity()
    for transition in trace.steps:
        span = compose_spans(span, span_of_transition(policy, transition))
    return span


def laxator(pool1: Multiset, pool2: Multiset) -> Multiset:
    """Merge the pool knowledge of two states considered together."""
    return pool1 + pool2


def mana_enabled(net: Net, policy: ManaPolicy, state: ManaState, transition: str) -> bool:
    """Enabled on the token side and coverable on the pool side."""
    if not enabled(net, state.marking, transition):
        return False
    return span_of_transition(policy, transition).apply(state.pool) is not None


def _mana_step(net: Net, policy: ManaPolicy, state: ManaState,
               transition: str) -> ManaState | None:
    """Try one firing under the policy: the next state, or None when blocked.

    The checks run in the order of :func:`mana_enabled`, so a transition
    the marking does not enable never consults the policy.
    """
    if not enabled(net, state.marking, transition):
        return None
    pool = span_of_transition(policy, transition).apply(state.pool)
    if pool is None:
        return None
    return ManaState(fire(net, state.marking, transition), pool)


def mana_fire(net: Net, policy: ManaPolicy, state: ManaState, transition: str) -> ManaState:
    """Fire under the policy, updating marking and pool atomically."""
    nxt = _mana_step(net, policy, state, transition)
    if nxt is None:
        compound_ok = enabled(net, state.marking, transition)
        mana_ok = span_of_transition(policy, transition).apply(state.pool) is not None
        raise NotManaEnabledError(transition, compound_ok, mana_ok)
    return nxt


class ManaGame(TokenGame):
    """The mana token game, compiled into count vectors.

    A state vector is the marking, over the symbols of the plain game,
    followed by the pool, over the transitions and any other symbol the
    policy's produce maps or the initial pool mention. A firing of ``t``
    needs its pre-set and ``consume(t)`` units of ``t``'s pool, and adds
    its post-set and ``produce(t)``. Entries the policy lacks, or holds in
    another form, make the step exact: it tries the firing on ``Multiset``
    values, with the checks of :func:`mana_enabled`, on every visit.
    """

    def __init__(self, net: Net, policy: ManaPolicy, initial: ManaState):
        self.net = net
        self.policy = policy
        pool = set(net.transitions) | set(initial.pool.support())
        for t in net.transitions:
            if isinstance(policy.produce.get(t), Multiset):
                pool.update(policy.produce[t].support())
        self._compile(initial.marking.support(), sorted(pool))

    def _pool_arcs(self, label: str) -> tuple[Multiset, Multiset] | None:
        consume, produce = self.policy.consume.get(label), self.policy.produce.get(label)
        if type(consume) is int and consume >= 0 and isinstance(produce, Multiset):
            return Multiset({label: consume}), produce
        return None

    def vector(self, state: ManaState) -> tuple:
        return self._vector(state.marking, state.pool)

    def state(self, vector) -> ManaState:
        return ManaState(self._multiset(vector, 0, self.split),
                         self._multiset(vector, self.split, len(self.symbols)))

    def key(self, vector) -> tuple:
        return (_segment_key(vector[:self.split]), _segment_key(vector[self.split:]))

    def successor(self, state: ManaState, label: str) -> ManaState | None:
        return _mana_step(self.net, self.policy, state, label)


def mana_reach(net: Net, policy: ManaPolicy, initial: ManaState,
               depth_bound: int, token_bound: int) -> ReachGraph:
    """Bounded reachability of the mana token game from `initial`."""
    return ManaGame(net, policy, initial).reach(initial, depth_bound, token_bound)


def mana_simulate(net: Net, policy: ManaPolicy, initial: ManaState, max_steps: int,
                  rng: random.Random | None = None) -> tuple[tuple[str, ...], ManaState]:
    """Fire up to `max_steps` mana-enabled transitions; lex order unless seeded."""
    labels = sorted(net.transitions)
    state = initial
    steps: list[str] = []
    for _ in range(max_steps):
        moves = [(t, nxt) for t in labels
                 if (nxt := _mana_step(net, policy, state, t)) is not None]
        if not moves:
            break
        choice, state = rng.choice(moves) if rng is not None else moves[0]
        steps.append(choice)
    return tuple(steps), state


# -- law checks -------------------------------------------------------------


def check_functor_laws(net: Net, policy: ManaPolicy,
                       sample_traces: list[Trace]) -> LawReport:
    """Identity and composition of the span assignment on sampled traces.

    The empty trace must map to the identity span, and splitting any
    sampled trace at any point must compose back to the whole trace's
    span.
    """
    identity_witness = None
    for trace in sample_traces:
        span = span_of_trace(policy, Trace(net, trace.initial, ()))
        if span != AffineSpan.identity():
            identity_witness = {"initial": trace.initial.as_dict(),
                                "span": _span_dict(span)}
            break

    composition_witness = None
    for index, trace in enumerate(sample_traces):
        whole = span_of_trace(policy, trace)
        markings = replay(trace)
        for cut in range(len(trace.steps) + 1):
            head = Trace(net, trace.initial, trace.steps[:cut])
            tail = Trace(net, markings[cut], trace.steps[cut:])
            glued = compose_spans(span_of_trace(policy, head),
                                  span_of_trace(policy, tail))
            if glued != whole:
                composition_witness = {"sample": index, "cut": cut,
                                       "whole": _span_dict(whole),
                                       "glued": _span_dict(glued)}
                break
        if composition_witness:
            break

    return LawReport((
        law_result("identity", identity_witness is None, identity_witness),
        law_result("composition", composition_witness is None, composition_witness),
    ))


def check_laxator_naturality(net: Net, policy: ManaPolicy,
                             samples: list[tuple[Trace, Trace, Multiset, Multiset]]) -> LawReport:
    """Naturality of pool merging, checked per sample.

    For traces f, g run side by side: acting on two pools separately and
    then merging must agree with merging first and acting by the span of
    the combined trace. The span-level identity is checked always; the
    pool-level one whenever both separate actions are defined.
    """
    results = []
    for index, (t1, t2, pool1, pool2) in enumerate(samples):
        span1 = span_of_trace(policy, t1)
        span2 = span_of_trace(policy, t2)
        combined = Trace(net, t1.initial + t2.initial, t1.steps + t2.steps)
        span12 = span_of_trace(policy, combined)
        witness = None
        if span12 != compose_spans(span1, span2):
            witness = {"sample": index,
                       "combined": _span_dict(span12),
                       "composed": _span_dict(compose_spans(span1, span2))}
        else:
            left1 = span1.apply(pool1)
            left2 = span2.apply(pool2)
            if left1 is not None and left2 is not None:
                merged_then_acted = span12.apply(laxator(pool1, pool2))
                if merged_then_acted != laxator(left1, left2):
                    witness = {"sample": index,
                               "acted-then-merged": laxator(left1, left2).as_dict(),
                               "merged-then-acted":
                                   None if merged_then_acted is None
                                   else merged_then_acted.as_dict()}
        results.append(law_result("laxator-naturality", witness is None, witness))
    if not samples:
        results.append(LawResult("laxator-naturality", "pass"))
    return LawReport(tuple(results))


def _span_dict(span: AffineSpan) -> dict:
    return {"consume": span.consume.as_dict(), "produce": span.produce.as_dict()}
