"""The external mana semantics: states with pools and affine spans.

Instead of baking mana places into the net, a state is a pair
:class:`ManaState` of a marking and a pool of mana counts per
transition, and each execution acts on pools through an
:class:`AffineSpan`: subtract the consumed multiset, add the produced
one. Span composition is componentwise addition, so the span of a trace
depends only on its occurrence multiset, how often each transition
fires, and :func:`span_of_trace` computes it from those counts. The
laxator that merges the pools of two states considered together is just
the multiset sum; :func:`check_functor_laws` and
:func:`check_laxator_naturality` verify these facts on sampled traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import NotManaEnabledError, UnknownSymbolError
from .execution import (ReachGraph, TokenGame, Trace, _segment_key, enabled, fire,
                        occurrence_counts, replay)
from .internal import ManaPolicy
from .multiset import COUNT_MAX, EMPTY, Multiset, _wrap
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
    """One firing's pool action: its own mana in, its products out.

    A missing entry raises :class:`UnknownSymbolError`, a consume count
    that is not a natural ``int`` raises what ``Multiset`` raises, and a
    produce that is not a ``Multiset`` raises ``TypeError``.
    """
    if transition not in policy.consume:
        raise UnknownSymbolError(transition, "mana policy")
    consume = Multiset({transition: policy.consume[transition]})
    if transition not in policy.produce:
        raise UnknownSymbolError(transition, "mana policy")
    produce = policy.produce[transition]
    if not isinstance(produce, Multiset):
        raise TypeError(f"produce of {transition!r} must be a Multiset, got {produce!r}")
    return AffineSpan(consume, produce)


def compose_spans(first: AffineSpan, second: AffineSpan) -> AffineSpan:
    """Sequential composition, which for affine spans is componentwise sum."""
    return AffineSpan(first.consume + second.consume,
                      first.produce + second.produce)


def span_of_trace(policy: ManaPolicy, trace: Trace) -> AffineSpan:
    """The composite of the firing spans of a whole trace.

    Spans compose by addition, so the result depends only on how often
    each transition fires: ``k`` firings of ``t`` consume ``k * consume(t)``
    units of ``t``'s mana and produce ``k * produce(t)``. A policy entry
    that is missing or malformed, or a count past ``COUNT_MAX``, is
    reported by composing step by step, so the error is the one the
    first offending step raises.
    """
    return _span(policy, occurrence_counts(trace.steps), trace.steps)


def _span(policy: ManaPolicy, occurrences: dict[str, int], steps) -> AffineSpan:
    # The span of `steps`, whose occurrence counts are `occurrences`.
    span = _span_of_counts(policy, occurrences)
    return _span_by_steps(policy, steps) if span is None else span


def _span_of_counts(policy: ManaPolicy, occurrences: dict[str, int]) -> AffineSpan | None:
    """The span of any trace with these occurrence counts.

    None when a policy entry is missing or malformed (consume not a plain
    non-negative int, produce not a ``Multiset``) or a total passes
    ``COUNT_MAX``; the caller then composes step by step. The counts are
    only read.
    """
    consume_of, produce_of = policy.consume, policy.produce
    consume: dict[str, int] = {}
    produce: dict[str, int] = {}
    for transition, k in occurrences.items():
        c = consume_of.get(transition)
        p = produce_of.get(transition)
        if type(c) is not int or c < 0 or type(p) is not Multiset:
            return None
        if c:
            consume[transition] = k * c
        for symbol, n in p._entries.items():
            produce[symbol] = produce.get(symbol, 0) + k * n
    if (max(consume.values(), default=0) > COUNT_MAX
            or max(produce.values(), default=0) > COUNT_MAX):
        return None
    return AffineSpan(_wrap(consume) if consume else EMPTY,
                      _wrap(produce) if produce else EMPTY)


def _span_by_steps(policy: ManaPolicy, steps) -> AffineSpan:
    # Compose one firing span at a time; raises where a step goes wrong.
    span = AffineSpan.identity()
    for transition in steps:
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
    its post-set and ``produce(t)``. The constructor takes every policy
    entry through :func:`span_of_transition`, raising what that raises.
    """

    def __init__(self, net: Net, policy: ManaPolicy, initial: ManaState):
        self.net = net
        self.policy = policy
        self._compile(initial.marking.support(),
                      set(net.transitions) | set(initial.pool.support()))

    def _pool_arcs(self, label: str) -> tuple[Multiset, Multiset]:
        span = span_of_transition(self.policy, label)
        return span.consume, span.produce

    def vector(self, state: ManaState) -> tuple:
        return self._vector(state.marking, state.pool)

    def state(self, vector) -> ManaState:
        return ManaState(self._multiset(vector, 0, self.split),
                         self._multiset(vector, self.split, len(self.symbols)))

    def key(self, vector) -> tuple:
        return (_segment_key(vector[:self.split]), _segment_key(vector[self.split:]))


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
    span. The span of the empty trace does not depend on its marking, so
    the identity law is checked once, on the first sample's initial
    marking, and passes when there are no samples.
    """
    identity_witness = None
    if sample_traces:
        initial = sample_traces[0].initial
        span = span_of_trace(policy, Trace(net, initial, ()))
        if span != AffineSpan.identity():
            identity_witness = {"initial": initial.as_dict(), "span": _span_dict(span)}

    composition_witness = None
    for index, trace in enumerate(sample_traces):
        steps = trace.steps
        whole = span_of_trace(policy, trace)
        replay(trace)  # an invalid trace still raises NotEnabledError
        # Occurrence counts of the head steps[:cut] and the tail
        # steps[cut:], moved along one step per cut.
        head: dict[str, int] = {}
        tail = occurrence_counts(steps)
        for cut in range(len(steps) + 1):
            if cut:
                moved = steps[cut - 1]
                head[moved] = head.get(moved, 0) + 1
                if tail[moved] == 1:
                    del tail[moved]
                else:
                    tail[moved] -= 1
            glued = compose_spans(_span(policy, head, steps[:cut]),
                                  _span(policy, tail, steps[cut:]))
            if glued != whole:
                composition_witness = {"sample": index, "cut": cut,
                                       "whole": _span_dict(whole),
                                       "glued": _span_dict(glued)}
                break
        if composition_witness:
            break

    return LawReport((
        law_result("identity", identity_witness),
        law_result("composition", composition_witness),
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
        results.append(law_result("laxator-naturality", witness))
    if not samples:
        results.append(LawResult("laxator-naturality", "pass"))
    return LawReport(tuple(results))


def _span_dict(span: AffineSpan) -> dict:
    return {"consume": span.consume.as_dict(), "produce": span.produce.as_dict()}
