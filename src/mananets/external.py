"""The external mana semantics: states with pools and affine spans.

Instead of baking mana places into the net, a state is a pair
:class:`ManaState` of a marking and a pool of mana counts per
transition, and each execution acts on pools through an
:class:`AffineSpan`: subtract the consumed multiset, add the produced
one. Span composition is componentwise addition, so the span of a trace
depends only on its occurrence multiset, how often each transition
fires; :func:`span_of_trace` computes it as one fold over the firing
spans of its steps. The laxator that merges the pools of two states
considered together is just the multiset sum; :func:`check_functor_laws`
and :func:`check_laxator_naturality` verify these facts on sampled
traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import CountOverflowError, NotManaEnabledError, UnknownSymbolError
from .execution import ReachGraph, TokenGame, Trace, enabled, fire, run_trace
from .internal import ManaPolicy
from .multiset import COUNT_MAX, EMPTY, Multiset, _of_counts
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

    Spans compose by addition, so ``k`` firings of ``t`` consume
    ``k * consume(t)`` units of ``t``'s mana and produce
    ``k * produce(t)``. The fold goes step by step, so a policy entry
    that is missing or malformed, or a count past ``COUNT_MAX``, raises
    what the first offending step raises.
    """
    return _span_of_steps(policy, trace.steps)


def _span_of_steps(policy: ManaPolicy, steps) -> AffineSpan:
    # compose_spans over one span_of_transition per step, on two count
    # dicts: each step adds its consume count, then its produce entries,
    # in the order the Multiset sums meet them. An entry that is not a
    # natural int with a Multiset produce goes through span_of_transition,
    # which raises what the fold raises or accepts an int subclass.
    consume_of, produce_of = policy.consume, policy.produce
    consume: dict[str, int] = {}
    produce: dict[str, int] = {}
    for transition in steps:
        c = consume_of.get(transition)
        p = produce_of.get(transition)
        if type(c) is not int or c < 0 or type(p) is not Multiset:
            span = span_of_transition(policy, transition)
            c, p = span.consume[transition], span.produce
        if c:
            total = consume.get(transition, 0) + c
            if total > COUNT_MAX:
                raise CountOverflowError(transition, total)
            consume[transition] = total
        for symbol, n in p._entries.items():
            total = produce.get(symbol, 0) + n
            if total > COUNT_MAX:
                raise CountOverflowError(symbol, total)
            produce[symbol] = total
    return AffineSpan(_of_counts(consume), _of_counts(produce))


def laxator(pool1: Multiset, pool2: Multiset) -> Multiset:
    """Merge the pool knowledge of two states considered together."""
    return pool1 + pool2


def mana_enabled(net: Net, policy: ManaPolicy, state: ManaState, transition: str) -> bool:
    """Enabled on the token side and coverable on the pool side (no produce is added)."""
    return (enabled(net, state.marking, transition)
            and span_of_transition(policy, transition).consume <= state.pool)


def mana_fire(net: Net, policy: ManaPolicy, state: ManaState, transition: str) -> ManaState:
    """Fire under the policy, updating marking and pool atomically."""
    compound_ok = enabled(net, state.marking, transition)
    pool = span_of_transition(policy, transition).apply(state.pool)
    if not compound_ok or pool is None:
        raise NotManaEnabledError(transition, compound_ok, pool is not None)
    return ManaState(fire(net, state.marking, transition), pool)


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


def mana_reach(net: Net, policy: ManaPolicy, initial: ManaState,
               depth_bound: int, token_bound: int) -> ReachGraph:
    """Bounded reachability of the mana token game from `initial`."""
    return ManaGame(net, policy, initial).reach(initial, depth_bound, token_bound)


def mana_simulate(net: Net, policy: ManaPolicy, initial: ManaState, max_steps: int,
                  rng: random.Random | None = None) -> tuple[tuple[str, ...], ManaState]:
    """Fire up to `max_steps` mana-enabled transitions; lex order unless seeded."""
    game = ManaGame(net, policy, initial)
    counts = list(game.vector(initial))
    return tuple(game.walk(counts, max_steps, rng)), game.state(counts)


# -- law checks -------------------------------------------------------------


def check_functor_laws(net: Net, policy: ManaPolicy,
                       sample_traces: list[Trace]) -> LawReport:
    """Identity and composition of the span assignment on sampled traces.

    The empty trace must map to the identity span, and splitting any
    sampled trace at any point must compose back to the whole trace's
    span. The span of the empty trace does not depend on its marking, so
    the identity law is checked once, on the first sample's initial
    marking, and passes when there are no samples. Each distinct step
    tuple (the empty one, a whole trace, a head ``steps[:cut]`` or a tail
    ``steps[cut:]``) is folded once per call, as :func:`span_of_trace`
    folds it. A span depends only on the policy and the ordered steps, so
    a sample whose steps an earlier sample already glued back at every
    cut is not cut again; every sample is still walked from its own
    initial marking, in sample order.
    """
    spans: dict[tuple, AffineSpan] = {}  # this call's folds, by ordered steps
    identity_witness = None
    if sample_traces:
        span = _folded(spans, policy, ())
        if span != AffineSpan.identity():
            identity_witness = {"initial": sample_traces[0].initial.as_dict(),
                                "span": _span_dict(span)}

    glued_back: set[tuple] = set()
    composition_witness = None
    for index, trace in enumerate(sample_traces):
        steps = trace.steps
        whole = _folded(spans, policy, steps)
        run_trace(trace)  # an invalid trace still raises NotEnabledError
        if steps in glued_back:
            continue
        for cut in range(len(steps) + 1):
            glued = compose_spans(_folded(spans, policy, steps[:cut]),
                                  _folded(spans, policy, steps[cut:]))
            if glued != whole:
                composition_witness = {"sample": index, "cut": cut,
                                       "whole": _span_dict(whole),
                                       "glued": _span_dict(glued)}
                break
        if composition_witness:
            break
        glued_back.add(steps)

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
    pool-level one whenever both separate actions are defined. Each
    distinct step tuple is folded once per call.
    """
    spans: dict[tuple, AffineSpan] = {}  # this call's folds, by ordered steps
    results = []
    for index, (t1, t2, pool1, pool2) in enumerate(samples):
        span1 = _folded(spans, policy, t1.steps)
        span2 = _folded(spans, policy, t2.steps)
        span12 = _folded(spans, policy, t1.steps + t2.steps)
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


def _folded(spans: dict, policy: ManaPolicy, steps: tuple) -> AffineSpan:
    # The span of `steps` from a law check's own memo, keyed by the ordered
    # steps: a fold that came to depend on step order would stay right.
    span = spans.get(steps)
    if span is None:
        span = spans[steps] = _span_of_steps(policy, steps)
    return span


def _span_dict(span: AffineSpan) -> dict:
    return {"consume": span.consume.as_dict(), "produce": span.produce.as_dict()}
