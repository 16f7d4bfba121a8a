"""Functors between execution categories, presented on net generators.

Execution categories are free, so a strict monoidal functor is pinned
down by a multiset of target places for each source place and a target
trace for each source transition. Composition and equality therefore
reduce to computations on these generator images; trace images are
compared with :func:`~mananets.execution.trace_equivalent`, whose
inconclusive answer propagates.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .execution import Trace, run_trace, trace_equivalent
from .multiset import Multiset
from .net import Net, NetMorphism, Violation, lift_multiset_map, validate_net


@dataclass(frozen=True)
class PresentedFunctor:
    """A functor between execution categories, given on generators."""

    source: Net
    target: Net
    object_map: Mapping[str, Multiset]
    morphism_map: Mapping[str, Trace]

    def __post_init__(self):
        object.__setattr__(self, "object_map", dict(self.object_map))
        object.__setattr__(self, "morphism_map", dict(self.morphism_map))


def identity_functor(net: Net) -> PresentedFunctor:
    return PresentedFunctor(
        net, net,
        {p: Multiset({p: 1}) for p in net.places},
        {t: Trace(net, net.pre[t], (t,)) for t in net.transitions},
    )


def functor_of_net_morphism(morphism: NetMorphism) -> PresentedFunctor:
    """The functor induced by a net morphism: relabel places, fire images."""
    tgt = morphism.target
    return PresentedFunctor(
        morphism.source, tgt,
        {p: Multiset({morphism.place_map[p]: 1}) for p in morphism.source.places},
        {t: Trace(tgt, tgt.pre[morphism.transition_map[t]], (morphism.transition_map[t],))
         for t in morphism.source.transitions},
    )


def apply_functor_to_marking(functor: PresentedFunctor, marking: Multiset) -> Multiset:
    """Image of a marking under the functor's object map."""
    return lift_multiset_map(functor.object_map, marking)


def apply_functor(functor: PresentedFunctor, trace: Trace) -> Trace:
    """Image of a trace: lift the initial marking, replace each firing.

    Every occurrence of a transition is replaced by (a copy of) its image
    firing sequence; extra ambient tokens never disable a firing, so the
    result replays whenever the input does.
    """
    initial = apply_functor_to_marking(functor, trace.initial)
    steps: list[str] = []
    for transition in trace.steps:
        if transition not in functor.morphism_map:
            raise KeyError(f"functor has no image for transition {transition!r}")
        steps.extend(functor.morphism_map[transition].steps)
    return Trace(functor.target, initial, tuple(steps))


def compose_functors(outer: PresentedFunctor, inner: PresentedFunctor) -> PresentedFunctor:
    """Composite presentation (inner first, then outer)."""
    if inner.target != outer.source:
        raise ValueError("functors are not composable: target/source nets differ")
    return PresentedFunctor(
        inner.source, outer.target,
        {p: apply_functor_to_marking(outer, image) for p, image in inner.object_map.items()},
        {t: apply_functor(outer, image) for t, image in inner.morphism_map.items()},
    )


def validate_functor(functor: PresentedFunctor) -> list[Violation]:
    """Check the presentation invariants.

    Every source place needs an image over the target places, and every
    source transition needs a target trace running from the image of its
    pre multiset to the image of its post multiset.
    """
    out: list[Violation] = []
    out.extend(Violation(v.kind, v.subject, f"source net: {v.detail}".rstrip(": "))
               for v in validate_net(functor.source))
    out.extend(Violation(v.kind, v.subject, f"target net: {v.detail}".rstrip(": "))
               for v in validate_net(functor.target))
    if out:
        return out

    target_places = set(functor.target.places)
    for p in functor.source.places:
        if p not in functor.object_map:
            out.append(Violation("unmapped-place", p))
            continue
        for symbol in functor.object_map[p].support():
            if symbol not in target_places:
                out.append(Violation("unknown-target-place", symbol, f"image of {p}"))
    for t in functor.source.transitions:
        if t not in functor.morphism_map:
            out.append(Violation("unmapped-transition", t))
            continue
        image = functor.morphism_map[t]
        if image.net != functor.target:
            out.append(Violation("wrong-net", t, "image trace lives on a different net"))
            continue
        if image.initial != apply_functor_to_marking(functor, functor.source.pre[t]):
            out.append(Violation("endpoint-mismatch", t, "source marking"))
        elif run_trace(image) != apply_functor_to_marking(functor, functor.source.post[t]):
            out.append(Violation("endpoint-mismatch", t, "target marking"))
    return out


def compare_functors(left: PresentedFunctor, right: PresentedFunctor,
                     bound: int = 8) -> tuple[bool | None, dict | None]:
    """Generator-wise equality with a witness for the first mismatch.

    Returns ``(verdict, witness)`` where the verdict is True, False or
    None (inconclusive trace comparison) and the witness names the
    offending generator.
    """
    if left.source != right.source or left.target != right.target:
        return False, {"kind": "boundary", "detail": "source or target nets differ"}
    for p in left.source.places:
        if left.object_map[p] != right.object_map[p]:
            return False, {"kind": "object", "generator": p,
                           "left": left.object_map[p].as_dict(),
                           "right": right.object_map[p].as_dict()}
    verdict: bool | None = True
    for t in left.source.transitions:
        a, b = left.morphism_map[t], right.morphism_map[t]
        same = trace_equivalent(a, b, bound)
        if same is False:
            return False, {"kind": "morphism", "generator": t,
                           "left": {"initial": a.initial.as_dict(), "steps": list(a.steps)},
                           "right": {"initial": b.initial.as_dict(), "steps": list(b.steps)}}
        if same is None:
            verdict = None
    if verdict is None:
        return None, {"kind": "morphism", "detail": "trace comparison inconclusive"}
    return True, None


def functors_equal(left: PresentedFunctor, right: PresentedFunctor,
                   bound: int = 8) -> bool | None:
    """Generator-wise equality of presentations (None when inconclusive)."""
    verdict, _ = compare_functors(left, right, bound)
    return verdict
