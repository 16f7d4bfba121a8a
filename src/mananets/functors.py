"""Functors between execution categories, presented on net generators.

Execution categories are free, so a strict monoidal functor is pinned
down by a multiset of target places for each source place and a target
trace for each source transition. Composition and equality therefore
reduce to computations on these generator images; trace images are
compared with :func:`~mananets.execution.trace_equivalent`, so a
comparison is True or False, or raises what that raises.

The algebra runs on one internal generator form, a :class:`GeneratorForm`:
an object map ``place -> {target symbol: count}`` (a matrix over the
naturals) and a morphism map ``transition -> (start counts, steps)``.
Composition lifts counts through the outer object map and concatenates
the outer step tuples (Meseguer and Montanari, *Petri nets are monoids*,
1990); comparison checks the object maps for equality and hands each
pair of transition images to ``trace_equivalent`` as traces built for
that call only. :class:`PresentedFunctor` is the boundary type: the
public functions convert to the form on the way in (:func:`_to_form`)
and back on the way out (:func:`_present`), and
:func:`~mananets.internal.check_comonad_laws` stays on the form
throughout. The form reads every image trace on the functor's target
net, so :func:`_to_form` raises ``ValueError`` on an image trace that
lives on another net, a malformed presentation that
:func:`validate_functor` reports as ``wrong-net``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .execution import Trace, run_trace, trace_equivalent
from .multiset import EMPTY, Multiset, _wrap
from .net import Net, NetMorphism, Violation, lift_counts, lift_multiset_map, validate_net


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


class GeneratorForm:
    """A presented functor as plain data, the form the functor algebra runs on.

    `objects` maps each source place to a ``{target place: count}`` dict
    and `morphisms` each source transition to ``(start counts, steps)``,
    the image trace's initial marking and firing sequence on `target`.
    Count dicts hold no zeros and are never mutated, so they may be
    shared with the ``Multiset`` values they came from.
    """

    __slots__ = ("source", "target", "objects", "morphisms")

    def __init__(self, source: Net, target: Net, objects: dict, morphisms: dict):
        self.source = source
        self.target = target
        self.objects = objects
        self.morphisms = morphisms


def _multiset(counts: dict) -> Multiset:
    return _wrap(counts) if counts else EMPTY


def _to_form(functor: PresentedFunctor) -> GeneratorForm:
    """The generator form of a presented functor (shares its count dicts).

    Raises ``ValueError`` when an image trace lives on a net other than
    the functor's target, which the form cannot represent.
    """
    target = functor.target
    morphisms = {}
    for t, image in functor.morphism_map.items():
        if image.net is not target and image.net != target:
            raise ValueError(f"image trace of {t!r} lives on a different net than the target")
        morphisms[t] = (image.initial._entries, image.steps)
    return GeneratorForm(
        functor.source, target,
        {p: image._entries for p, image in functor.object_map.items()},
        morphisms,
    )


def _present(form: GeneratorForm) -> PresentedFunctor:
    """The presented functor of a generator form, its images on the target."""
    target = form.target
    return PresentedFunctor(
        form.source, target,
        {p: _multiset(image) for p, image in form.objects.items()},
        {t: Trace(target, _multiset(start), steps)
         for t, (start, steps) in form.morphisms.items()},
    )


def _identity_form(net: Net) -> GeneratorForm:
    return GeneratorForm(net, net, {p: {p: 1} for p in net.places},
                         {t: (net.pre[t]._entries, (t,)) for t in net.transitions})


def identity_functor(net: Net) -> PresentedFunctor:
    return _present(_identity_form(net))


def _morphism_form(morphism: NetMorphism) -> GeneratorForm:
    tgt = morphism.target
    place_map, transition_map = morphism.place_map, morphism.transition_map
    return GeneratorForm(
        morphism.source, tgt,
        {p: {place_map[p]: 1} for p in morphism.source.places},
        {t: (tgt.pre[transition_map[t]]._entries, (transition_map[t],))
         for t in morphism.source.transitions},
    )


def functor_of_net_morphism(morphism: NetMorphism) -> PresentedFunctor:
    """The functor induced by a net morphism: relabel places, fire images."""
    return _present(_morphism_form(morphism))


def apply_functor_to_marking(functor: PresentedFunctor, marking: Multiset) -> Multiset:
    """Image of a marking under the functor's object map."""
    return lift_multiset_map(functor.object_map, marking)


def _apply(objects: Mapping, images: Mapping, start: dict,
           steps: tuple) -> tuple[dict, tuple]:
    """Image of a trace given as start counts and steps.

    `objects` and `images` are a form's object and morphism maps (object
    images may also be multisets). Every occurrence of a transition is
    replaced by (a copy of) its image firing sequence; extra ambient
    tokens never disable a firing, so the result replays whenever the
    input does.
    """
    start = lift_counts(objects, start)
    out: list[str] = []
    for transition in steps:
        if transition not in images:
            raise KeyError(f"functor has no image for transition {transition!r}")
        out.extend(images[transition][1])
    return start, tuple(out)


def apply_functor(functor: PresentedFunctor, trace: Trace) -> Trace:
    """Image of a trace: lift the initial marking, replace each firing."""
    images = functor.morphism_map
    used = {t: (images[t].initial._entries, images[t].steps)
            for t in set(trace.steps) if t in images}
    start, steps = _apply(functor.object_map, used, trace.initial._entries, trace.steps)
    return Trace(functor.target, _multiset(start), steps)


def _compose_forms(outer: GeneratorForm, inner: GeneratorForm) -> GeneratorForm:
    if inner.target != outer.source:
        raise ValueError("functors are not composable: target/source nets differ")
    objects, images = outer.objects, outer.morphisms
    return GeneratorForm(
        inner.source, outer.target,
        {p: lift_counts(objects, image) for p, image in inner.objects.items()},
        {t: _apply(objects, images, start, steps)
         for t, (start, steps) in inner.morphisms.items()},
    )


def compose_functors(outer: PresentedFunctor, inner: PresentedFunctor) -> PresentedFunctor:
    """Composite presentation (inner first, then outer).

    Raises ``ValueError`` when the functors do not compose or an image
    trace lives on a net other than its functor's target.
    """
    return _present(_compose_forms(_to_form(outer), _to_form(inner)))


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


def _sorted(counts: dict) -> dict:
    return dict(sorted(counts.items()))


def _compare_forms(left: GeneratorForm, right: GeneratorForm) -> dict | None:
    """The witness of the first mismatch between two forms, or None when equal."""
    if left.source != right.source or left.target != right.target:
        return {"kind": "boundary", "detail": "source or target nets differ"}
    for p in left.source.places:
        a, b = left.objects[p], right.objects[p]
        if a != b:
            return {"kind": "object", "generator": p, "left": _sorted(a), "right": _sorted(b)}
    for t in left.source.transitions:
        (a_start, a_steps), (b_start, b_steps) = left.morphisms[t], right.morphisms[t]
        if not trace_equivalent(Trace(left.target, _multiset(a_start), a_steps),
                                Trace(right.target, _multiset(b_start), b_steps)):
            return {"kind": "morphism", "generator": t,
                    "left": {"initial": _sorted(a_start), "steps": list(a_steps)},
                    "right": {"initial": _sorted(b_start), "steps": list(b_steps)}}
    return None


def compare_functors(left: PresentedFunctor,
                     right: PresentedFunctor) -> tuple[bool, dict | None]:
    """Generator-wise equality with a witness for the first mismatch.

    Returns ``(verdict, witness)``: the verdict is True exactly when the
    witness, which names the offending generator, is None. Raises
    ``ValueError`` when an image trace lives on a net other than its
    functor's target, and what ``trace_equivalent`` raises.
    """
    witness = _compare_forms(_to_form(left), _to_form(right))
    return witness is None, witness


def functors_equal(left: PresentedFunctor, right: PresentedFunctor) -> bool:
    """Generator-wise equality of presentations."""
    verdict, _ = compare_functors(left, right)
    return verdict
