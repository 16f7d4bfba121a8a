"""Petri nets as multiset-valued pre/post maps on transitions.

A net is a pair of functions from transitions to multisets of places.
Nothing here is validated on construction; :func:`validate_net` and
:func:`validate_morphism` return violations as data so that callers (and
the CLI) can report them instead of crashing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import NoReturn

from .errors import CountOverflowError, UnknownSymbolError
from .multiset import COUNT_MAX, Multiset, _of_counts


@dataclass(frozen=True)
class Net:
    """A Petri net: ordered places and transitions with pre/post multisets."""

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: Mapping[str, Multiset]
    post: Mapping[str, Multiset]

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(self, "pre", dict(self.pre))
        object.__setattr__(self, "post", dict(self.post))

    @classmethod
    def build(cls, places, transitions: Mapping[str, tuple]) -> Net:
        """Convenience constructor.

        `transitions` maps each name to a ``(pre, post)`` pair, given as
        :class:`Multiset` values or plain ``{symbol: count}`` dicts.

        >>> net = Net.build(["A", "B", "C"], {"u": ({"A": 1, "B": 1}, {"C": 1})})
        >>> net.pre["u"]["B"]
        1
        """
        pre = {}
        post = {}
        for name, (before, after) in transitions.items():
            pre[name] = before if isinstance(before, Multiset) else Multiset(before)
            post[name] = after if isinstance(after, Multiset) else Multiset(after)
        return cls(tuple(places), tuple(transitions), pre, post)

    def arcs(self, transition: str) -> tuple[Multiset, Multiset]:
        """The (pre, post) pair of a transition."""
        if transition not in self.pre or transition not in self.post:
            raise UnknownSymbolError(transition, "transitions")
        return self.pre[transition], self.post[transition]


def _filled(cls, **fields):
    # A frozen dataclass holding `fields` as given, without __post_init__:
    # for callers whose fields are already fresh dicts and tuples.
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


@dataclass(frozen=True)
class Violation:
    """One structural problem found by a validator."""

    kind: str
    subject: str
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "subject": self.subject, "detail": self.detail}


def validate_net(net: Net) -> list[Violation]:
    """Check the net invariants; an empty list means the net is well formed.

    Reported kinds: duplicate-place, duplicate-transition, name-clash
    (place and transition share a name), missing-pre/missing-post (pre or
    post not total), unknown-transition (pre/post keyed by an undeclared
    transition), unknown-place (an arc mentions an undeclared place).
    """
    out: list[Violation] = []
    places = set(net.places)
    transitions = set(net.transitions)
    pre, post = net.pre, net.post
    # Each walk below runs only once a set operation has found its fault,
    # so a well-formed net sorts nothing.
    if len(places) < len(net.places):
        seen: set[str] = set()
        for p in net.places:
            if p in seen:
                out.append(Violation("duplicate-place", p))
            seen.add(p)
    if len(transitions) < len(net.transitions):
        seen = set()
        for t in net.transitions:
            if t in seen:
                out.append(Violation("duplicate-transition", t))
            seen.add(t)

    for name in sorted(places & transitions):
        out.append(Violation("name-clash", name))

    if pre.keys() != transitions or post.keys() != transitions:
        for t in net.transitions:
            if t not in pre:
                out.append(Violation("missing-pre", t))
            if t not in post:
                out.append(Violation("missing-post", t))
        for key in sorted(pre.keys() - transitions):
            out.append(Violation("unknown-transition", key, "pre"))
        for key in sorted(post.keys() - transitions):
            out.append(Violation("unknown-transition", key, "post"))

    for side, arcs in (("pre", pre), ("post", post)):
        if all(isinstance(arc, Multiset) and arc._entries.keys() <= places
               for arc in arcs.values()):
            continue
        # Raises AttributeError on an arc that is not a Multiset.
        for t in sorted(arcs):
            for symbol in arcs[t].support():
                if symbol not in places:
                    out.append(Violation("unknown-place", symbol, f"{side} of {t}"))
    return out


def _nested_violations(side: str, net: Net) -> list[Violation]:
    """The violations of a net inside a larger structure, detailed as ``"<side> net: ..."``."""
    return [Violation(v.kind, v.subject, f"{side} net: {v.detail}" if v.detail else f"{side} net")
            for v in validate_net(net)]


def lift_multiset_map(mapping: Mapping[str, str | Multiset], m: Multiset) -> Multiset:
    """Apply a symbol map to a multiset, summing over preimages.

    Each symbol may map to another symbol or to a whole multiset; a count
    of ``k`` contributes ``k`` copies of the image. This is the unique
    monoid homomorphism extending `mapping`.

    >>> lift_multiset_map({"A": "P", "B": "P"}, Multiset({"A": 1, "B": 1}))
    Multiset({'P': 2})
    """
    return _of_counts(lift_counts(mapping, m._entries))


def lift_counts(mapping: Mapping[str, str | Multiset | dict], entries: dict) -> dict:
    """:func:`lift_multiset_map` on a plain count dict, returning one.

    Images may also be count dicts. The input is walked in its own order;
    on an unknown symbol or an overflow the sum is taken again in symbol
    order, so the error raised is the first one in that order.
    """
    counts: dict[str, int] = {}
    for symbol, count in entries.items():
        if symbol not in mapping:
            return _lift_in_order(mapping, entries)
        image = mapping[symbol]
        if isinstance(image, str):
            total = counts.get(image, 0) + count
            if total > COUNT_MAX:
                return _lift_in_order(mapping, entries)
            counts[image] = total
            continue
        for target, k in (image if type(image) is dict else image._entries).items():
            total = counts.get(target, 0) + count * k
            if total > COUNT_MAX:
                return _lift_in_order(mapping, entries)
            counts[target] = total
    return counts


def _lift_in_order(mapping: Mapping[str, str | Multiset | dict], entries: dict) -> NoReturn:
    # The same sum taken in symbol order, raising the first error in that
    # order: an unknown symbol or an overflowing scaled image anywhere is
    # reported before a sum overflow. Only called once the fast lift has
    # met such an error in the same entries, so it always raises.
    counts: dict[str, int] = {}
    overflow = None
    for symbol, count in sorted(entries.items()):
        if symbol not in mapping:
            raise UnknownSymbolError(symbol, "symbol map")
        image = mapping[symbol]
        pairs = ((image, 1),) if isinstance(image, str) else (
            image if type(image) is dict else image._entries).items()
        for target, k in pairs:
            scaled = count * k
            if scaled > COUNT_MAX:
                raise CountOverflowError(target, scaled)
            total = counts.get(target, 0) + scaled
            if total > COUNT_MAX and overflow is None:
                overflow = CountOverflowError(target, total)
            counts[target] = total
    raise overflow


@dataclass(frozen=True)
class NetMorphism:
    """A net morphism: compatible maps of transitions and places.

    Compatibility means the lifted place map carries each source arc to
    the corresponding target arc (checked by :func:`validate_morphism`).
    """

    source: Net
    target: Net
    transition_map: Mapping[str, str]
    place_map: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "transition_map", dict(self.transition_map))
        object.__setattr__(self, "place_map", dict(self.place_map))

    @classmethod
    def identity(cls, net: Net) -> NetMorphism:
        return cls(net, net, {t: t for t in net.transitions}, {p: p for p in net.places})


def validate_morphism(morphism: NetMorphism) -> list[Violation]:
    """Check totality, codomain membership and the two commuting squares.

    Square failures are reported as ``square-fails`` with detail "pre" or
    "post" naming which side disagrees.
    """
    src, tgt = morphism.source, morphism.target
    out = _nested_violations("source", src) + _nested_violations("target", tgt)
    if out:
        return out

    fmap, gmap = morphism.transition_map, morphism.place_map
    for p in src.places:
        if p not in gmap:
            out.append(Violation("unmapped-place", p))
        elif gmap[p] not in set(tgt.places):
            out.append(Violation("unknown-target-place", gmap[p], f"image of {p}"))
    for t in src.transitions:
        if t not in fmap:
            out.append(Violation("unmapped-transition", t))
        elif fmap[t] not in set(tgt.transitions):
            out.append(Violation("unknown-target-transition", fmap[t], f"image of {t}"))
    if out:
        return out

    for t in src.transitions:
        image = fmap[t]
        if lift_multiset_map(gmap, src.pre[t]) != tgt.pre[image]:
            out.append(Violation("square-fails", t, "pre"))
        if lift_multiset_map(gmap, src.post[t]) != tgt.post[image]:
            out.append(Violation("square-fails", t, "post"))
    return out


def compose_morphisms(outer: NetMorphism, inner: NetMorphism) -> NetMorphism:
    """Componentwise composition (inner first, then outer)."""
    if inner.target != outer.source:
        raise ValueError("morphisms are not composable: target/source nets differ")
    return NetMorphism(
        inner.source,
        outer.target,
        {t: outer.transition_map[u] for t, u in inner.transition_map.items()},
        {p: outer.place_map[q] for p, q in inner.place_map.items()},
    )
