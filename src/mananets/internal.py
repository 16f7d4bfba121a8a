"""The internal mana construction and its comonad structure.

Giving a net "mana" internally means adding one fresh place per
transition and wiring it according to a :class:`ManaPolicy`: a firing of
``u`` consumes ``consume(u)`` tokens from its own mana place and drops
``produce(u)`` tokens onto the mana places it feeds. The plain policy
(consume 1, produce nothing) makes the construction a comonad on
execution categories: the counit erases the mana layer, the
comultiplication duplicates it. :func:`check_comonad_laws` verifies the
comonad equations generator-wise, which is complete because the
categories involved are free.

The comonad structure is built in the generator form of
:mod:`mananets.functors` (count dicts and step tuples):
:func:`_counit_form`, :func:`_comultiplication_form` and
:func:`_lift_form` are the one implementation of each construction, and
:func:`check_comonad_laws` composes and compares their results without
leaving that form. :func:`counit`, :func:`comultiplication` and
:func:`lift_functor` are the boundary: they return
:class:`~mananets.functors.PresentedFunctor` values built from the form.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import NameClashError, PolicyError
from .execution import occurrence_counts
from .functors import (GeneratorForm, PresentedFunctor, _compare_forms, _compose_forms,
                       _identity_form, _morphism_form, _present, _to_form)
from .multiset import EMPTY, Multiset, _wrap
from .net import Net, NetMorphism, lift_counts, validate_net
from .reports import LawReport, LawResult, law_result

#: Prefix used for generated mana place names.
MANA_PREFIX = "mana:"

COMULTIPLICATION_READING = (
    "comultiplication sends the mana place of each transition t to one inner copy "
    "(the existing place mana:t) plus one outer copy (the fresh place outer-mana:t) "
    "in the twice-built net"
)


def mana_place_name(transition: str) -> str:
    """Canonical name of a transition's mana place."""
    return MANA_PREFIX + transition


def is_mana_place_name(name: str) -> bool:
    """True for mana: plus any number of outer- prefixes from iterated builds."""
    while name.startswith("outer-"):
        name = name[len("outer-"):]
    return name.startswith(MANA_PREFIX)


@dataclass(frozen=True)
class ManaPolicy:
    """Per-transition mana consumption count and production multiset."""

    consume: Mapping[str, int]
    produce: Mapping[str, Multiset]

    def __post_init__(self):
        object.__setattr__(self, "consume", dict(self.consume))
        object.__setattr__(self, "produce", dict(self.produce))

    @classmethod
    def plain(cls, net: Net) -> ManaPolicy:
        """One unit of a transition's own mana per firing, nothing produced."""
        return cls({t: 1 for t in net.transitions}, {t: EMPTY for t in net.transitions})

    @classmethod
    def of(cls, net: Net, entries: Mapping[str, tuple]) -> ManaPolicy:
        """Build a policy from ``{transition: (consume, produce)}``.

        Unlisted transitions default to the plain entry (consume 1,
        produce nothing); produce parts may be plain dicts.
        """
        consume = {}
        produce = {}
        for t in net.transitions:
            c, p = entries.get(t, (1, EMPTY))
            consume[t] = c
            produce[t] = p if isinstance(p, Multiset) else Multiset(p)
        return cls(consume, produce)

    def is_plain(self) -> bool:
        return (all(c == 1 for c in self.consume.values())
                and not any(self.produce.values()))


def validate_policy(net: Net, policy: ManaPolicy) -> list[str]:
    """Problems that make the policy unusable with the net, as messages."""
    problems = []
    transitions = set(net.transitions)
    if set(policy.consume) != transitions:
        problems.append("consume map is not total on the net's transitions")
    if set(policy.produce) != transitions:
        problems.append("produce map is not total on the net's transitions")
    for t in sorted(set(policy.consume) & transitions):
        consume = policy.consume[t]
        if not isinstance(consume, int) or isinstance(consume, bool):
            problems.append(f"consume count for {t!r} is not an int: {consume!r}")
        elif consume < 0:
            problems.append(f"consume count for {t!r} is negative")
    for t in sorted(set(policy.produce) & transitions):
        produce = policy.produce[t]
        if not isinstance(produce, Multiset):
            problems.append(f"produce of {t!r} is not a Multiset: {produce!r}")
            continue
        for target in produce.support():
            if target not in transitions:
                problems.append(f"produce of {t!r} targets unknown transition {target!r}")
    return problems


@dataclass(frozen=True)
class ManaNet:
    """A net together with its mana-augmented build.

    `mana_place_of` records which built place carries each transition's
    mana; `built` shares the base net's transitions and extends its
    places with exactly those mana places.
    """

    base: Net
    built: Net
    mana_place_of: Mapping[str, str]
    policy: ManaPolicy

    def __post_init__(self):
        object.__setattr__(self, "mana_place_of", dict(self.mana_place_of))

    def mana_places(self) -> frozenset[str]:
        return frozenset(self.mana_place_of.values())


def _construct(net: Net, policy: ManaPolicy, namer) -> ManaNet:
    problems = validate_net(net)
    if problems:
        raise ValueError(f"net is not well formed: {problems[0].kind} {problems[0].subject}")
    policy_problems = validate_policy(net, policy)
    if policy_problems:
        raise PolicyError(policy_problems[0])

    taken = set(net.places) | set(net.transitions)
    mana_place_of = {}
    for t in net.transitions:
        name = namer(t)
        if name in taken:
            raise NameClashError(name)
        taken.add(name)
        mana_place_of[t] = name

    # Multiset() checks every consume count, in transition order. Mana
    # places are fresh and named apart, so each arc only gains new keys:
    # no sum can pass the bound.
    consumed = Multiset({mana_place_of[t]: policy.consume[t] for t in net.transitions})._entries
    pre = {}
    post = {}
    for t in net.transitions:
        name = mana_place_of[t]
        gained = lift_counts(mana_place_of, policy.produce[t]._entries)
        pre[t] = _wrap({**net.pre[t]._entries, name: consumed[name]}
                       ) if name in consumed else net.pre[t]
        post[t] = _wrap({**net.post[t]._entries, **gained}) if gained else net.post[t]
    built = Net(
        net.places + tuple(mana_place_of[t] for t in net.transitions),
        net.transitions,
        pre,
        post,
    )
    return ManaNet(net, built, mana_place_of, policy)


def generalized_internal_construction(net: Net, policy: ManaPolicy) -> ManaNet:
    """Attach one mana place per transition, wired according to `policy`.

    A consume count of 0 leaves the transition free to fire without mana;
    produce entries may target any transition's pool. Fails fast with
    :class:`NameClashError` if a ``mana:<t>`` name already exists.
    """
    return _construct(net, policy, mana_place_name)


def internal_construction(net: Net) -> ManaNet:
    """The plain construction: every firing costs one unit of its own mana."""
    return generalized_internal_construction(net, ManaPolicy.plain(net))


def iterated_construction(mn: ManaNet) -> ManaNet:
    """Plain construction applied to an already built net.

    The new layer of mana places is freshened with an ``outer-`` prefix
    (``outer-mana:<t>``, then ``outer-outer-mana:<t>``, ...), keeping the
    existing layer's names intact.
    """
    built = mn.built
    taken = set(built.places) | set(built.transitions)
    prefix = MANA_PREFIX
    while any(prefix + t in taken for t in built.transitions):
        prefix = "outer-" + prefix
    return _construct(built, ManaPolicy.plain(built), lambda t: prefix + t)


def _counit_form(mn: ManaNet) -> GeneratorForm:
    base = mn.base
    objects = {p: {p: 1} for p in base.places}
    for t in base.transitions:
        objects[mn.mana_place_of[t]] = {}
    morphisms = {t: (base.pre[t]._entries, (t,)) for t in base.transitions}
    return GeneratorForm(mn.built, base, objects, morphisms)


def counit(mn: ManaNet) -> PresentedFunctor:
    """Erase the mana layer: mana places map to nothing, firings to themselves."""
    return _present(_counit_form(mn))


def comultiplication(mn: ManaNet) -> PresentedFunctor:
    """Duplicate the mana layer: each mana place maps to inner + outer copy.

    Only defined for the plain policy; the comonad structure does not
    survive generalized policies.
    """
    if not mn.policy.is_plain():
        raise PolicyError("comultiplication requires the plain policy")
    return _present(_comultiplication_form(mn, iterated_construction(mn)))


def _comultiplication_form(mn: ManaNet, double: ManaNet) -> GeneratorForm:
    # `double` must be iterated_construction(mn), built by the caller.
    built = mn.built
    objects = {p: {p: 1} for p in mn.base.places}
    for t in built.transitions:
        inner = mn.mana_place_of[t]
        objects[inner] = {inner: 1, double.mana_place_of[t]: 1}
    pre = double.built.pre
    morphisms = {t: (pre[t]._entries, (t,)) for t in built.transitions}
    return GeneratorForm(built, double.built, objects, morphisms)


def lift_functor(functor: PresentedFunctor,
                 source_mana: ManaNet | None = None,
                 target_mana: ManaNet | None = None) -> PresentedFunctor:
    """Lift a functor between base nets to their plain mana builds.

    Base generators keep their images; the mana place of ``t`` maps to
    the occurrence multiset of ``t``'s image trace, rendered over the
    target's mana places. Pass explicit mana nets when lifting a functor
    that already lives between built nets (the defaults re-run the plain
    construction, which fails fast on existing ``mana:`` places). Raises
    ``ValueError`` when an image trace lives on a net other than the
    functor's target.
    """
    smn = source_mana if source_mana is not None else internal_construction(functor.source)
    tmn = target_mana if target_mana is not None else internal_construction(functor.target)
    return _present(_lift_form(_to_form(functor), smn, tmn))


def _lift_form(form: GeneratorForm, smn: ManaNet, tmn: ManaNet) -> GeneratorForm:
    if smn.base != form.source or tmn.base != form.target:
        raise ValueError("mana nets do not match the functor's boundary nets")
    objects = dict(form.objects)
    morphisms = {}
    for t in form.source.transitions:
        start, steps = form.morphisms[t]
        mana = lift_counts(tmn.mana_place_of, occurrence_counts(steps))
        objects[smn.mana_place_of[t]] = mana
        # Multiset addition, with its overflow check.
        morphisms[t] = ((_wrap(start) + _wrap(mana))._entries if mana else start, steps)
    return GeneratorForm(smn.built, tmn.built, objects, morphisms)


def check_comonad_laws(net: Net, morphisms: Iterable[NetMorphism] = ()) -> LawReport:
    """Verify the comonad equations of the plain construction on `net`.

    Checks both counit laws and coassociativity generator-wise (complete
    by freeness), plus naturality of counit and comultiplication on the
    supplied net morphisms. A law passes exactly when the comparison
    finds no counterexample; a trace class past the budget of
    :func:`~mananets.execution.trace_equivalent` raises
    :class:`~mananets.errors.TraceClassBudgetError`.

    Each distinct morphism is checked once: a morphism equal to an
    earlier one gives the same squares, so it cannot change the report,
    which names the first failing morphism by its index. Each distinct
    net is built once per call: its build, double build, counit and
    comultiplication serve the comonad laws (for `net`) and every
    naturality square whose source or target equals it.

    Every functor here stays in the generator form of
    :mod:`mananets.functors` (count dicts and step tuples); no
    ``PresentedFunctor`` is built, and witnesses are read off the form.
    """
    shared = _built_side(net)
    mn, double, eps, delta = shared
    triple = iterated_construction(double)
    identity = _identity_form(mn.built)

    results = []

    left = _compose_forms(_lift_form(eps, double, mn), delta)
    results.append(law_result("left-counit", _compare_forms(left, identity)))

    right = _compose_forms(_counit_form(double), delta)
    results.append(law_result("right-counit", _compare_forms(right, identity)))

    path_outer = _compose_forms(_comultiplication_form(double, triple), delta)
    path_lifted = _compose_forms(_lift_form(delta, double, triple), delta)
    results.append(law_result("coassociativity", _compare_forms(path_outer, path_lifted)))

    results.extend(_naturality_results(morphisms, net, shared))
    return LawReport(tuple(results), notes=(COMULTIPLICATION_READING,))


def _built_side(net: Net) -> tuple:
    """A net's plain build, double build, counit and comultiplication."""
    mn = internal_construction(net)
    double = iterated_construction(mn)
    return mn, double, _counit_form(mn), _comultiplication_form(mn, double)


def _naturality_results(morphisms: Iterable[NetMorphism], net: Net,
                        shared: tuple) -> list[LawResult]:
    # Both squares are composed and compared for every distinct morphism,
    # so anything that raises does; each law keeps its first counterexample.
    counit_witness = delta_witness = None
    sides = {_net_key(net): shared}
    seen = set()
    for index, morphism in enumerate(morphisms):
        source_key, target_key = _net_key(morphism.source), _net_key(morphism.target)
        key = (source_key, target_key, frozenset(morphism.transition_map.items()),
               frozenset(morphism.place_map.items()))
        if key in seen:
            continue
        seen.add(key)
        functor = _morphism_form(morphism)
        if source_key not in sides:
            sides[source_key] = _built_side(morphism.source)
        smn, sdd, s_eps, s_delta = sides[source_key]
        if target_key not in sides:
            sides[target_key] = _built_side(morphism.target)
        tmn, tdd, t_eps, t_delta = sides[target_key]
        lifted = _lift_form(functor, smn, tmn)

        witness = _compare_forms(_compose_forms(t_eps, lifted),
                                 _compose_forms(functor, s_eps))
        if witness is not None and counit_witness is None:
            counit_witness = {"morphism_index": index, **witness}

        lifted_twice = _lift_form(lifted, sdd, tdd)
        witness = _compare_forms(_compose_forms(t_delta, lifted),
                                 _compose_forms(lifted_twice, s_delta))
        if witness is not None and delta_witness is None:
            delta_witness = {"morphism_index": index, **witness}
    return [law_result("counit-naturality", counit_witness),
            law_result("comultiplication-naturality", delta_witness)]


def _net_key(net: Net) -> tuple:
    # Equal nets have equal keys: Net and NetMorphism hold dicts, so they
    # cannot be hashed themselves.
    return (net.places, net.transitions, frozenset(net.pre.items()),
            frozenset(net.post.items()))
