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

Nets and policies are validated once, by the public constructions;
``_construct`` only builds, so the double and triple builds that
:func:`check_comonad_laws` makes from nets it has just built are not
checked again.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import NameClashError, PolicyError
from .execution import occurrence_counts
from .functors import (GeneratorForm, PresentedFunctor, _compare_composites, _compare_forms,
                       _compose_forms, _identity_form, _morphism_form, _present, _to_form)
from .multiset import COUNT_MAX, EMPTY, Multiset, _wrap
from .net import Net, NetMorphism, _filled, lift_counts, validate_net
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
        return _filled(cls, consume=dict.fromkeys(net.transitions, 1),
                       produce=dict.fromkeys(net.transitions, EMPTY))

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
    consume, produce = policy.consume, policy.produce
    if consume.keys() != transitions:
        problems.append("consume map is not total on the net's transitions")
    if produce.keys() != transitions:
        problems.append("produce map is not total on the net's transitions")
    # Each walk below runs only once a cheap test has found its fault, so
    # a usable policy sorts nothing.
    if not all(type(count) is int and count >= 0 for count in consume.values()):
        for t in sorted(consume.keys() & transitions):
            count = consume[t]
            if not isinstance(count, int) or isinstance(count, bool):
                problems.append(f"consume count for {t!r} is not an int: {count!r}")
            elif count < 0:
                problems.append(f"consume count for {t!r} is negative")
    if not all(isinstance(m, Multiset) and m._entries.keys() <= transitions
               for m in produce.values()):
        for t in sorted(produce.keys() & transitions):
            m = produce[t]
            if not isinstance(m, Multiset):
                problems.append(f"produce of {t!r} is not a Multiset: {m!r}")
                continue
            for target in m.support():
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


def _check_net(net: Net) -> None:
    problems = validate_net(net)
    if problems:
        raise ValueError(f"net is not well formed: {problems[0].kind} {problems[0].subject}")


def _construct(net: Net, policy: ManaPolicy, prefix: str) -> ManaNet:
    taken = set(net.places) | set(net.transitions)
    mana_place_of = {}
    for t in net.transitions:
        name = prefix + t
        if name in taken:
            raise NameClashError(name)
        taken.add(name)
        mana_place_of[t] = name

    # A consume count that is not a plain int in range goes through
    # Multiset(), which raises its error or keeps the int it stores. Mana
    # places are fresh and named apart, so no arc sum can pass the bound.
    consume, produce = policy.consume, policy.produce
    pre = {}
    post = {}
    for t in net.transitions:
        name = mana_place_of[t]
        count = consume[t]
        if type(count) is not int or count < 0 or count > COUNT_MAX:
            count = Multiset({name: count})[name]
        pre[t] = _wrap({**net.pre[t]._entries, name: count}) if count else net.pre[t]
        gained = produce[t]._entries
        post[t] = (_wrap({**net.post[t]._entries, **lift_counts(mana_place_of, gained)})
                   if gained else net.post[t])
    # Fields are filled directly, with net._filled: every dict here is
    # fresh and every tuple immutable, so copies would be waste.
    built = _filled(Net, places=net.places + tuple(mana_place_of.values()),
                    transitions=net.transitions, pre=pre, post=post)
    return _filled(ManaNet, base=net, built=built, mana_place_of=mana_place_of, policy=policy)


def generalized_internal_construction(net: Net, policy: ManaPolicy) -> ManaNet:
    """Attach one mana place per transition, wired according to `policy`.

    A consume count of 0 leaves the transition free to fire without mana;
    produce entries may target any transition's pool. Fails fast with
    :class:`NameClashError` if a ``mana:<t>`` name already exists.
    Raises ``ValueError`` on a malformed net and :class:`PolicyError` on
    a policy that does not fit it, in that order.
    """
    _check_net(net)
    policy_problems = validate_policy(net, policy)
    if policy_problems:
        raise PolicyError(policy_problems[0])
    return _construct(net, policy, MANA_PREFIX)


def internal_construction(net: Net) -> ManaNet:
    """The plain construction: every firing costs one unit of its own mana."""
    _check_net(net)  # the plain policy fits any well-formed net
    return _construct(net, ManaPolicy.plain(net), MANA_PREFIX)


def iterated_construction(mn: ManaNet) -> ManaNet:
    """Plain construction applied to an already built net.

    The new layer of mana places is freshened with an ``outer-`` prefix
    (``outer-mana:<t>``, then ``outer-outer-mana:<t>``, ...), keeping the
    existing layer's names intact. ``mn.built`` is validated, since a
    caller may have put the :class:`ManaNet` together by hand.
    """
    _check_net(mn.built)
    return _iterated(mn)


def _iterated(mn: ManaNet) -> ManaNet:
    # Unchecked, for a ManaNet that _construct has just built.
    built = mn.built
    taken = set(built.places) | set(built.transitions)
    prefix = MANA_PREFIX
    while any(prefix + t in taken for t in built.transitions):
        prefix = "outer-" + prefix
    return _construct(built, ManaPolicy.plain(built), prefix)


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
    mana_place_of = tmn.mana_place_of
    for t in form.source.transitions:
        start, steps = form.morphisms[t]
        mana = ({mana_place_of[steps[0]]: 1} if len(steps) == 1 and steps[0] in mana_place_of
                else lift_counts(mana_place_of, occurrence_counts(steps)))
        objects[smn.mana_place_of[t]] = mana
        # Multiset addition, which only a shared key can make overflow.
        if mana:
            start = ({**start, **mana} if start.keys().isdisjoint(mana)
                     else (_wrap(start) + _wrap(mana))._entries)
        morphisms[t] = (start, steps)
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
    Coassociativity and both naturality squares are each decided in one
    pass over the generators, which builds neither side's composite. A
    square that fails there, or whose images raise, is composed and
    compared after all, so its counterexample or error is exactly the
    one composing and comparing gives.
    """
    shared = _built_side(net)
    mn, double, eps, delta = shared
    triple = _iterated(double)
    identity = _identity_form(mn.built)

    results = []

    left = _compose_forms(_lift_form(eps, double, mn), delta)
    results.append(law_result("left-counit", _compare_forms(left, identity)))

    right = _compose_forms(_counit_form(double), delta)
    results.append(law_result("right-counit", _compare_forms(right, identity)))

    path_outer = _comultiplication_form(double, triple)
    path_lifted = _lift_form(delta, double, triple)
    results.append(law_result("coassociativity",
                              _compare_composites(path_outer, delta, path_lifted, delta)))

    results.extend(_naturality_results(morphisms, net, shared))
    return LawReport(tuple(results), notes=(COMULTIPLICATION_READING,))


def _built_side(net: Net) -> tuple:
    """A net's plain build, double build, counit and comultiplication."""
    mn = internal_construction(net)
    double = _iterated(mn)
    return mn, double, _counit_form(mn), _comultiplication_form(mn, double)


def _naturality_results(morphisms: Iterable[NetMorphism], net: Net,
                        shared: tuple) -> list[LawResult]:
    # Both squares are composed and compared for every distinct morphism,
    # so anything that raises does; each law keeps its first counterexample.
    counit_witness = delta_witness = None
    net_key = _net_key(net)
    sides = {net_key: shared}
    seen = set()
    for index, morphism in enumerate(morphisms):
        source_key = net_key if morphism.source is net else _net_key(morphism.source)
        target_key = _net_key(morphism.target)
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

        witness = _compare_composites(t_eps, lifted, functor, s_eps)
        if witness is not None and counit_witness is None:
            counit_witness = {"morphism_index": index, **witness}

        lifted_twice = _lift_form(lifted, sdd, tdd)
        witness = _compare_composites(t_delta, lifted, lifted_twice, s_delta)
        if witness is not None and delta_witness is None:
            delta_witness = {"morphism_index": index, **witness}
    return [law_result("counit-naturality", counit_witness),
            law_result("comultiplication-naturality", delta_witness)]


def _net_key(net: Net) -> tuple:
    # Equal nets have equal keys: Net and NetMorphism hold dicts, so they
    # cannot be hashed themselves.
    return (net.places, net.transitions, frozenset(net.pre.items()),
            frozenset(net.post.items()))
