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
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import NameClashError, PolicyError
from .execution import Trace, occurrence_multiset
from .functors import (PresentedFunctor, compare_functors, compose_functors,
                       functor_of_net_morphism, identity_functor)
from .multiset import EMPTY, Multiset
from .net import Net, NetMorphism, lift_multiset_map, validate_net
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
        if policy.consume[t] < 0:
            problems.append(f"consume count for {t!r} is negative")
    for t in sorted(set(policy.produce) & transitions):
        for target in policy.produce[t].support():
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

    pre = {}
    post = {}
    for t in net.transitions:
        own = Multiset({mana_place_of[t]: policy.consume[t]})
        pre[t] = net.pre[t] + own
        post[t] = net.post[t] + lift_multiset_map(mana_place_of, policy.produce[t])
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


def counit(mn: ManaNet) -> PresentedFunctor:
    """Erase the mana layer: mana places map to nothing, firings to themselves."""
    base = mn.base
    object_map: dict[str, Multiset] = {p: Multiset({p: 1}) for p in base.places}
    for t in base.transitions:
        object_map[mn.mana_place_of[t]] = EMPTY
    morphism_map = {t: Trace(base, base.pre[t], (t,)) for t in base.transitions}
    return PresentedFunctor(mn.built, base, object_map, morphism_map)


def comultiplication(mn: ManaNet) -> PresentedFunctor:
    """Duplicate the mana layer: each mana place maps to inner + outer copy.

    Only defined for the plain policy; the comonad structure does not
    survive generalized policies.
    """
    if not mn.policy.is_plain():
        raise PolicyError("comultiplication requires the plain policy")
    return _comultiplication(mn, iterated_construction(mn))


def _comultiplication(mn: ManaNet, double: ManaNet) -> PresentedFunctor:
    # `double` must be iterated_construction(mn), built by the caller.
    built = mn.built
    object_map: dict[str, Multiset] = {p: Multiset({p: 1}) for p in mn.base.places}
    for t in built.transitions:
        inner = mn.mana_place_of[t]
        outer = double.mana_place_of[t]
        object_map[inner] = Multiset({inner: 1, outer: 1})
    morphism_map = {t: Trace(double.built, double.built.pre[t], (t,))
                    for t in built.transitions}
    return PresentedFunctor(built, double.built, object_map, morphism_map)


def lift_functor(functor: PresentedFunctor,
                 source_mana: ManaNet | None = None,
                 target_mana: ManaNet | None = None) -> PresentedFunctor:
    """Lift a functor between base nets to their plain mana builds.

    Base generators keep their images; the mana place of ``t`` maps to
    the occurrence multiset of ``t``'s image trace, rendered over the
    target's mana places. Pass explicit mana nets when lifting a functor
    that already lives between built nets (the defaults re-run the plain
    construction, which fails fast on existing ``mana:`` places).
    """
    smn = source_mana if source_mana is not None else internal_construction(functor.source)
    tmn = target_mana if target_mana is not None else internal_construction(functor.target)
    if smn.base != functor.source or tmn.base != functor.target:
        raise ValueError("mana nets do not match the functor's boundary nets")

    object_map = dict(functor.object_map)
    morphism_map = {}
    for t in functor.source.transitions:
        image = functor.morphism_map[t]
        mana_image = lift_multiset_map(tmn.mana_place_of, occurrence_multiset(image))
        object_map[smn.mana_place_of[t]] = mana_image
        morphism_map[t] = Trace(tmn.built, image.initial + mana_image, image.steps)
    return PresentedFunctor(smn.built, tmn.built, object_map, morphism_map)


def check_comonad_laws(net: Net, morphisms: Iterable[NetMorphism] = ()) -> LawReport:
    """Verify the comonad equations of the plain construction on `net`.

    Checks both counit laws and coassociativity generator-wise (complete
    by freeness), plus naturality of counit and comultiplication on the
    supplied net morphisms. Inconclusive trace comparisons fail the check
    conservatively and are reported as such.

    Each distinct morphism is checked once: a morphism equal to an
    earlier one gives the same squares, so it cannot change the report,
    which names the first failing morphism by its index. Each distinct
    net is built once per call: its build, double build, counit and
    comultiplication serve the comonad laws (for `net`) and every
    naturality square whose source or target equals it.
    """
    problems = validate_net(net)
    if problems:
        raise ValueError(f"net is not well formed: {problems[0].kind} {problems[0].subject}")

    shared = _built_side(net)
    mn, double, eps, delta = shared
    triple = iterated_construction(double)

    results = []

    lifted_eps = lift_functor(eps, source_mana=double, target_mana=mn)
    left = compose_functors(lifted_eps, delta)
    verdict, witness = compare_functors(left, identity_functor(mn.built))
    results.append(law_result("left-counit", verdict, witness))

    right = compose_functors(counit(double), delta)
    verdict, witness = compare_functors(right, identity_functor(mn.built))
    results.append(law_result("right-counit", verdict, witness))

    lifted_delta = lift_functor(delta, source_mana=double, target_mana=triple)
    path_outer = compose_functors(_comultiplication(double, triple), delta)
    path_lifted = compose_functors(lifted_delta, delta)
    verdict, witness = compare_functors(path_outer, path_lifted)
    results.append(law_result("coassociativity", verdict, witness))

    results.extend(_naturality_results(morphisms, net, shared))
    return LawReport(tuple(results), notes=(COMULTIPLICATION_READING,))


def _built_side(net: Net) -> tuple:
    """A net's plain build, double build, counit and comultiplication."""
    mn = internal_construction(net)
    double = iterated_construction(mn)
    return mn, double, counit(mn), _comultiplication(mn, double)


def _naturality_results(morphisms: Iterable[NetMorphism], net: Net,
                        shared: tuple) -> list[LawResult]:
    counit_verdict: bool | None = True
    counit_witness = None
    delta_verdict: bool | None = True
    delta_witness = None
    sides = {_net_key(net): shared}
    seen = set()
    for index, morphism in enumerate(morphisms):
        source_key, target_key = _net_key(morphism.source), _net_key(morphism.target)
        key = (source_key, target_key, frozenset(morphism.transition_map.items()),
               frozenset(morphism.place_map.items()))
        if key in seen:
            continue
        seen.add(key)
        functor = functor_of_net_morphism(morphism)
        if source_key not in sides:
            sides[source_key] = _built_side(morphism.source)
        smn, sdd, s_eps, s_delta = sides[source_key]
        if target_key not in sides:
            sides[target_key] = _built_side(morphism.target)
        tmn, tdd, t_eps, t_delta = sides[target_key]
        lifted = lift_functor(functor, source_mana=smn, target_mana=tmn)

        lhs = compose_functors(t_eps, lifted)
        rhs = compose_functors(functor, s_eps)
        verdict, witness = compare_functors(lhs, rhs)
        counit_verdict, counit_witness = _merge(counit_verdict, counit_witness,
                                                verdict, witness, index)

        lifted_twice = lift_functor(lifted, source_mana=sdd, target_mana=tdd)
        lhs = compose_functors(t_delta, lifted)
        rhs = compose_functors(lifted_twice, s_delta)
        verdict, witness = compare_functors(lhs, rhs)
        delta_verdict, delta_witness = _merge(delta_verdict, delta_witness,
                                              verdict, witness, index)
    if not seen:
        return [LawResult("counit-naturality", "pass"),
                LawResult("comultiplication-naturality", "pass")]
    return [law_result("counit-naturality", counit_verdict, counit_witness),
            law_result("comultiplication-naturality", delta_verdict, delta_witness)]


def _net_key(net: Net) -> tuple:
    # Equal nets have equal keys: Net and NetMorphism hold dicts, so they
    # cannot be hashed themselves.
    return (net.places, net.transitions, frozenset(net.pre.items()),
            frozenset(net.post.items()))


def _merge(acc_verdict, acc_witness, verdict, witness, index):
    # Keep the first failure; inconclusive only downgrades a clean pass.
    if acc_verdict is False:
        return acc_verdict, acc_witness
    if verdict is False:
        return False, {"morphism_index": index, **(witness or {})}
    if verdict is None and acc_verdict is True:
        return None, {"morphism_index": index, **(witness or {})}
    return acc_verdict, acc_witness
