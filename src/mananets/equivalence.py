"""Round trip between the two mana constructions and its check.

Internalizing a policy builds the mana places into the net; putting the
pool of a :class:`~mananets.external.ManaState` onto those places
(:func:`state_to_object`) turns external states into built-net markings.
:func:`check_equivalence` decides that this translation is a
label-preserving isomorphism of the two token games by comparing their
named steps, the generators of both free execution categories.
:func:`externalize` recovers the policy back from a built net, inverting
:func:`internalize` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NameClashError, ShapeViolationError
from .execution import TokenGame, explore
from .external import ManaGame, ManaState
from .internal import (ManaNet, ManaPolicy, generalized_internal_construction,
                       mana_place_name)
from .multiset import Multiset
from .net import Net, lift_multiset_map


def internalize(net: Net, policy: ManaPolicy) -> ManaNet:
    """Build the net whose executions are exactly the policy's mana runs."""
    return generalized_internal_construction(net, policy)


def state_to_object(mn: ManaNet, state: ManaState) -> Multiset:
    """Lay a state out as a built-net marking: pool tokens onto mana places.

    This is a monoid isomorphism onto markings of the built net; summing
    two states componentwise corresponds to summing their images. A
    marking symbol that is one of the mana places would merge with a pool
    there, so the least such symbol raises :class:`NameClashError`.
    """
    clashes = mn.mana_places().intersection(state.marking.support())
    if clashes:
        raise NameClashError(min(clashes))
    return state.marking + lift_multiset_map(mn.mana_place_of, state.pool)


def object_to_state(mn: ManaNet, marking: Multiset) -> ManaState:
    """Split a built-net marking back into (marking, pool)."""
    mana_places = mn.mana_places()
    pool = {t: marking[place] for t, place in mn.mana_place_of.items() if marking[place]}
    return ManaState(marking.drop(mana_places), Multiset(pool))


def externalize(mn: ManaNet) -> tuple[Net, ManaPolicy]:
    """Read the base net and the policy off a built net.

    Inverts :func:`internalize` exactly. Raises
    :class:`ShapeViolationError` when a transition consumes mana that is
    not its own, the one shape the construction can never produce.
    """
    return _read_base_and_policy(mn.built, mn.mana_place_of)


def mana_net_from_built(built: Net) -> ManaNet:
    """Reconstruct a ManaNet from a built net exported as an ordinary net.

    The mana layer is identified by the canonical naming convention: the
    mana place of transition ``t`` is the place ``mana:<t>``, which must
    exist for every transition.
    """
    mana_place_of = {}
    places = set(built.places)
    for t in built.transitions:
        name = mana_place_name(t)
        if name not in places:
            raise ShapeViolationError(t, f"no mana place {name!r} in the net")
        mana_place_of[t] = name
    base, policy = _read_base_and_policy(built, mana_place_of)
    return ManaNet(base, built, mana_place_of, policy)


def _read_base_and_policy(built: Net, mana_place_of) -> tuple[Net, ManaPolicy]:
    mana_places = set(mana_place_of.values())
    place_owner = {place: t for t, place in mana_place_of.items()}

    consume = {}
    produce = {}
    pre = {}
    post = {}
    for t in built.transitions:
        own = mana_place_of[t]
        for place in built.pre[t].support():
            if place in mana_places and place != own:
                raise ShapeViolationError(
                    t, f"consumes mana of {place_owner[place]!r}; "
                       "each transition may use only its own pool")
        consume[t] = built.pre[t][own]
        produce[t] = Multiset({v: built.post[t][place]
                               for v, place in mana_place_of.items()
                               if built.post[t][place]})
        pre[t] = built.pre[t].drop(mana_places)
        post[t] = built.post[t].drop(mana_places)

    base = Net(tuple(p for p in built.places if p not in mana_places),
               built.transitions, pre, post)
    return base, ManaPolicy(consume, produce)


@dataclass(frozen=True)
class EquivalenceReport:
    """The generator verdict, the two windows' counts and, on a mismatch, a witness."""

    isomorphic: bool
    ext_nodes: int
    int_nodes: int
    ext_edges: int
    int_edges: int
    first_discrepancy: dict | None

    def to_json_dict(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "ext_nodes": self.ext_nodes,
            "int_nodes": self.int_nodes,
            "ext_edges": self.ext_edges,
            "int_edges": self.int_edges,
            "first_discrepancy": self.first_discrepancy,
        }


def check_equivalence(net: Net, policy: ManaPolicy, initial: ManaState,
                      depth_bound: int, token_bound: int) -> EquivalenceReport:
    """Decide whether mana firing and plain firing on the built net agree.

    Each coordinate of the mana game is named by its built-net symbol (a
    marking symbol stays itself, pool ``t`` becomes the mana place of
    ``t``), and the two games' steps (label, needs, changes) are compared
    by name. Execution categories are free, so that comparison decides
    the isomorphism for every state and bound. The root is laid out
    first, so an error of :func:`state_to_object` comes before any
    search. The counts are those of each game's window from the root;
    the built net is explored only on a mismatch. The witness is then
    the least label whose step differs or that one game lacks, each
    side's step given as ``{"needs", "changes"}`` by name, or None.
    """
    mn = internalize(net, policy)
    ext_game = ManaGame(net, policy, initial)
    root = state_to_object(mn, initial)
    split = ext_game.split
    names = [s if i < split else mn.mana_place_of[s] for i, s in enumerate(ext_game.symbols)]
    ext = explore(ext_game, ext_game.vector(initial),
                  depth_bound=depth_bound, token_bound=token_bound)
    int_game = TokenGame(mn.built, root)
    n, e = len(ext.nodes), len(ext.targets)
    # `names` has no repeats: the construction refuses a mana place name that
    # is taken, and state_to_object a marking symbol on a mana place.
    ext_steps = _generators(ext_game, names)
    int_steps = _generators(int_game, int_game.symbols)
    if ext_steps == int_steps:
        return EquivalenceReport(True, n, n, e, e, None)
    internal = explore(int_game, int_game.vector(root),
                       depth_bound=depth_bound, token_bound=token_bound)
    return EquivalenceReport(False, n, len(internal.nodes), e, len(internal.targets),
                             _first_difference(ext_steps, int_steps))


def _generators(game: TokenGame, names) -> list:
    # Each step as (label, {name: need}, {name: change}), coordinate i read as
    # names[i]. A step's growth is the sum of its changes, so it needs no comparison.
    return [(label, {names[i]: c for i, c in pre}, {names[i]: d for i, d in delta})
            for label, pre, delta, _ in game.steps]


def _first_difference(ext: list, internal: list) -> dict:
    """The witness for the least label whose step differs or only one game has."""
    ext, internal = ({label: {"needs": needs, "changes": changes}
                      for label, needs, changes in steps} for steps in (ext, internal))
    t = min(label for label in ext.keys() | internal.keys()
            if ext.get(label) != internal.get(label))
    return {"kind": "generator", "transition": t,
            "external": ext.get(t), "internal": internal.get(t)}
