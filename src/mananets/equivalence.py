"""Round trip between the two mana constructions and its operational check.

Internalizing a policy builds the mana places into the net; putting the
pool of a :class:`~mananets.external.ManaState` onto those places
(:func:`state_to_object`) turns external states into built-net markings.
:func:`check_equivalence` verifies that this translation is a
label-preserving isomorphism between the two bounded reachability
graphs, and :func:`externalize` recovers the policy back from a built
net, inverting :func:`internalize` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeViolationError
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
    two states componentwise corresponds to summing their images.
    """
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


def mana_net_from_built(built: Net, prefix: str = mana_place_name("")) -> ManaNet:
    """Reconstruct a ManaNet from a built net exported as an ordinary net.

    The mana layer is identified by the canonical naming convention: the
    mana place of transition ``t`` is the place ``mana:<t>``, which must
    exist for every transition.
    """
    mana_place_of = {}
    places = set(built.places)
    for t in built.transitions:
        name = prefix + t
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
    """Outcome of comparing the external and internal reachability windows."""

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
    """Compare mana reachability with plain reachability on the built net.

    Both graphs are explored to the same bounds; the external one is then
    mapped through :func:`state_to_object` and must match the internal
    one node for node and edge for edge (labels included). Both sides run
    on count vectors, and the map is a fixed one from external
    coordinates to built-net coordinates: pool coordinate ``t`` goes to
    the mana place of ``t``. The graphs are compared as sets, in the
    order :func:`~mananets.execution.explore` found them; no side is
    sorted.
    """
    mn = internalize(net, policy)
    ext_game = ManaGame(net, policy, initial)
    ext = explore(ext_game, ext_game.vector(initial),
                  depth_bound=depth_bound, token_bound=token_bound)
    root = state_to_object(mn, initial)
    int_game = TokenGame(mn.built, root)
    internal = explore(int_game, int_game.vector(root),
                       depth_bound=depth_bound, token_bound=token_bound)

    lay_out = _layout(mn, ext_game, int_game)
    mapped = [lay_out(v) for v in ext.nodes]
    discrepancy = _first_discrepancy(int_game, mapped, ext.out, internal)
    return EquivalenceReport(
        isomorphic=discrepancy is None,
        ext_nodes=len(ext.nodes),
        int_nodes=len(internal.nodes),
        ext_edges=len(ext.edges),
        int_edges=len(internal.edges),
        first_discrepancy=discrepancy,
    )


def _layout(mn: ManaNet, ext_game: ManaGame, int_game: TokenGame):
    """:func:`state_to_object` as a map from external to built-net vectors.

    A marking symbol named like a mana place makes two external
    coordinates share one built-net place; states are then mapped
    through :func:`state_to_object` itself.
    """
    split = ext_game.split
    source: list[int | None] = [None] * len(int_game.symbols)
    for i, symbol in enumerate(ext_game.symbols):
        j = int_game.position(symbol if i < split else mn.mana_place_of[symbol])
        if source[j] is not None:
            return lambda v: int_game.vector(state_to_object(mn, ext_game.state(v)))
        source[j] = i
    return lambda v: tuple([0 if i is None else v[i] for i in source])


def _first_discrepancy(game: TokenGame, ext_nodes: list, ext_out: list,
                       internal) -> dict | None:
    """The least node, else the least edge, found on one side only.

    `ext_nodes` are the external states already laid out on the built
    net, in the external graph's order, so that the external firings
    `ext_out` can refer to them by position. Both sides are compared as
    sets, so neither needs to be sorted.
    """
    ext_set = set(ext_nodes)
    int_set = set(internal.nodes)
    for side, extra in (("external-only", ext_set - int_set),
                        ("internal-only", int_set - ext_set)):
        if extra:
            first = min((game.state(v) for v in extra), key=Multiset.sort_key)
            return {"kind": "node", "side": side, "value": first.as_dict()}

    position = {v: k for k, v in enumerate(internal.nodes)}
    at = [position[v] for v in ext_nodes]
    ext_arcs = {(at[s], label, at[d]) for s, pairs in enumerate(ext_out) for label, d in pairs}
    int_arcs = {(s, label, d) for s, pairs in enumerate(internal.out) for label, d in pairs}
    for side, extra in (("external-only", ext_arcs - int_arcs),
                        ("internal-only", int_arcs - ext_arcs)):
        if extra:
            edges = [(game.state(internal.nodes[s]), label, game.state(internal.nodes[d]))
                     for s, label, d in extra]
            first = min(edges, key=lambda e: (e[0].sort_key(), e[1], e[2].sort_key()))
            return {"kind": "edge", "side": side,
                    "value": [first[0].as_dict(), first[1], first[2].as_dict()]}
    return None
