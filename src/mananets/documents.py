"""Net documents: canonical JSON and the reaction DSL front-end.

A document bundles a net with an optional mana policy, an optional
marking and an optional pool. The JSON form is canonical (keys sorted,
two-space indent, UTF-8, one trailing newline), so emitting after
parsing reproduces canonical files byte for byte. The DSL is a
line-oriented chemist's shorthand::

    hydrolysis: ATP + H2O -> ADP + Pi
    u3: X -> Y mana: consume 1, produce {u3:1}
    marking: 2 ATP + H2O
    pool: u3=1

Sides are ``+``-separated terms with optional positive coefficients; a
bare ``0`` stands for the empty side. Pool and produce counts are
positive too; ``consume 0`` is allowed. Blank lines and ``#`` comments
are skipped.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .errors import DocumentError
from .execution import ReachGraph, TokenGame, VectorGraph, order_nodes
from .external import ManaState
from .internal import ManaPolicy
from .multiset import COUNT_MAX, EMPTY, Multiset
from .net import Net

_TOP_KEYS = {"places", "transitions", "mana", "marking", "pool"}
_TRANSITION_KEYS = {"pre", "post"}
_MANA_KEYS = {"consume", "produce"}


@dataclass(frozen=True)
class NetDocument:
    """A net plus optional policy, marking and pool, as stored on disk."""

    net: Net
    policy: ManaPolicy | None = None
    marking: Multiset | None = None
    pool: Multiset | None = None


# -- JSON -----------------------------------------------------------------


def parse_json(data: str | bytes) -> NetDocument:
    """Parse and cross-check a JSON net document.

    Unknown or repeated keys, non-positive counts and references to
    undeclared symbols are rejected with the JSON path of the offence.
    """
    try:
        raw = json.loads(_text(data), object_pairs_hook=_JsonObject.of_pairs)
    except json.JSONDecodeError as err:
        raise DocumentError(f"invalid JSON: {err.msg}",
                            line=err.lineno, col=err.colno) from err
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object", path="$")
    _check_unique(raw, "$")
    for key in raw:
        if key not in _TOP_KEYS:
            raise DocumentError(f"unknown key {key!r}", path=f"$.{key}")
    if "places" not in raw or "transitions" not in raw:
        raise DocumentError("document needs 'places' and 'transitions'", path="$")

    places = _parse_places(raw["places"])
    names, pre, post = _parse_transitions(raw["transitions"])
    net = Net(places, names, pre, post)

    policy = None
    if "mana" in raw:
        policy = _parse_mana(raw["mana"], net)
    marking = None
    if "marking" in raw:
        marking = _parse_multiset(raw["marking"], "$.marking")
        _check_support(marking, set(places), "$.marking", "place")
    pool = None
    if "pool" in raw:
        pool = _parse_multiset(raw["pool"], "$.pool")
        _check_support(pool, set(names), "$.pool", "transition")
    return NetDocument(net, policy, marking, pool)


def _text(data: str | bytes) -> str:
    """A document as text; bytes that are not UTF-8 are a document error."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DocumentError(f"document is not valid UTF-8: {err}") from err


class _JsonObject(dict):
    """A parsed JSON object that remembers the first key given twice."""

    repeated: str | None = None

    @classmethod
    def of_pairs(cls, pairs) -> _JsonObject:
        obj = cls()
        for key, value in pairs:
            if key in obj and obj.repeated is None:
                obj.repeated = key
            obj[key] = value
        return obj


def _check_unique(raw: dict, path: str):
    # Defaults such as a missing produce map are plain dicts.
    repeated = getattr(raw, "repeated", None)
    if repeated is not None:
        raise DocumentError(f"duplicate key {repeated!r}", path=f"{path}.{repeated}")


def _parse_places(raw) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise DocumentError("'places' must be a list of strings", path="$.places")
    seen = set()
    for p in raw:
        if p in seen:
            raise DocumentError(f"duplicate place {p!r}", path="$.places")
        seen.add(p)
    return tuple(raw)


def _parse_transitions(raw):
    if not isinstance(raw, dict):
        raise DocumentError("'transitions' must be an object", path="$.transitions")
    _check_unique(raw, "$.transitions")
    names = tuple(raw)
    pre = {}
    post = {}
    for name, body in raw.items():
        path = f"$.transitions.{name}"
        if not isinstance(body, dict):
            raise DocumentError("transition must be an object", path=path)
        _check_unique(body, path)
        for key in body:
            if key not in _TRANSITION_KEYS:
                raise DocumentError(f"unknown key {key!r}", path=f"{path}.{key}")
        for key in _TRANSITION_KEYS:
            if key not in body:
                raise DocumentError(f"missing key {key!r}", path=path)
        pre[name] = _parse_multiset(body["pre"], f"{path}.pre")
        post[name] = _parse_multiset(body["post"], f"{path}.post")
    return names, pre, post


def _parse_multiset(raw, path: str) -> Multiset:
    if not isinstance(raw, dict):
        raise DocumentError("multiset must be an object", path=path)
    _check_unique(raw, path)
    counts = {}
    for symbol, count in raw.items():
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise DocumentError("counts must be positive integers",
                                path=f"{path}.{symbol}")
        if count > COUNT_MAX:
            raise DocumentError(f"count for {symbol!r} exceeds the bound: {count}",
                                path=f"{path}.{symbol}")
        counts[symbol] = count
    return Multiset(counts)


def _check_support(m: Multiset, declared: set[str], path: str, what: str):
    for symbol in m.support():
        if symbol not in declared:
            raise DocumentError(f"unknown {what} {symbol!r}", path=f"{path}.{symbol}")


def _parse_mana(raw, net: Net) -> ManaPolicy:
    if not isinstance(raw, dict):
        raise DocumentError("'mana' must be an object", path="$.mana")
    _check_unique(raw, "$.mana")
    declared = set(net.transitions)
    entries = {}
    for name, body in raw.items():
        path = f"$.mana.{name}"
        if name not in declared:
            raise DocumentError(f"unknown transition {name!r}", path=path)
        if not isinstance(body, dict):
            raise DocumentError("mana entry must be an object", path=path)
        _check_unique(body, path)
        for key in body:
            if key not in _MANA_KEYS:
                raise DocumentError(f"unknown key {key!r}", path=f"{path}.{key}")
        consume = body.get("consume", 1)
        if not isinstance(consume, int) or isinstance(consume, bool) or consume < 0:
            raise DocumentError("'consume' must be a non-negative integer",
                                path=f"{path}.consume")
        if consume > COUNT_MAX:
            raise DocumentError(f"'consume' exceeds the bound: {consume}",
                                path=f"{path}.consume")
        produce = _parse_multiset(body.get("produce", {}), f"{path}.produce")
        _check_support(produce, declared, f"{path}.produce", "transition")
        entries[name] = (consume, produce)
    return ManaPolicy.of(net, entries)


def emit_json(doc: NetDocument) -> str:
    """Canonical JSON text for a document (sorted keys, trailing newline)."""
    obj: dict = {
        "places": sorted(doc.net.places),
        "transitions": {t: {"pre": doc.net.pre[t].as_dict(),
                            "post": doc.net.post[t].as_dict()}
                        for t in doc.net.transitions},
    }
    if doc.policy is not None:
        obj["mana"] = {t: {"consume": doc.policy.consume[t],
                           "produce": doc.policy.produce[t].as_dict()}
                       for t in doc.net.transitions}
    if doc.marking is not None:
        obj["marking"] = doc.marking.as_dict()
    if doc.pool is not None:
        obj["pool"] = doc.pool.as_dict()
    return canonical_json(obj)


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, indent 2, non-ASCII kept, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


# -- reaction DSL ------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<nat>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>->|[:+,{}=])
""", re.VERBOSE)


class _Scanner:
    """One line's tokens with column tracking for diagnostics."""

    def __init__(self, text: str, line: int):
        self.line = line
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise DocumentError(f"unexpected character {text[pos]!r}",
                                    line=line, col=pos + 1)
            if match.lastgroup != "ws":
                self.tokens.append((match.lastgroup, match.group(), pos + 1))
            pos = match.end()
        self.index = 0

    def peek(self, offset: int = 0):
        at = self.index + offset
        return self.tokens[at] if at < len(self.tokens) else None

    def next(self):
        token = self.peek()
        if token is None:
            raise DocumentError("unexpected end of line", line=self.line,
                                col=self.tokens[-1][2] if self.tokens else 1)
        self.index += 1
        return token

    def expect(self, kind: str, value: str | None = None):
        token = self.next()
        if token[0] != kind or (value is not None and token[1] != value):
            want = value if value is not None else kind
            raise DocumentError(f"expected {want!r}, found {token[1]!r}",
                                line=self.line, col=token[2])
        return token

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)


def _add_count(counts: dict[str, int], symbol: str, count: int, line: int, col: int):
    """Add to a count being parsed; a total past the bound names its term."""
    total = counts.get(symbol, 0) + count
    if total > COUNT_MAX:
        raise DocumentError(f"count for {symbol!r} exceeds the bound: {total}",
                            line=line, col=col)
    counts[symbol] = total


def _parse_side(scanner: _Scanner) -> Multiset:
    counts: dict[str, int] = {}
    while True:
        coefficient = 1
        token = scanner.peek()
        term = None
        if token is not None and token[0] == "nat":
            term = token
            scanner.next()
            coefficient = int(token[1])
            if coefficient == 0:
                follower = scanner.peek()
                second = scanner.peek(1)
                clause_ahead = (follower is not None and follower[0] == "name"
                                and second is not None and second[:2] == ("sym", ":"))
                if follower is None or follower[0] != "name" or clause_ahead:
                    # bare 0: the empty side
                    return Multiset(counts)
                raise DocumentError(f"zero coefficient before {follower[1]!r}",
                                    line=scanner.line, col=token[2])
        name = scanner.expect("name")
        _add_count(counts, name[1], coefficient, scanner.line, (term or name)[2])
        follower = scanner.peek()
        if follower is not None and follower[0] == "sym" and follower[1] == "+":
            scanner.next()
            continue
        return Multiset(counts)


def _parse_produce(scanner: _Scanner) -> Multiset:
    scanner.expect("sym", "{")
    counts: dict[str, int] = {}
    token = scanner.peek()
    while not (token is not None and token[0] == "sym" and token[1] == "}"):
        name = scanner.expect("name")
        scanner.expect("sym", ":")
        count = scanner.expect("nat")
        if int(count[1]) == 0:
            raise DocumentError("counts must be positive integers",
                                line=scanner.line, col=count[2])
        _add_count(counts, name[1], int(count[1]), scanner.line, count[2])
        token = scanner.peek()
        if token is not None and token[0] == "sym" and token[1] == ",":
            scanner.next()
            token = scanner.peek()
    scanner.expect("sym", "}")
    return Multiset(counts)


def parse_reaction_dsl(text: str) -> NetDocument:
    """Parse the line-oriented reaction format into a document.

    Every symbol that appears on a reaction side or in the marking is a
    place; every named reaction is a transition. A policy is attached as
    soon as any line carries a mana clause; untagged transitions then
    default to consume 1, produce nothing.
    """
    place_order: list[str] = []
    seen_places = set()
    transitions: dict[str, tuple[Multiset, Multiset]] = {}
    mana_entries: dict[str, tuple[int, Multiset]] = {}
    produce_sites: dict[str, tuple[int, int]] = {}
    marking = None
    pool = None
    pool_sites: dict[str, tuple[int, int]] = {}

    def note_places(mset: Multiset):
        for symbol in mset.support():
            if symbol not in seen_places:
                seen_places.add(symbol)
                place_order.append(symbol)

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        scanner = _Scanner(line, lineno)
        head = scanner.expect("name")
        scanner.expect("sym", ":")

        if head[1] == "marking":
            if marking is not None:
                raise DocumentError("duplicate marking line", line=lineno, col=head[2])
            marking = _parse_side(scanner)
            note_places(marking)
            _expect_line_end(scanner, lineno)
            continue

        if head[1] == "pool":
            if pool is not None:
                raise DocumentError("duplicate pool line", line=lineno, col=head[2])
            counts: dict[str, int] = {}
            while not scanner.at_end():
                name = scanner.expect("name")
                scanner.expect("sym", "=")
                count = scanner.expect("nat")
                if name[1] in counts:
                    raise DocumentError(f"duplicate pool entry {name[1]!r}",
                                        line=lineno, col=name[2])
                if int(count[1]) == 0:
                    raise DocumentError("counts must be positive integers",
                                        line=lineno, col=count[2])
                _add_count(counts, name[1], int(count[1]), lineno, count[2])
                pool_sites[name[1]] = (lineno, name[2])
            pool = Multiset(counts)
            continue

        # reaction line
        name = head[1]
        if name in transitions:
            raise DocumentError(f"duplicate transition {name!r}", line=lineno, col=head[2])
        before = _parse_side(scanner)
        scanner.expect("sym", "->")
        after = _parse_side(scanner)
        note_places(before)
        note_places(after)
        transitions[name] = (before, after)

        if not scanner.at_end():
            keyword = scanner.expect("name")
            if keyword[1] != "mana":
                raise DocumentError(f"expected 'mana:', found {keyword[1]!r}",
                                    line=lineno, col=keyword[2])
            scanner.expect("sym", ":")
            scanner.expect("name", "consume")
            count = scanner.expect("nat")
            consume = int(count[1])
            if consume > COUNT_MAX:
                raise DocumentError(f"'consume' exceeds the bound: {consume}",
                                    line=lineno, col=count[2])
            produce = EMPTY
            if not scanner.at_end():
                scanner.expect("sym", ",")
                produce_kw = scanner.expect("name")
                if produce_kw[1] != "produce":
                    raise DocumentError(f"expected 'produce', found {produce_kw[1]!r}",
                                        line=lineno, col=produce_kw[2])
                produce = _parse_produce(scanner)
                produce_sites[name] = (lineno, produce_kw[2])
            mana_entries[name] = (consume, produce)
            _expect_line_end(scanner, lineno)

    names = tuple(transitions)
    net = Net(tuple(place_order), names,
              {t: transitions[t][0] for t in names},
              {t: transitions[t][1] for t in names})

    declared = set(names)
    for t, (_, produce) in mana_entries.items():
        for target in produce.support():
            if target not in declared:
                line, col = produce_sites.get(t, (1, 1))
                raise DocumentError(
                    f"produce of {t!r} targets unknown transition {target!r}",
                    line=line, col=col)
    if pool is not None:
        for symbol in pool.support():
            if symbol not in declared:
                line, col = pool_sites.get(symbol, (1, 1))
                raise DocumentError(f"pool entry for unknown transition {symbol!r}",
                                    line=line, col=col)

    policy = ManaPolicy.of(net, mana_entries) if mana_entries else None
    return NetDocument(net, policy, marking, pool)


def _expect_line_end(scanner: _Scanner, lineno: int):
    token = scanner.peek()
    if token is not None:
        raise DocumentError(f"unexpected trailing input {token[1]!r}",
                            line=lineno, col=token[2])


def parse_document(data: str | bytes) -> NetDocument:
    """Dispatch by content: a document starting with '{' is JSON, else DSL."""
    text = _text(data)
    if text.lstrip().startswith("{"):
        return parse_json(text)
    return parse_reaction_dsl(text)


# -- JSON views of runtime values ---------------------------------------------


def state_to_json_dict(state: ManaState) -> dict:
    return {"marking": state.marking.as_dict(), "pool": state.pool.as_dict()}


def graph_to_json_dict(graph: ReachGraph) -> dict:
    """Index-based serialization: sorted nodes, edges as [src, label, dst]."""

    def node_json(node):
        if isinstance(node, ManaState):
            return state_to_json_dict(node)
        return node.as_dict()

    index = {node: i for i, node in enumerate(graph.nodes)}
    return {
        "root": index[graph.root],
        "nodes": [node_json(node) for node in graph.nodes],
        "edges": [[index[s], label, index[d]] for s, label, d in graph.edges],
        "depth_bound": graph.depth_bound,
        "token_bound": graph.token_bound,
        "truncated": graph.truncated,
    }


def emit_graph_json(game: TokenGame, graph: VectorGraph, depth_bound: int,
                    token_bound: int) -> str:
    """Canonical JSON text of an explored plain graph, written from its count vectors.

    `graph` is what :func:`~mananets.execution.explore` found in the
    plain game `game` within the two bounds. The text is exactly
    ``json.dumps(graph_to_json_dict(game.reach(root, depth_bound,
    token_bound)), sort_keys=True, indent=2, ensure_ascii=False) +
    "\\n"``, so nodes and edges come in the order of
    :func:`~mananets.execution.order_nodes`, each node's edges read from
    its range of the graph's flat firing arrays. The nodes are unpacked
    together, in sorted order, and each is written over the game's sorted
    symbols; no ``Multiset`` or ``ReachGraph`` is built. Each member text
    and each rank text is made once and reused. With an indent,
    ``json.dumps`` runs its pure-Python encoder, which would dominate the
    time of a large ``reach``; this writer only joins strings, all of
    them in one final join.
    """
    names = _JsonStrings()
    order, rank = order_nodes(game, graph)
    first, labels, targets = graph.first, graph.labels, graph.targets
    # Each node's rank as text, by position: a rank is formatted once,
    # not once per edge that touches it. Every item text of the two lists
    # begins with its separator; see _json_list.
    ranks = [str(r) for r in rank]
    edges = [f",\n    [\n      {ranks[s]},\n      {names[labels[e]]},\n      "
             f"{ranks[targets[e]]}\n    ]" for s in order for e in range(first[s], first[s + 1])]
    members = [_Members(names[s] + ": ") for s in game.symbols]
    bodies = (",\n      ".join(filter(None, map(_Members.__getitem__, members, vector)))
              for vector in graph.vectors([graph.nodes[s] for s in order]))
    nodes = [",\n    {\n      " + body + "\n    }" if body else ",\n    {}" for body in bodies]
    pieces = ['{\n  "depth_bound": ', _json_scalar(depth_bound), ',\n  "edges": ']
    pieces += _json_list(edges)
    pieces.append(',\n  "nodes": ')
    pieces += _json_list(nodes)
    pieces += (',\n  "root": ', ranks[0],
               ',\n  "token_bound": ', _json_scalar(token_bound),
               ',\n  "truncated": ', _json_scalar(graph.truncated),
               "\n}\n")
    del ranks, edges, nodes  # the join below is the writer's peak in memory
    return "".join(pieces)


class _JsonStrings(dict):
    """JSON string literals, each encoded once on first use."""

    def __missing__(self, text: str) -> str:
        literal = self[text] = json.encoder.encode_basestring(text)
        return literal


class _Members(dict):
    """The ``"symbol": count`` member texts of one symbol, each made once."""

    __slots__ = ("head",)

    def __init__(self, head: str):
        self.head = head
        self[0] = ""  # a zero count is no member

    def __missing__(self, count: int) -> str:
        text = self[count] = self.head + str(count)
        return text


def _json_scalar(value) -> str:
    return json.dumps(value, ensure_ascii=False)


def _json_list(items: list[str]) -> list[str]:
    """`items`, texts that each begin with ``,\\n    ``, as the pieces of a top-level list.

    The list is changed in place: the first item loses its comma, and the
    pieces are joined once, with the rest of the document.
    """
    if not items:
        return ["[]"]
    items[0] = "[" + items[0][1:]
    items.append("\n  ]")
    return items
