"""Seeded inputs and known answers for the mananets benchmark.

Everything here is plain data and plain Python: nets are JSON-ready
dicts, markings are dicts of counts, and every expected answer comes
from a closed form, from the construction of the input, or from the
small tuple-based reference search below. Nothing imports mananets, so
the answers are known independently of the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

WORKLOADS = ("explore", "laws", "trace-classes")

#: check-laws settings and the number of law entries its report then holds:
#: five comonad laws, two functor laws, one laxator entry per sample.
LAW_SAMPLES = 25
LAW_COUNT = 5 + 2 + LAW_SAMPLES

@dataclass
class Case:
    """One verdict: a CLI command or a trace_equivalent call, plus its answer.

    `kind` is reach, equiv, laws or pair. `argv` holds the CLI arguments,
    or for a pair the path of its document. `expected` holds what the
    verdict must report: node and edge counts, the law count, or whether
    the pair is equivalent.
    """

    kind: str
    label: str
    argv: list[str]
    expected: dict = field(default_factory=dict)


# -- names and documents ------------------------------------------------------


def _names(rng: random.Random, prefix: str, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        name = f"{prefix}{rng.getrandbits(24):06x}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def net_document(places, transitions, marking=None, pool=None, mana=None) -> dict:
    """A JSON net document; `transitions` maps name -> (pre, post) dicts."""
    doc = {"places": list(places),
           "transitions": {t: {"pre": dict(pre), "post": dict(post)}
                           for t, (pre, post) in transitions.items()}}
    if mana is not None:
        doc["mana"] = {t: {"consume": c, "produce": dict(p)} for t, (c, p) in mana.items()}
    if marking is not None:
        doc["marking"] = dict(marking)
    if pool is not None:
        doc["pool"] = dict(pool)
    return doc


def ring(rng: random.Random, n: int):
    """A token ring of n places, one token on each, with random names.

    Returns (places, transitions, marking) where transition i moves a
    token from place i to place i+1 (mod n), listed in ring order.
    """
    taken: set[str] = set()
    places = _names(rng, "p", n, taken)
    trans = _names(rng, "t", n, taken)
    transitions = {trans[i]: ({places[i]: 1}, {places[(i + 1) % n]: 1}) for i in range(n)}
    return places, transitions, {p: 1 for p in places}


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _ring_document(rng, places, transitions, marking, pool=None) -> dict:
    order = _shuffled(rng, transitions)
    return net_document(_shuffled(rng, places), {t: transitions[t] for t in order},
                        marking, pool)


#: The loop net used by the test suite: catalyst and feed loops of mana.
LOOP_PLACES = ("p1", "p2", "p3", "p4")
LOOP_TRANSITIONS = {
    "u1": ({"p1": 1}, {"p2": 1, "p3": 1}),
    "u2": ({"p2": 1}, {"p4": 1}),
    "u3": ({"p3": 1}, {}),
    "u4": ({"p4": 1}, {}),
}
LOOP_MANA = {
    "u1": (0, {}),
    "u2": (2, {"u4": 1}),
    "u3": (1, {"u3": 1}),
    "u4": (1, {"u2": 1, "u3": 1}),
}


# -- closed forms and the reference search -----------------------------------


def ring_reach_counts(n: int) -> tuple[int, int]:
    """Nodes and edges of the full reachability graph of the n-token n-ring.

    Every distribution of n tokens over n places is reachable, giving
    C(2n-1, n) markings; a marking has one edge per nonempty place, and
    the markings with a given place nonempty are the distributions of
    n-1 tokens, so there are n*C(2n-2, n-1) edges.
    """
    return comb(2 * n - 1, n), n * comb(2 * n - 2, n - 1)


def ring_mana_counts(n: int, k: int) -> tuple[int, int]:
    """Nodes and edges of the mana reachability graph of the n-ring, k mana each.

    A state is fixed by the firing-count vector f (pool = k - f), and
    place i then holds 1 + f[i-1] - f[i] tokens. The ring is a live
    marked graph, so every f in [0, k]^n with nonnegative tokens is
    reachable; transition i is enabled when f[i] < k and place i is
    nonempty.
    """
    nodes = edges = 0
    for f in itertools.product(range(k + 1), repeat=n):
        if all(f[i] <= f[i - 1] + 1 for i in range(n)):
            nodes += 1
            edges += sum(1 for i in range(n) if f[i] < k and f[i] <= f[i - 1])
    return nodes, edges


def reference_reach(places, transitions, marking, pool=None, mana=None):
    """Unbounded breadth-first search over tuple states.

    Returns (nodes, edges, max_depth, max_size). With `mana` given as
    {t: (consume, produce)}, a state also carries a pool over the
    transitions, as in the external mana semantics. The caller must pass
    a net whose reachable set is finite.
    """
    places = list(places)
    names = list(transitions)
    pidx = {p: i for i, p in enumerate(places)}
    tidx = {t: i for i, t in enumerate(names)}

    def vec(counts, index, width):
        out = [0] * width
        for symbol, c in counts.items():
            out[index[symbol]] += c
        return out

    pre = [vec(transitions[t][0], pidx, len(places)) for t in names]
    delta = [[b - a for a, b in zip(pre[i], vec(transitions[t][1], pidx, len(places)))]
             for i, t in enumerate(names)]
    if mana is None:
        use = [[0] * len(names) for _ in names]
        gain = [[0] * len(names) for _ in names]
        start_pool = ()
    else:
        use = [vec({t: mana[t][0]}, tidx, len(names)) for t in names]
        gain = [[g - u for u, g in zip(use[i], vec(mana[t][1], tidx, len(names)))]
                for i, t in enumerate(names)]
        start_pool = tuple(vec(pool or {}, tidx, len(names)))
    root = (tuple(vec(marking, pidx, len(places))), start_pool)

    depth = {root: 0}
    queue = deque([root])
    edges = 0
    while queue:
        state = queue.popleft()
        m, u = state
        for i in range(len(names)):
            if any(a > b for a, b in zip(pre[i], m)):
                continue
            if mana is not None and any(a > b for a, b in zip(use[i], u)):
                continue
            nm = tuple(a + d for a, d in zip(m, delta[i]))
            nu = tuple(a + d for a, d in zip(u, gain[i])) if mana is not None else ()
            edges += 1
            nxt = (nm, nu)
            if nxt not in depth:
                depth[nxt] = depth[state] + 1
                queue.append(nxt)
    max_size = max(sum(m) + sum(u) for m, u in depth)
    return len(depth), edges, max(depth.values()), max_size


# -- explore ------------------------------------------------------------------

#: One pass of the explore workload: (command, parameters, copies).
#: Ring sizes and pools are fixed, so a seed changes names, document
#: order, bounds beyond the needed ones and the verdict order, never the
#: amount of work. As many verdicts are cheaper than a 6-ring reach as
#: are dearer, so the median falls in the middle of the 6-ring cluster.
#: A pass holds one 8-ring verdict and takes about a seventh of a run, so
#: a run has fewer than eleven of them and the tail, the 11th-largest
#: verdict, falls near the top of the 7-ring and 6-ring-mana-2 cluster.
EXPLORE_MIX = (
    ("reach", 6, 40), ("reach", 7, 12), ("reach", 8, 1),
    ("equiv-ring", (4, 2), 8), ("equiv-ring", (5, 1), 8), ("equiv-ring", (6, 1), 8),
    ("equiv-ring", (5, 2), 8), ("equiv-ring", (6, 2), 8), ("equiv-ring", (7, 1), 8),
    ("equiv-loop", (3, 2, 1), 8), ("equiv-loop", (4, 2, 2), 8),
)


def explore_cases(rng: random.Random) -> list[tuple[Case, dict]]:
    out = []
    for command, param, copies in EXPLORE_MIX:
        for copy in range(copies):
            if command == "reach":
                n = param
                places, transitions, marking = ring(rng, n)
                doc = _ring_document(rng, places, transitions, marking)
                nodes, edges = ring_reach_counts(n)
                # Any depth past the ring's diameter reaches every marking.
                bounds = [str(n * n + rng.randrange(n)), str(n + rng.randrange(3))]
                case = Case("reach", f"reach-ring{n}", ["reach", "--depth", bounds[0],
                                                         "--max-tokens", bounds[1]],
                            {"nodes": nodes, "edges": edges})
            elif command == "equiv-ring":
                n, k = param
                places, transitions, marking = ring(rng, n)
                doc = _ring_document(rng, places, transitions, marking,
                                     {t: k for t in transitions})
                nodes, edges = ring_mana_counts(n, k)
                # Each firing spends one unit of mana, so paths have at most
                # n*k steps, and marking plus pool never exceeds n + n*k.
                case = Case("equiv", f"equiv-ring{n}-mana{k}",
                            ["equiv", "--depth", str(n * k + 1 + rng.randrange(3)),
                             "--max-tokens", str(n + n * k + rng.randrange(3))],
                            {"nodes": nodes, "edges": edges})
            else:
                tokens, u2, u4 = param
                marking = {"p1": tokens}
                pool = {"u2": u2, "u3": 1, "u4": u4}
                doc = net_document(LOOP_PLACES, LOOP_TRANSITIONS, marking, pool, LOOP_MANA)
                nodes, edges, max_depth, max_size = reference_reach(
                    LOOP_PLACES, LOOP_TRANSITIONS, marking, pool, LOOP_MANA)
                case = Case("equiv", f"equiv-loop{tokens}",
                            ["equiv", "--depth", str(max_depth + 1 + rng.randrange(3)),
                             "--max-tokens", str(max_size + rng.randrange(3))],
                            {"nodes": nodes, "edges": edges})
            case.label += f"-{copy}"
            out.append((case, doc))
    return out


# -- laws ---------------------------------------------------------------------

#: (places, transitions) of the random law documents. The sizes are a
#: fixed schedule, four documents of each, so that a seed changes arcs and
#: policies but not how large the nets are, and the median verdict is
#: taken over enough documents to vary little from seed to seed.
LAW_SIZES = tuple((p, t) for t in range(1, 6) for p in range(2, 7)) * 4


def _random_counts(rng: random.Random, symbols, max_total: int) -> dict:
    counts: dict[str, int] = {}
    for _ in range(rng.randint(0, max_total)):
        s = rng.choice(symbols)
        counts[s] = counts.get(s, 0) + 1
    return counts


def random_law_document(rng: random.Random, n_places: int, n_trans: int) -> dict:
    """A small net with a random generalized mana block and marking."""
    taken: set[str] = set()
    places = _names(rng, "p", n_places, taken)
    trans = _names(rng, "t", n_trans, taken)
    transitions = {t: (_random_counts(rng, places, 2), _random_counts(rng, places, 2))
                   for t in trans}
    mana = {t: (rng.randint(0, 2), _random_counts(rng, trans, 2)) for t in trans}
    return net_document(places, transitions, _random_counts(rng, places, 3), mana=mana)


def laws_cases(rng: random.Random) -> list[tuple[Case, dict]]:
    docs = [(f"laws-random-{p}x{t}-{i}", random_law_document(rng, p, t))
            for i, (p, t) in enumerate(LAW_SIZES)]
    docs.append(("laws-loop", net_document(LOOP_PLACES, LOOP_TRANSITIONS, {"p1": 2},
                                           mana=LOOP_MANA)))
    places, transitions, marking = ring(rng, 6)
    docs.append(("laws-ring6", _ring_document(rng, places, transitions, marking)))
    out = []
    for label, doc in docs:
        seed = rng.randrange(2**31)
        case = Case("laws", label,
                    ["check-laws", "--samples", str(LAW_SAMPLES), "--seed", str(seed)],
                    {"laws": LAW_COUNT, "seed": seed})
        out.append((case, doc))
    return out


# -- trace-classes ------------------------------------------------------------


def replays(transitions, marking: dict, steps) -> bool:
    """True when the firing sequence never takes a count below zero."""
    m = dict(marking)
    for t in steps:
        pre, post = transitions[t]
        for p, c in pre.items():
            if m.get(p, 0) < c:
                return False
            m[p] -= c
        for p, c in post.items():
            m[p] = m.get(p, 0) + c
    return True


def swap_built(rng: random.Random, transitions, marking, steps) -> list[str]:
    """A reordering of `steps` reached by legal adjacent swaps, as far away as any.

    A swap is legal when the swapped sequence still replays, so every
    sequence found by the breadth-first search over swaps is equivalent
    to `steps` by construction. The result is drawn from the last layer
    of that search, so the swap search of trace_equivalent must visit
    nearly the whole class before it finds it; the cost of a pair then
    depends on its shape and not on the seed.
    """
    start = tuple(steps)
    layer = [start]
    seen = {start}
    while True:
        nxt = []
        for seq in layer:
            for i in range(len(seq) - 1):
                if seq[i] == seq[i + 1]:
                    continue
                cand = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]
                if cand not in seen and replays(transitions, marking, cand):
                    seen.add(cand)
                    nxt.append(cand)
        if not nxt:
            return list(rng.choice(layer))
        layer = nxt


def independent_pair(rng: random.Random, counts) -> tuple[dict, list, list]:
    """Equivalent pair on a net of self-loop transitions that all commute."""
    taken: set[str] = set()
    places = _names(rng, "x", len(counts), taken)
    trans = _names(rng, "s", len(counts), taken)
    transitions = {t: ({p: 1}, {p: 1}) for t, p in zip(trans, places)}
    marking = {p: 1 for p in places}
    # Steps grouped by transition: the far end is then the unique
    # sequence with the groups reversed.
    steps = [t for t, c in zip(trans, counts) for _ in range(c)]
    doc = net_document(places, transitions, marking)
    return doc, steps, swap_built(rng, transitions, marking, steps)


def ring_pair(rng: random.Random, counts) -> tuple[dict, list, list]:
    """Equivalent pair on a ring: a random run firing transition i counts[i] times.

    The first trace is a random valid ordering of those firings; the
    second is swap-built from it.
    """
    places, transitions, marking = ring(rng, len(counts))
    steps = [t for t, c in zip(transitions, counts) for _ in range(c)]
    while True:
        rng.shuffle(steps)
        if replays(transitions, marking, steps):
            break
    doc = _ring_document(rng, places, transitions, marking)
    return doc, list(steps), swap_built(rng, transitions, marking, steps)


def mutex_pair(rng: random.Random, side_counts) -> tuple[dict, list, list]:
    """Non-equivalent pair: two critical sections in opposite lock order.

    Processes A and B each acquire and release one shared lock. The lock
    orders every A step before every B step in the first trace and the
    reverse in the second; no legal swap crosses that order, so the two
    traces are not equivalent although they share start, end and
    occurrence counts. Independent self-loop side steps are interleaved
    at random positions.
    """
    taken: set[str] = set()
    a0, a1, a2, b0, b1, b2, lock = _names(rng, "m", 7, taken)
    acq_a, rel_a, acq_b, rel_b = _names(rng, "c", 4, taken)
    side_places = _names(rng, "x", len(side_counts), taken)
    side = _names(rng, "s", len(side_counts), taken)
    transitions = {
        acq_a: ({a0: 1, lock: 1}, {a1: 1}), rel_a: ({a1: 1}, {a2: 1, lock: 1}),
        acq_b: ({b0: 1, lock: 1}, {b1: 1}), rel_b: ({b1: 1}, {b2: 1, lock: 1}),
    }
    transitions.update({s: ({p: 1}, {p: 1}) for s, p in zip(side, side_places)})
    marking = {a0: 1, b0: 1, lock: 1, **{p: 1 for p in side_places}}
    side_steps = [s for s, c in zip(side, side_counts) for _ in range(c)]

    def interleave(chain):
        steps = _shuffled(rng, side_steps)
        for i, slot in enumerate(sorted(rng.sample(range(len(steps) + len(chain)),
                                                   len(chain)))):
            steps.insert(slot, chain[i])
        return steps

    t1 = interleave([acq_a, rel_a, acq_b, rel_b])
    t2 = interleave([acq_b, rel_b, acq_a, rel_a])
    places = [a0, a1, a2, b0, b1, b2, lock, *side_places]
    return net_document(_shuffled(rng, places), transitions, marking), t1, t2


#: One pass of the trace-classes workload: (kind, counts, copies). The
#: counts say how often each transition fires; for a mutex net, how often
#: each side step fires. Every trace has 5 to 8 steps, at most
#: DEFAULT_EQUIVALENCE_BOUND, so the current search decides each pair, and
#: every class holds 5 to 560 traces, so no pair dominates a run. A
#: mutex pair's search visits its whole class, so its cost is fixed by its
#: shape; twelve copies of the 70-trace mutex shape sit between thirteen
#: cheaper and thirteen dearer pairs, so the median falls among them.
PAIR_MIX = (
    ("independent", (3, 2), 1), ("independent", (2, 2, 1), 1),
    ("independent", (3, 3), 1), ("independent", (2, 2, 2), 1),
    ("independent", (4, 3), 1), ("independent", (4, 4), 1),
    ("independent", (3, 2, 2), 2), ("independent", (3, 3, 2), 1),
    ("ring", (2, 2, 1), 1), ("ring", (2, 2, 2), 1), ("ring", (3, 2, 2), 1),
    ("ring", (2, 1, 1, 1), 1), ("ring", (2, 2, 1, 1), 1), ("ring", (1, 1, 1, 1, 1), 2),
    ("ring", (3, 3, 2), 1), ("ring", (2, 2, 2, 1), 1),
    ("mutex", (1,), 1), ("mutex", (2,), 1), ("mutex", (1, 1), 1), ("mutex", (4,), 12),
    ("mutex", (2, 1), 2), ("mutex", (1, 1, 1), 1), ("mutex", (3, 1), 1), ("mutex", (2, 2), 1),
)

_PAIR_BUILDERS = {"independent": independent_pair, "ring": ring_pair, "mutex": mutex_pair}


def pair_cases(rng: random.Random) -> list[tuple[Case, dict]]:
    out = []
    for kind, counts, copies in PAIR_MIX:
        for copy in range(copies):
            doc, t1, t2 = _PAIR_BUILDERS[kind](rng, counts)
            label = f"{kind}-{'-'.join(map(str, counts))}-{copy}"
            out.append((Case("pair", label, [], {"equivalent": kind != "mutex"}),
                        {"document": doc, "t1": t1, "t2": t2}))
    return out


# -- writing the inputs -------------------------------------------------------

_BUILDERS = {"explore": explore_cases, "laws": laws_cases, "trace-classes": pair_cases}


def generate(workload: str, seed: int) -> list[tuple[Case, dict]]:
    """The workload's cases with their documents, in seeded verdict order."""
    rng = random.Random(f"mananets-bench:{workload}:{seed}")
    cases = _BUILDERS[workload](rng)
    rng.shuffle(cases)
    return cases


def write_inputs(workload: str, seed: int, directory: Path) -> list[Case]:
    """Generate the workload and write one JSON document per case.

    CLI cases get the document path inserted after the command name; a
    pair case's argv is the path of its document.
    """
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for index, (case, doc) in enumerate(generate(workload, seed)):
        path = directory / f"{index:03d}-{case.label}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        if case.kind == "pair":
            case.argv = [str(path)]
        else:
            case.argv = [case.argv[0], str(path), *case.argv[1:]]
        cases.append(case)
    return cases


# -- checking verdicts ----------------------------------------------------------


def check(case: Case, code, output: str) -> tuple[bool, dict]:
    """Compare a CLI verdict with the case's known answer.

    Returns whether exit code, answer and sizes all match, and the sizes
    the verdict reported: reachability nodes and edges (both graphs for
    equiv) or laws checked.
    """
    try:
        report = json.loads(output)
        if case.kind == "reach":
            sizes = {"nodes": len(report["nodes"]), "edges": len(report["edges"])}
            ok = report["truncated"] is False and sizes == case.expected
        elif case.kind == "equiv":
            sizes = {"nodes": report["ext_nodes"] + report["int_nodes"],
                     "edges": report["ext_edges"] + report["int_edges"]}
            ok = (report["isomorphic"] is True
                  and report["ext_nodes"] == report["int_nodes"] == case.expected["nodes"]
                  and report["ext_edges"] == report["int_edges"] == case.expected["edges"])
        else:
            laws = report["laws"]
            sizes = {"laws": len(laws)}
            ok = (report["seed"] == case.expected["seed"]
                  and report["samples"] == LAW_SAMPLES
                  and len(laws) == case.expected["laws"]
                  and all(entry["status"] == "pass" for entry in laws))
    except (ValueError, KeyError, TypeError):
        return False, {}
    return ok and code == 0, sizes
