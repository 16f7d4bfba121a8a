"""Command-line interface.

Every command reads a net document (JSON or reaction DSL) as its first
argument, writes machine-readable JSON to stdout (or to ``-o FILE``) and
diagnostics to stderr. Exit codes: 0 ok, 1 check failed, 2 usage or
document error. A net that is not well formed is a document error for
every command but ``validate``, which reports its violations as data.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from .documents import (NetDocument, canonical_json, emit_graph_json, emit_json,
                        parse_document, state_to_json_dict)
from .dot import export_dot
from .equivalence import (check_equivalence, internalize, mana_net_from_built,
                          object_to_state, state_to_object)
from .errors import MananetsError, NotEnabledError
# ``reach`` stays importable from this module: the benchmark's tests read it.
from .execution import TokenGame, explore, fire, reach, run_trace, simulate  # noqa: F401
from .external import ManaState, check_functor_laws, check_laxator_naturality, mana_simulate
from .internal import ManaPolicy, check_comonad_laws
from .multiset import EMPTY
from .net import validate_net
from .sampling import (random_marking, random_net_morphism, random_state,
                       random_trace)

OK, CHECK_FAILED, USAGE_ERROR = 0, 1, 2


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _diag(message: str):
    print(f"mananets: {message}", file=sys.stderr)


def _policy_for(doc: NetDocument) -> ManaPolicy:
    return doc.policy if doc.policy is not None else ManaPolicy.plain(doc.net)


def _initial_state(doc: NetDocument) -> ManaState:
    return ManaState(doc.marking if doc.marking is not None else EMPTY,
                     doc.pool if doc.pool is not None else EMPTY)


def cmd_validate(doc: NetDocument, args) -> int:
    violations = validate_net(doc.net)
    _emit(canonical_json({"violations": [v.to_json_dict() for v in violations]}), args.output)
    return OK if not violations else CHECK_FAILED


def cmd_fire(doc: NetDocument, args) -> int:
    if doc.marking is None:
        _diag("document has no marking to fire from")
        return USAGE_ERROR
    try:
        marking = fire(doc.net, doc.marking, args.transition)
    except NotEnabledError as err:
        _diag(str(err))
        return CHECK_FAILED
    _emit(canonical_json({"marking": marking.as_dict()}), args.output)
    return OK


def cmd_run(doc: NetDocument, args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    if args.mana:
        policy = _policy_for(doc)
        initial = _initial_state(doc)
        steps, final = mana_simulate(doc.net, policy, initial, args.steps, rng)
        out = {"initial": state_to_json_dict(initial),
               "steps": list(steps),
               "final": state_to_json_dict(final)}
    else:
        initial = doc.marking if doc.marking is not None else EMPTY
        trace = simulate(doc.net, initial, args.steps, rng)
        out = {"initial": initial.as_dict(),
               "steps": list(trace.steps),
               "final": run_trace(trace).as_dict()}
    _emit(canonical_json(out), args.output)
    return OK


def cmd_reach(doc: NetDocument, args) -> int:
    initial = doc.marking if doc.marking is not None else EMPTY
    game = TokenGame(doc.net, initial)
    graph = explore(game, game.vector(initial),
                    depth_bound=args.depth, token_bound=args.max_tokens)
    _emit(emit_graph_json(game, graph, args.depth, args.max_tokens), args.output)
    return OK


def cmd_internalize(doc: NetDocument, args) -> int:
    mn = internalize(doc.net, _policy_for(doc))
    marking = None
    if doc.marking is not None or doc.pool is not None:
        marking = state_to_object(mn, _initial_state(doc))
    _emit(emit_json(NetDocument(mn.built, marking=marking)), args.output)
    return OK


def cmd_externalize(doc: NetDocument, args) -> int:
    if doc.policy is not None:
        _diag("a built-net document must not carry a mana block")
        return USAGE_ERROR
    if doc.pool is not None:
        _diag("a built-net document must not carry a pool; its mana lives on places")
        return USAGE_ERROR
    mn = mana_net_from_built(doc.net)
    base, policy = mn.base, mn.policy
    marking = pool = None
    if doc.marking is not None:
        state = object_to_state(mn, doc.marking)
        marking, pool = state.marking, state.pool
    _emit(emit_json(NetDocument(base, policy, marking, pool)), args.output)
    return OK


def cmd_check_laws(doc: NetDocument, args) -> int:
    modes = [name for name, chosen in
             (("comonad", args.comonad), ("functor", args.functor),
              ("laxator", args.laxator)) if chosen]
    if not modes:
        modes = ["comonad", "functor", "laxator"]
    rng = random.Random(args.seed)
    policy = _policy_for(doc)
    net = doc.net

    laws = []
    notes = []
    if "comonad" in modes:
        morphisms = [random_net_morphism(rng, net) for _ in range(args.samples)]
        report = check_comonad_laws(net, morphisms)
        notes.extend(report.notes)
        laws.extend(report.to_json_list())
    if "functor" in modes:
        traces = _sample_traces(rng, doc, args.samples)
        report = check_functor_laws(net, policy, traces)
        laws.extend(report.to_json_list())
    if "laxator" in modes:
        samples = [(random_trace(rng, net, random_marking(rng, net, 4)),
                    random_trace(rng, net, random_marking(rng, net, 4)),
                    random_state(rng, net).pool,
                    random_state(rng, net).pool)
                   for _ in range(args.samples)]
        report = check_laxator_naturality(net, policy, samples)
        laws.extend(report.to_json_list())

    _emit(canonical_json({"seed": args.seed, "samples": args.samples,
                          "notes": notes, "laws": laws}), args.output)
    passed = all(entry["status"] == "pass" for entry in laws)
    return OK if passed else CHECK_FAILED


def _sample_traces(rng, doc: NetDocument, count: int):
    traces = []
    for _ in range(count):
        if doc.marking is not None and rng.random() < 0.5:
            initial = doc.marking
        else:
            initial = random_marking(rng, doc.net, 4)
        traces.append(random_trace(rng, doc.net, initial))
    return traces


def cmd_equiv(doc: NetDocument, args) -> int:
    report = check_equivalence(doc.net, _policy_for(doc), _initial_state(doc),
                               args.depth, args.max_tokens)
    _emit(canonical_json(report.to_json_dict()), args.output)
    return OK if report.isomorphic else CHECK_FAILED


def cmd_export_dot(doc: NetDocument, args) -> int:
    _emit(export_dot(doc), args.output)
    return OK


def _count(text: str) -> int:
    """An argparse type: a whole number that is not negative."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mananets",
        description="Petri nets whose transitions burn (and brew) mana.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("document", help="net document path (JSON or reaction DSL)")
        p.add_argument("-o", "--output", help="write machine output to a file")
        p.set_defaults(func=func)
        return p

    command("validate", cmd_validate, "check the net invariants")

    p = command("fire", cmd_fire, "fire one transition from the document's marking")
    p.add_argument("--transition", required=True)

    p = command("run", cmd_run, "fire repeatedly, lexicographic or seeded choice")
    p.add_argument("--steps", type=_count, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--seed", type=int, default=None,
                       help="choose among enabled transitions at random")
    group.add_argument("--policy", choices=["lex"], default=None,
                       help="deterministic choice by transition name (the default)")
    p.add_argument("--mana", action="store_true",
                   help="respect the document's mana policy and pool")

    p = command("reach", cmd_reach, "bounded reachability graph")
    p.add_argument("--depth", type=_count, required=True)
    p.add_argument("--max-tokens", type=_count, required=True)

    command("internalize", cmd_internalize, "build the mana places into the net")
    command("externalize", cmd_externalize, "recover base net and policy from a built net")

    p = command("check-laws", cmd_check_laws, "verify comonad/functor/laxator laws")
    p.add_argument("--comonad", action="store_true")
    p.add_argument("--functor", action="store_true")
    p.add_argument("--laxator", action="store_true")
    p.add_argument("--samples", type=_count, default=25)
    p.add_argument("--seed", type=int, default=0)

    p = command("equiv", cmd_equiv, "compare external and internal reachability")
    p.add_argument("--depth", type=_count, required=True)
    p.add_argument("--max-tokens", type=_count, required=True)

    command("export-dot", cmd_export_dot, "render the document as DOT")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import, and reused by every later call.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = Path(args.document).read_bytes()
    except OSError as err:
        _diag(f"cannot read {args.document}: {err.strerror or err}")
        return USAGE_ERROR
    try:
        doc = parse_document(data)
    except MananetsError as err:
        _diag(str(err))
        return USAGE_ERROR
    if args.command != "validate":
        problems = validate_net(doc.net)
        if problems:
            first = problems[0]
            where = f" ({first.detail})" if first.detail else ""
            _diag(f"net is not well formed: {first.kind} {first.subject}{where}")
            return USAGE_ERROR
    try:
        return args.func(doc, args)
    except MananetsError as err:
        _diag(str(err))
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
