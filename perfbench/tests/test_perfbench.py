"""Tests of the benchmark's own generators, known answers and tracing.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import gc
import json
import sys
from collections import deque
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def library():
    return run.import_library()


def swap_closure(transitions, marking, steps):
    """Every sequence reachable from `steps` by legal adjacent swaps."""
    start = tuple(steps)
    seen = {start}
    queue = deque([start])
    while queue:
        seq = queue.popleft()
        for i in range(len(seq) - 1):
            cand = seq[:i] + (seq[i + 1], seq[i]) + seq[i + 2:]
            if cand not in seen and workloads.replays(transitions, marking, cand):
                seen.add(cand)
                queue.append(cand)
    return seen


def arcs_of(doc):
    return {t: (a["pre"], a["post"]) for t, a in doc["transitions"].items()}


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_written_inputs_are_identical_per_seed(workload, tmp_path):
    for name in ("a", "b"):
        workloads.write_inputs(workload, 3, tmp_path / name)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_changes_names_not_sizes():
    def sizes(seed):
        return sorted((case.label, sorted(case.expected.items()))
                      for case, _ in workloads.generate("explore", seed))
    assert sizes(1) == sizes(2)


# -- known answers ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ring_reach_closed_form_matches_enumeration(n):
    places = [f"p{i}" for i in range(n)]
    transitions = {f"t{i}": ({places[i]: 1}, {places[(i + 1) % n]: 1}) for i in range(n)}
    nodes, edges, _, _ = workloads.reference_reach(places, transitions, {p: 1 for p in places})
    assert workloads.ring_reach_counts(n) == (nodes, edges)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (5, 2), (4, 3)])
def test_ring_mana_closed_form_matches_enumeration(n, k):
    places = [f"p{i}" for i in range(n)]
    names = [f"t{i}" for i in range(n)]
    transitions = {names[i]: ({places[i]: 1}, {places[(i + 1) % n]: 1}) for i in range(n)}
    mana = {t: (1, {}) for t in names}
    nodes, edges, _, _ = workloads.reference_reach(
        places, transitions, {p: 1 for p in places}, {t: k for t in names}, mana)
    assert workloads.ring_mana_counts(n, k) == (nodes, edges)


def test_pair_answers_match_swap_closure():
    for case, data in workloads.generate("trace-classes", 11):
        transitions = arcs_of(data["document"])
        marking = data["document"]["marking"]
        assert workloads.replays(transitions, marking, data["t1"])
        assert workloads.replays(transitions, marking, data["t2"])
        assert sorted(data["t1"]) == sorted(data["t2"])
        assert 5 <= len(data["t1"]) <= 8
        closure = swap_closure(transitions, marking, data["t1"])
        assert (tuple(data["t2"]) in closure) is case.expected["equivalent"], case.label


def test_explore_answers_match_the_library(library, tmp_path):
    package, cli = library
    cases = workloads.write_inputs("explore", 5, tmp_path)
    small = [c for c in cases if c.label.startswith(("reach-ring6", "equiv-loop", "equiv-ring5"))]
    tally = run.Tally()
    run.run_pass(package, cli, small, [None] * len(small), tally)
    assert tally.failed == 0
    assert tally.attempted == len(small)


# -- failures are counted -----------------------------------------------------


def test_planted_wrong_answers_are_counted(library, tmp_path):
    package, cli = library
    cases = workloads.write_inputs("explore", 2, tmp_path / "explore")
    reach = next(c for c in cases if c.label.startswith("reach-ring6"))
    reach.expected = {**reach.expected, "nodes": reach.expected["nodes"] - 1}
    loop = next(c for c in cases if c.label.startswith("equiv-loop"))
    pair_cases = workloads.write_inputs("trace-classes", 2, tmp_path / "pairs")[:2]
    pair_cases[0].expected = {"equivalent": not pair_cases[0].expected["equivalent"]}
    bad_args = workloads.Case("laws", "bad-args", ["check-laws", "no-such-file.json"],
                              {"laws": workloads.LAW_COUNT, "seed": 0})
    chosen = [reach, loop, *pair_cases, bad_args, pair_cases[1]]
    pairs = [run.load_pair(package, c.argv[0]) if c.kind == "pair" else None for c in chosen]
    pairs[-1] = (pairs[-1][0], None)  # trace_equivalent raises on this one
    tally = run.Tally()
    run.run_pass(package, cli, chosen, pairs, tally)
    assert tally.attempted == 6
    assert tally.failed == 4
    assert tally.failures == [reach.label, pair_cases[0].label, "bad-args", pair_cases[1].label]
    assert tally.pairs == 2


def test_check_rejects_wrong_sizes_and_codes():
    case = workloads.Case("equiv", "e", [], {"nodes": 3, "edges": 4})
    report = {"isomorphic": True, "ext_nodes": 3, "int_nodes": 3,
              "ext_edges": 4, "int_edges": 4, "first_discrepancy": None}
    assert workloads.check(case, 0, json.dumps(report)) == (True, {"nodes": 6, "edges": 8})
    assert not workloads.check(case, 1, json.dumps(report))[0]
    assert not workloads.check(case, 0, json.dumps({**report, "int_edges": 5}))[0]
    assert not workloads.check(case, 0, "not json")[0]


# -- metrics and tracing ------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    value, percentile = run.tail(samples)
    assert value == 89.0
    assert sum(1 for s in samples if s > value) == 10
    assert percentile == 90.0
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_relative_metrics_divide_by_the_reference_search():
    tally = run.Tally()
    tally.seconds = [0.002, 0.004, 0.030, 0.006]
    tally.references = [0.001, 0.002, 0.010, 0.002]
    metrics = run.end_to_end("laws", [0.5, 0.1, 0.2], tally, [])
    assert metrics["verdict_p50_ref"] == {"value": 2.5, "unit": "ref"}
    assert metrics["verdicts_per_kref"]["value"] == pytest.approx(1000 * 0.015 / 0.042)
    assert metrics["verdict_tail_ms"]["value"] == pytest.approx(30.0)
    assert metrics["setup_s"]["value"] == 0.2


def test_reference_search_leaves_the_collector_as_it_was():
    net = run.reference_net()
    assert workloads.reference_reach(*net)[:2] == workloads.ring_reach_counts(run.REFERENCE_RING)
    assert run.reference_seconds(net) > 0 and gc.isenabled()
    gc.disable()
    try:
        run.reference_seconds(net)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_trace_counts_repeat_and_originals_return(library, tmp_path):
    package, cli = library
    cases = [c for c in workloads.write_inputs("laws", 4, tmp_path)][:3]
    execution = sys.modules["mananets.execution"]
    originals = (execution.explore, cli.reach, package.Multiset.__add__)
    trace = layers.LayerTrace()
    runs = []
    for _ in range(2):
        trace.install()
        try:
            tally = run.Tally()
            run.run_pass(package, cli, cases, [None] * len(cases), tally)
        finally:
            trace.uninstall()
        assert tally.failed == 0
        runs.append(trace.metrics())
    assert (execution.explore, cli.reach, package.Multiset.__add__) == originals
    counts = [{k: v for k, v in r.items() if not k.endswith(("_ms", ".ms"))} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["multiset.ops"] > 0
    assert counts[0]["execution.trace_equivalent_calls"] > 0
    assert counts[0]["internal.construct_calls"] > 0
    assert counts[0]["execution.nodes"] == 0
    assert runs[0]["cli.self_ms"] > 0
