#!/usr/bin/env python3
"""Benchmark of mananets: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. Each workload runs in its own process, single-threaded, with
one client in a closed loop: the next verdict starts when the previous
one has finished. CLI verdicts call ``mananets.cli.main(argv)``
in-process with stdout captured, so process start-up stays out of the
timings. Every verdict is checked against a known answer
(``workloads.py``).

With ``--trace 0`` the run reports the end-to-end metrics, two of them
relative to a reference search timed before every verdict; with
``--trace 1`` it alternates untraced and traced passes over the inputs
and reports the per-layer metrics of ``layers.py``. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. ``--workload all`` runs every
workload in turn, each in a child process, and exits non-zero if any
of them does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run, spread over its timed seconds; setup_s is their median.
SETUP_REPEATS = 21
#: The tail percentile keeps at least this many samples beyond it.
TAIL_BEYOND = 10
#: Size of the token ring whose full reachability graph is the reference
#: search, timed before every verdict.
REFERENCE_RING = 4


# -- set-up -------------------------------------------------------------------


def import_library():
    """Import mananets and its CLI afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n == "mananets" or n.startswith("mananets.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("mananets")
    if Path(package.__file__).resolve().parent != (SRC / "mananets").resolve():
        raise ImportError(f"mananets was imported from {package.__file__}, not from {SRC}")
    return package, importlib.import_module("mananets.cli")


def load_pair(package, path: str):
    """The two traces of a trace-classes document, as library objects."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    doc = data["document"]
    net = package.Net.build(doc["places"], {t: (arcs["pre"], arcs["post"])
                                            for t, arcs in doc["transitions"].items()})
    initial = package.Multiset(doc["marking"])
    return (package.Trace(net, initial, tuple(data["t1"])),
            package.Trace(net, initial, tuple(data["t2"])))


def set_up(workload: str, seed: int, directory: Path):
    """Import the library, write the inputs, load the pairs; time it all."""
    start = time.perf_counter()
    package, cli = import_library()
    cases = workloads.write_inputs(workload, seed, directory)
    pairs = [load_pair(package, case.argv[0]) if case.kind == "pair" else None
             for case in cases]
    return time.perf_counter() - start, package, cli, cases, pairs


# -- verdicts -----------------------------------------------------------------


class Tally:
    """What a sequence of verdicts took and reported."""

    def __init__(self):
        self.seconds: list[float] = []
        self.references: list[float] = []
        self.failed = 0
        self.failures: list[str] = []
        self.nodes = self.edges = self.laws = self.pairs = 0
        self.out_bytes = 0

    @property
    def attempted(self) -> int:
        return len(self.seconds)


def report_error(case, tally: Tally):
    """Print the traceback of a verdict that raised, for the first few failures."""
    if len(tally.failures) < 5:
        print(f"perfbench: verdict {case.label} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def run_verdict(package, cli, case, pair, tally: Tally):
    """Run one verdict, timing only the library call, and record it."""
    if case.kind == "pair":
        start = time.perf_counter()
        try:
            answer = package.trace_equivalent(*pair)
        except Exception:  # a raised verdict is a failed verdict
            answer = None
            report_error(case, tally)
        elapsed = time.perf_counter() - start
        ok = answer is case.expected["equivalent"]
        tally.pairs += isinstance(answer, bool)
    else:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(case.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raised verdict is a failed verdict
            code = None
            report_error(case, tally)
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        ok, sizes = workloads.check(case, code, text)
        tally.nodes += sizes.get("nodes", 0)
        tally.edges += sizes.get("edges", 0)
        tally.laws += sizes.get("laws", 0)
        tally.out_bytes += len(text.encode("utf-8"))
    tally.seconds.append(elapsed)
    if not ok:
        tally.failed += 1
        if len(tally.failures) < 5:
            tally.failures.append(case.label)


def reference_net():
    """The REFERENCE_RING-token ring as arguments of ``workloads.reference_reach``."""
    n = REFERENCE_RING
    places = [f"p{i}" for i in range(n)]
    transitions = {f"t{i}": ({places[i]: 1}, {places[(i + 1) % n]: 1}) for i in range(n)}
    return places, transitions, {p: 1 for p in places}


def reference_seconds(net) -> float:
    """Time one reference search, with the cyclic collector off.

    The search is plain Python that does not touch mananets, so its time
    follows the speed the host gives the process and not the library.
    With the collector off, a collection of the library's heap cannot
    land in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        workloads.reference_reach(*net)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(package, cli, cases, pairs, tally: Tally) -> float:
    """One verdict per case, in order; returns the timed verdict seconds.

    Each verdict is preceded by a timed reference search.
    """
    start = len(tally.seconds)
    net = reference_net()
    for case, pair in zip(cases, pairs):
        tally.references.append(reference_seconds(net))
        run_verdict(package, cli, case, pair, tally)
    return sum(tally.seconds[start:])


# -- metrics ------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank.

    That is the (TAIL_BEYOND+1)-th largest sample; with fewer samples it
    is the largest one.
    """
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload: str, setup: list[float], tally: Tally, lines: list[str]) -> dict:
    """End-to-end metrics of a run.

    A verdict's time in ``ref`` units is its wall time divided by the
    reference search timed just before it. The host the benchmark was
    tuned on runs this process up to twice as fast in some stretches of
    seconds or minutes as in others, for the library and the reference
    search alike. The wall-time median and rate move with that, so they
    are printed on report lines only; their ratios to the reference do
    not, and those are the bounded metrics. The tail stays in wall time:
    it falls among the slowest verdicts, which ran at the contended
    speed, and dividing by one reference search each would add that
    search's own noise.
    """
    timed = sum(tally.seconds)
    tail_s, tail_pct = tail(tally.seconds)
    relative = [t / r for t, r in zip(tally.seconds, tally.references)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "verdict_p50_ref": (statistics.median(relative), "ref"),
        "verdict_tail_ms": (tail_s * 1000, "ms"),
        "verdicts_per_kref": (1000 * sum(tally.references) / timed, "1/kref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    lines.append(f"  verdict_tail_ms is p{tail_pct:.1f} of {tally.attempted} verdicts "
                 f"({TAIL_BEYOND} beyond it)")
    lines.append(f"verdict_p50_ms {statistics.median(tally.seconds) * 1000:.6g} ms")
    lines.append(f"verdicts_per_s {tally.attempted / timed:.6g} 1/s")
    lines.append(f"reference_p50_ms {statistics.median(tally.references) * 1000:.6g} ms")
    if workload == "explore":
        lines.append(f"nodes_per_s {tally.nodes / timed:.6g} 1/s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(package, cli, cases, pairs, seconds: float, tally: Tally,
              lines: list[str]) -> dict:
    """Alternate untraced and traced passes; report the traced layers.

    Counts come from the first traced pass and must repeat on every
    later one; times are medians over the traced passes.
    """
    trace = layers.LayerTrace()
    untraced = traced = 0.0
    runs: list[dict] = []
    while not runs or untraced + traced < seconds:
        untraced += run_pass(package, cli, cases, pairs, tally)
        before = tally.out_bytes
        trace.install()
        try:
            traced += run_pass(package, cli, cases, pairs, tally)
        finally:
            trace.uninstall()
        run = trace.metrics()
        run["documents.out_bytes"] = tally.out_bytes - before
        runs.append(run)
    metrics = {}
    for name, first in runs[0].items():
        if name.endswith(("_ms", ".ms")):
            metrics[name] = (statistics.median(r[name] for r in runs), "ms")
        else:
            if any(r[name] != first for r in runs):
                lines.append(f"  {name} differs between traced passes")
            metrics[name] = (first, "bytes" if name.endswith("_bytes") else "count")
    metrics["trace.overhead_share"] = (1 - untraced / traced, "share")
    lines.append(f"traced passes {len(runs)}, {len(cases)} verdicts each")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# -- entry points ---------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    if not (SRC / "mananets" / "__init__.py").is_file():
        print(f"perfbench: no mananets sources under {SRC}", file=sys.stderr)
        return 2
    directory = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        tally = Tally()
        lines = [f"workload {workload} seed {seed} python {platform.python_version()} "
                 f"nproc {os.cpu_count()} trace {int(traced)}"]
        if traced:
            _, package, cli, cases, pairs = set_up(workload, seed, directory)
            gc.collect()
            metrics = per_layer(package, cli, cases, pairs, seconds, tally, lines)
        else:
            # The set-ups are spread evenly over the timed seconds, so that
            # their median sees the same mix of host speeds as the verdicts.
            # Each one writes the same inputs again; the passes that follow
            # use the library it imported.
            setup: list[float] = []
            passes = 0
            timed = 0.0
            while timed < seconds:
                while len(setup) < SETUP_REPEATS and timed >= len(setup) * seconds / SETUP_REPEATS:
                    elapsed, package, cli, cases, pairs = set_up(workload, seed, directory)
                    setup.append(elapsed)
                    gc.collect()
                timed += run_pass(package, cli, cases, pairs, tally)
                passes += 1
            lines.append(f"{passes} passes of {len(cases)} verdicts, {len(setup)} set-ups")
            metrics = end_to_end(workload, setup, tally, lines)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    lines.append(f"sizes: nodes {tally.nodes} edges {tally.edges} laws {tally.laws} "
                 f"pairs {tally.pairs}")
    lines.append(f"failed_share {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed} of {tally.attempted})"
                 + (f" first: {', '.join(tally.failures)}" if tally.failures else ""))
    print("\n".join(lines))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    status = 0
    for workload in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
