"""Check every CLI golden byte for byte under several string-hash seeds.

Runs each command below with the given interpreter, as
``EXE -m mananets.cli ...`` on the checkout's ``src``, once for each
``PYTHONHASHSEED`` in 0, 1 and 2, and compares its stdout with the
checked-in file under ``tests/data``. Builds walk sets, and equiv
compares sets of states when the two games differ on their steps, so
reports must not depend on the string-hash order. Then it runs every
``demos/*.py`` once with the same interpreter and requires exit status
0, and a 1-s ``perfbench/run.py`` smoke run of each workload, which
must exit 0 and report no failed verdict. Standard library only, so it
runs on an interpreter without pytest::

    python3 tests/goldens.py --python python3.12

The exit status is 0 when every output matched, every demo ran and
every smoke run passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"
SRC = HERE.parent / "src"
DEMOS = HERE.parent / "demos"
BENCH = HERE.parent / "perfbench" / "run.py"
SMOKE_WORKLOADS = ("explore", "laws", "trace-classes")
HASH_SEEDS = ("0", "1", "2")

#: (golden file, command line), the net document being the second word.
GOLDENS = [
    ("ring6.equiv", ["equiv", "ring6.json", "--depth", "8", "--max-tokens", "12"]),
    ("loop.equiv", ["equiv", "loop.json", "--depth", "10", "--max-tokens", "10"]),
    *[(f"pump.{command}-{bound}",
       [command, "pump.json", "--depth", "6", "--max-tokens", str(bound)])
      for bound in (127, 128) for command in ("reach", "equiv")],
    ("ring6.reach", ["reach", "ring6.json", "--depth", "4", "--max-tokens", "6"]),
    ("ring6.check-laws", ["check-laws", "ring6.json", "--samples", "5", "--seed", "0"]),
    ("loop.reach", ["reach", "loop.json", "--depth", "12", "--max-tokens", "8"]),
    ("loop.check-laws", ["check-laws", "loop.json", "--samples", "5", "--seed", "0"]),
    ("loop.check-laws-25", ["check-laws", "loop.json", "--samples", "25", "--seed", "7"]),
    ("mixed.check-laws-25", ["check-laws", "mixed.json", "--samples", "25", "--seed", "20"]),
    ("ring6.run", ["run", "ring6.json", "--steps", "12", "--seed", "3"]),
    ("loop.run", ["run", "loop.json", "--steps", "12", "--seed", "3", "--mana"]),
    ("ring6.run-lex", ["run", "ring6.json", "--steps", "12"]),
    ("loop.run-lex", ["run", "loop.json", "--steps", "12", "--mana"]),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--python", default=sys.executable,
                        help="interpreter that runs the CLI (default: this one)")
    args = parser.parse_args(argv)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    bad = 0
    for seed in HASH_SEEDS:
        for golden, (command, document, *options) in GOLDENS:
            done = subprocess.run(
                [args.python, "-m", "mananets.cli", command, str(DATA / document), *options],
                env={**env, "PYTHONHASHSEED": seed}, capture_output=True)
            if done.returncode != 0 or done.stdout != (DATA / f"{golden}.json").read_bytes():
                print(f"DIFFERS  {golden} (PYTHONHASHSEED={seed}, exit {done.returncode})")
                sys.stdout.write(done.stderr.decode("utf-8", "replace"))
                bad += 1
    print(f"{len(HASH_SEEDS) * len(GOLDENS) - bad} of {len(HASH_SEEDS) * len(GOLDENS)} "
          f"golden outputs match")
    demos = sorted(DEMOS.glob("*.py"))
    failed = 0
    for demo in demos:
        done = subprocess.run([args.python, str(demo)], env=env, capture_output=True)
        if done.returncode != 0:
            print(f"FAILED   demo {demo.name} (exit {done.returncode})")
            sys.stdout.write(done.stderr.decode("utf-8", "replace"))
            failed += 1
    print(f"{len(demos) - failed} of {len(demos)} demos exit 0")
    smoked = 0
    for workload in SMOKE_WORKLOADS:
        done = subprocess.run([args.python, str(BENCH), "--workload", workload,
                               "--seed", "1", "--seconds", "1"], capture_output=True)
        lines = done.stdout.decode("utf-8", "replace").splitlines()
        try:
            failed_verdicts = json.loads(lines[-1])["failed"]
        except (IndexError, ValueError, KeyError):
            failed_verdicts = None
        if done.returncode == 0 and failed_verdicts == 0:
            smoked += 1
        else:
            print(f"FAILED   smoke run {workload} (exit {done.returncode}, "
                  f"failed verdicts {failed_verdicts})")
            sys.stdout.write(done.stderr.decode("utf-8", "replace"))
    print(f"{smoked} of {len(SMOKE_WORKLOADS)} perfbench smoke runs report no failure")
    return 1 if bad or failed or smoked < len(SMOKE_WORKLOADS) else 0


if __name__ == "__main__":
    sys.exit(main())
