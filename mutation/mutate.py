"""Run the kept source mutants and report any that the tests no longer kill.

Each mutant in :mod:`mutants` names a file, an exact old text, the new
text that replaces it and the test node ids that must fail once it is
applied. The runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory, checks that the listed tests pass there
unchanged, then applies one mutant at a time, runs its node ids with
pytest and puts the file back. A mutant survives when any of its node
ids passes. An old text that no longer occurs exactly once is an error,
so a refactor that moves mutated code has to update its mutants.

Run from anywhere, with pytest and Hypothesis installed::

    python3 mutation/mutate.py

The exit status is 0 when every mutant was killed, 1 otherwise.
This module is also the pytest plugin that records which tests failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COPIED = ("src", "tests", "pyproject.toml")
#: Where the plugin below writes the node id of each failed test.
FAILED_ENV = "MUTATION_FAILED_FILE"


def pytest_runtest_logreport(report):
    """Pytest hook: append the node id of a failed test to the named file."""
    if report.failed:
        with open(os.environ[FAILED_ENV], "a", encoding="utf-8") as out:
            out.write(report.nodeid + "\n")


def failed_tests(workdir: Path, node_ids: list[str]) -> tuple[int, set[str], str]:
    """Run `node_ids` in `workdir`: pytest's exit code, the failed ids, its output."""
    record = workdir / "failed.txt"
    record.write_text("")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(workdir / "src"), str(HERE)]))
    env[FAILED_ENV] = str(record)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutate",
         "--hypothesis-seed=0", *node_ids],
        cwd=workdir, env=env, capture_output=True, text=True)
    failed = set(record.read_text(encoding="utf-8").split())
    return done.returncode, failed, done.stdout + done.stderr


def main() -> int:
    sys.path.insert(0, str(HERE))
    from mutants import MUTANTS

    with tempfile.TemporaryDirectory(prefix="mananets-mutants-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, workdir / name)

        every_id = sorted({node for m in MUTANTS for node in m["kill"]})
        code, failed, output = failed_tests(workdir, every_id)
        if code != 0:
            print(output)
            print("the unmutated copy fails its tests; no mutant was run")
            return 1

        bad = 0
        for mutant in MUTANTS:
            path = workdir / mutant["file"]
            original = path.read_text(encoding="utf-8")
            found = original.count(mutant["old"])
            if found != 1:
                print(f"STALE     {mutant['name']}: old text occurs {found} times "
                      f"in {mutant['file']}")
                bad += 1
                continue
            path.write_text(original.replace(mutant["old"], mutant["new"]), encoding="utf-8")
            try:
                code, failed, output = failed_tests(workdir, mutant["kill"])
            finally:
                path.write_text(original, encoding="utf-8")
            passed = [node for node in mutant["kill"] if node not in failed]
            if code not in (0, 1):
                print(output)
                print(f"ERROR     {mutant['name']}: pytest exited with {code}")
                bad += 1
            elif passed:
                print(f"SURVIVED  {mutant['name']}: passed {', '.join(passed)}")
                bad += 1
            else:
                print(f"killed    {mutant['name']}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
