"""Line coverage of ``src/mananets`` under the tier-1 tests, with the standard library only.

The script runs pytest in this process on ``tests/`` with a
``sys.settrace`` tracer that records every line run in a module of
``src/mananets``. A module's executable lines are the line numbers of
every code object compiled from its source (``co_lines()``). It prints
each executable line that never ran, with the function it belongs to.
A line that is known to stay unreached is listed in :data:`UNREACHED`
with the reason; the listing marks it as known. Run it by hand, from
anywhere, with pytest and Hypothesis installed::

    python3 mutation/coverage.py            # tier-1 with the tracer on
    python3 mutation/coverage.py -k laws    # extra arguments go to pytest

It takes two to three times as long as tier-1 does without the tracer. The
exit status is 0 when the tests pass, every unreached line is listed and
every listed line is still unreached; 1 otherwise. A run with extra
pytest arguments leaves more lines unreached, so read its listing, not
its status.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "mananets"

#: Lines that tier-1 never runs, by module file, owning function and line
#: text (stripped), with the reason each stays unreached. One entry covers
#: every unreached line of that function with that text.
UNREACHED: dict[tuple[str, str, str], str] = {
    ('cli.py', '<module>',
     'sys.exit(main())'):
        "the CLI runs as a script only in subprocesses, which are not traced",
}


def executable_lines(path: Path) -> dict[int, str]:
    """``{line: qualified name of the code that owns it}`` for a module."""
    owners: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line is not None:
                owners.setdefault(line, name)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owners


def run_traced(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer: its exit code and the lines run per file."""
    prefix = str(PACKAGE) + os.sep
    ran: dict[str, set[int]] = {}
    local_tracers = {}  # one per file, each adding to that file's line set

    def local_tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        local = local_tracers.get(filename)
        if local is None:
            if not filename.startswith(prefix):
                return None
            local = local_tracers[filename] = local_tracer(ran.setdefault(filename, set()))
        local(frame, "line", arg)  # the call itself runs the frame's first line
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str]) -> int:
    code, ran = run_traced(argv or ["tests"])
    used = set()
    unlisted = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        run = ran.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        for line, owner in sorted(executable_lines(path).items()):
            if line in run:
                continue
            key = (path.name, owner, source[line - 1].strip())
            reason = UNREACHED.get(key)
            if reason is None:
                unlisted += 1
                reason = "NOT LISTED"
            used.add(key)
            print(f"{path.relative_to(ROOT)}:{line}  {owner}  {key[2]}\n    {reason}")
    stale = [key for key in UNREACHED if key not in used]
    for name, owner, text in stale:
        print(f"STALE  {name}  {owner}  {text}: listed, but it ran or is gone")
    print(f"pytest exit code {code}; {unlisted} unreached lines not listed; "
          f"{len(stale)} stale entries")
    return 0 if code == 0 and not unlisted and not stale else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
