"""Line-coverage gate: every executable line of src/scool runs under tier-1.

    PYTHONPATH=src python tests/coverage_gate.py

A ``sys.settrace`` collector (``threading.settrace`` for any thread a test
starts) is installed before ``scool`` is imported, then the tier-1 suite runs
in this process. A line is executable when a code object compiled from its
file lists it in ``co_lines()``. The gate fails on any executable line that
no test ran and that ALLOWED does not name with its reason. Lines that only
subprocesses run (``python -m scool.cli``) count as unhit: the collector sees
this process alone.

Pytest does not collect this file: its name does not match ``test_*.py``.
Exit status: pytest's own when the suite fails, 1 for unhit lines, else 0.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scool"

# "file:line" relative to src/scool, each with the reason no test runs it
ALLOWED = {
    "cli.py:104": "runs only as `python -m scool.cli`",
}


def executable_lines(path: Path) -> set[int]:
    """Every line number that a code object compiled from ``path`` lists."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None and line > 0)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def main() -> int:
    inside, hits = {}, set()  # inside: co_filename -> whether it is a file of src/scool

    def local(frame, event, arg):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        # a 'call' event reports the first line; the local tracer every line after it
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = Path(filename).resolve().is_relative_to(SRC)
        if not inside[filename]:
            return None
        hits.add((filename, frame.f_lineno))
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", str(SRC.parent.parent / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return code
    ran = {(str(Path(filename).resolve()), line) for filename, line in hits}
    total, unhit = 0, []
    for path in sorted(SRC.rglob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        name = path.relative_to(SRC).as_posix()
        unhit += [f"{name}:{n}" for n in sorted(lines) if (str(path), n) not in ran]
    stale = sorted(set(ALLOWED) - set(unhit))
    missed = [line for line in unhit if line not in ALLOWED]
    print(f"coverage gate: {total - len(unhit)} of {total} executable lines of src/scool ran; "
          f"{len(unhit)} unhit, {len(ALLOWED)} allowed")
    for line in missed:
        print(f"unhit: {line}")
    for line in stale:
        print(f"allowed but hit (drop it from ALLOWED): {line}")
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
