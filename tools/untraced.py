"""Line trace of ``src/frachelm``: which executable lines no run reaches, and
which only the tests reach.

    python tools/untraced.py

Run from any directory; paths are taken from this file.  A ``sys.settrace``
line tracer, limited to frames of ``src/frachelm``, is on from before the
library's first import, so module-level lines count, over three runs in this
process:

* ``tests``: the tier-1 suite (``pytest tests``);
* ``cli``: ``frachelm <command> --config docs/configs/<command>.json --out
  os.devnull`` for every command with a config there;
* ``bench``: ``warm_up`` and two units of each ``bench/workloads.py``
  workload at seed 7, untimed (``bench/`` is only read).

Each run imports the package afresh.  It prints every executable line that
no run reached, then every line that only the tests reached.

The executable lines are the line starts of every code object compiled from
the module sources, less the first line of a nested one (its ``def`` or
``lambda`` line, which the enclosing code executes).  The standard library
is enough: ``coverage`` is not needed.  Exits 1 if a run fails.
"""

from __future__ import annotations

import dis
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frachelm"
SEED = 7
UNITS = 2


def executable_lines(path):
    """Line numbers that start a statement's bytecode in the module source."""
    lines = set()

    def walk(code, nested):
        for offset, line in dis.findlinestarts(code):
            # line 0 (or None) marks the compiler's own instructions
            if line and not (nested and offset == 0 and line == code.co_firstlineno):
                lines.add(line)
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                walk(const, True)

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), False)
    return lines


class LineTracer:
    """Records (file, line) of every line event in a frame of the package,
    into the set of the run in progress."""

    def __init__(self, prefix):
        self.prefix = prefix
        self.runs = {}
        self.seen = None
        self._ours = {}

    def run(self, name):
        self.seen = self.runs.setdefault(name, set())

    def _global(self, frame, event, arg):
        code = frame.f_code
        ours = self._ours.get(code)
        if ours is None:
            ours = self._ours[code] = code.co_filename.startswith(self.prefix)
        return self._local if ours else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __enter__(self):
        sys.settrace(self._global)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_tests():
    import pytest
    code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    return [] if code == 0 else [f"pytest exited {code}"]


def run_cli():
    from frachelm.cli import COMMANDS, main
    failed = []
    for command in COMMANDS:
        config = ROOT / "docs" / "configs" / f"{command}.json"
        if config.exists():
            code = main([command, "--config", str(config), "--out", os.devnull])
            if code != 0:
                failed.append(f"frachelm {command} exited {code}")
    return failed


def run_bench():
    # workloads read frachelm.diagnostics off the package, which only a
    # submodule import (the CLI's) loads; without it every green-sweep row
    # fails inside Workload.operation, which records and does not raise
    import frachelm
    import frachelm.cli  # noqa: F401
    sys.path.insert(0, str(ROOT / "bench"))
    from tracer import Tracer
    from workloads import WORKLOADS
    failed = []
    for name, cls in WORKLOADS.items():
        wl = cls(frachelm, SEED, Tracer())
        wl.warm_up()
        for unit in range(UNITS):
            failed += [f"{name} unit {unit}: {f}" for f in wl.run_unit(unit).failures]
    return failed


def main():
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)   # the suite's Hypothesis database goes to the ignored .hypothesis/
    failed = []
    with LineTracer(str(PACKAGE) + os.sep) as tracer:
        for name, run in (("tests", run_tests), ("cli", run_cli), ("bench", run_bench)):
            # each run imports the package afresh, so its module-level lines count
            for module in [m for m in sys.modules if m.partition(".")[0] == "frachelm"]:
                del sys.modules[module]
            tracer.run(name)
            failed += run()
    reached = tracer.runs
    programs = reached["cli"] | reached["bench"]
    unreached, tests_only = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path)):
            key = (str(path), line)
            where = f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}"
            if key in reached["tests"]:
                if key not in programs:
                    tests_only.append(where)
            elif key not in programs:
                unreached.append(where)
    print(f"\nunreached by every run ({len(unreached)}):")
    print("\n".join(unreached))
    print(f"\nreached only by the tests ({len(tests_only)}):")
    print("\n".join(tests_only))
    for failure in failed:
        print(f"run failed: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
