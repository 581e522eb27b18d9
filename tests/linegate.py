"""Line gate: every function-body line of `src/ruta` runs in tier-1.

Load it into the tier-1 run from the repository root:

    PYTHONPATH=src python -m pytest -q -W error -p tests.linegate

While the tests run, `sys.monitoring` (PEP 669, Python 3.12 and later)
reports each line of a code object the first time it runs, and the
callback disables that line at once, so each line costs one event.  A
function-body line is one that `co_lines()` gives for a function's code
object; module and class bodies run at import and are not counted.  At
the end of the session the gate fails the run when a counted line never
ran and `tests/linegate_allowlist.py` does not name it, when an allowlist
entry names a line that ran or no longer exists, or when the allowlist
breaks its own rules (see its docstring).  Run it over the whole suite: a
subset leaves lines unrun that other tests run.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import pytest

import ruta

from .linegate_allowlist import ALLOWED, MAX_ENTRIES

if sys.version_info < (3, 12):
    raise ImportError("the line gate needs sys.monitoring (Python 3.12 or later)")

SRC = Path(ruta.__file__).resolve().parent
TOOL = sys.monitoring.COVERAGE_ID


def function_lines(path: Path) -> dict[int, tuple[str, str]]:
    """line -> (function qualname, stripped text) of every function-body
    line of a source file; a line two code objects share belongs to the
    outer one."""
    source = path.read_text()
    text = source.splitlines()
    lines: dict[int, tuple[str, str]] = {}

    def walk(code) -> None:
        if code.co_flags & inspect.CO_OPTIMIZED:
            for _, _, line in code.co_lines():
                if line is not None:
                    lines.setdefault(line, (code.co_qualname, text[line - 1].strip()))
        for const in code.co_consts:
            if inspect.iscode(const):
                walk(const)

    walk(compile(source, str(path), "exec"))
    return lines


class LineGate:
    def __init__(self):
        self.files = {str(p): p.name for p in sorted(SRC.glob("*.py"))}
        self.hits: set[tuple[str, int]] = set()
        self.problems: list[str] = []
        self.summary = "line gate: not run"

    def on_line(self, code, line: int):
        if code.co_filename in self.files:
            self.hits.add((code.co_filename, line))
        return sys.monitoring.DISABLE

    def start(self) -> None:
        sys.monitoring.use_tool_id(TOOL, "ruta-linegate")
        sys.monitoring.register_callback(TOOL, sys.monitoring.events.LINE, self.on_line)
        sys.monitoring.set_events(TOOL, sys.monitoring.events.LINE)

    def stop(self) -> None:
        sys.monitoring.set_events(TOOL, 0)
        sys.monitoring.register_callback(TOOL, sys.monitoring.events.LINE, None)
        sys.monitoring.free_tool_id(TOOL)

    def check(self) -> None:
        """Fill problems and the summary line."""
        counted = run = 0
        found = set()
        for filename, name in self.files.items():
            for line, (qualname, text) in sorted(function_lines(Path(filename)).items()):
                counted += 1
                key = (name, qualname, text)
                found.add(key)
                if (filename, line) in self.hits:
                    run += 1
                    if key in ALLOWED:
                        self.problems.append(f"allowlisted but run: {name}:{line} "
                                             f"{qualname}: {text}")
                elif key not in ALLOWED:
                    self.problems.append(f"unrun: {name}:{line} {qualname}: {text}")
        for name, qualname, text in ALLOWED.keys() - found:
            self.problems.append(f"allowlisted but not found: {name} {qualname}: {text}")
        if len(ALLOWED) > MAX_ENTRIES:
            self.problems.append(f"the allowlist holds {len(ALLOWED)} entries, "
                                 f"more than {MAX_ENTRIES}")
        for (name, qualname, text), reason in ALLOWED.items():
            if not text.startswith("raise ") or not reason.strip():
                self.problems.append(f"not a raising line with a reason: {name} "
                                     f"{qualname}: {text}")
        self.summary = f"line gate: {run} of {counted} function-body lines of src/ruta ran"
        if self.problems:
            self.summary += f", {len(self.problems)} problems"


GATE = pytest.StashKey[LineGate]()


def pytest_configure(config) -> None:
    gate = LineGate()
    gate.start()
    config.stash[GATE] = gate


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session) -> None:
    gate = session.config.stash[GATE]
    gate.stop()
    gate.check()
    if gate.problems and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config) -> None:
    gate = config.stash[GATE]
    for problem in gate.problems:
        terminalreporter.write_line(f"line gate: {problem}", red=True)
    terminalreporter.write_line(gate.summary)
