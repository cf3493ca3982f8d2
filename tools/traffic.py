"""The library statements that no benchmark workload executes.

Builds every workload of ``bench/jobs.py`` at seed 0 and runs one untimed
pass of its timed calls (each job's ``run``) under a ``sys.settrace`` line
collector.  Then it prints, per ``src/ttkit`` file, how many of the
statements inside its functions ran, and the line number and source of
each statement that none of the workloads executed:

    PYTHONPATH=src python tools/traffic.py

A statement is a line that holds bytecode of a function, method, lambda
or comprehension.  Module and class bodies are not counted, as they run
when the module is imported.  A function that ran counts its ``def`` line
(or first decorator) as executed.  The probe answers "does any workload
reach this line?", for example when deciding whether a second code path
still earns its keep.  It does not time anything.
"""

from __future__ import annotations

import inspect
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0


def _function_codes(code):
    """The code objects of every function nested in ``code``, at any depth
    (through class bodies too), but not ``code`` itself."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield const
            yield from _function_codes(const)


def statement_lines(path) -> set:
    """Line numbers of ``path`` that hold bytecode of a function."""
    module = compile(Path(path).read_text(), str(path), "exec")
    return {
        line
        for code in _function_codes(module)
        for _, _, line in code.co_lines()
        if line is not None
    }


class LineCollector:
    """A ``sys.settrace`` function that records the lines executed in
    ``paths``; frames of other files run with no line tracing.  Use it as a
    context manager: it traces the current thread while inside."""

    def __init__(self, paths):
        self.seen = {str(p): set() for p in paths}
        self._before = None  # the trace function to restore on exit

    def __call__(self, frame, event, arg):
        lines = self.seen.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # the call: the def line, or the resumed line
        return self._local(lines)

    @staticmethod
    def _local(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __enter__(self):
        self._before = sys.gettrace()
        sys.settrace(self)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._before)
        return False

    def unexecuted(self) -> dict:
        """``{path: sorted statement lines never executed}``."""
        return {p: sorted(statement_lines(p) - seen) for p, seen in self.seen.items()}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import jobs
    import ttkit

    paths = sorted(Path(ttkit.__file__).parent.glob("*.py"))
    collector = LineCollector(str(p) for p in paths)
    for name, build in jobs.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            workload = build(SEED, workdir)
            with collector:
                for job in workload:
                    job.run()
        print(f"ran {name}: {len(workload)} jobs at seed {SEED}")
    for path, lines in collector.unexecuted().items():
        source = Path(path).read_text().splitlines()
        total = len(statement_lines(path))
        print(f"{Path(path).relative_to(ROOT)}: {total - len(lines)} of {total} statements executed")
        for line in lines:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
