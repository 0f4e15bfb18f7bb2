"""Every line of `src/` runs in Tier-1: a stdlib line collector and its gate.

Runs the Tier-1 suite through `ci/tier1.sh` (its pytest arguments and
warning settings, and any extra arguments given here) with this module
loaded as a pytest plugin (`-p line_coverage`), which traces every thread
with `sys.settrace` and `threading.settrace` from before the first test
module or conftest is imported.  A line is executable when a code object
compiled from its file has an instruction on it (`co_lines`).  Prints each
executable line of `src/docnade/` that no thread ran, as `path:line
(function): source`, then the executable, unreached and allow-listed counts,
which it also appends to `$GITHUB_STEP_SUMMARY` when that is set.

    python tools/line_coverage.py                 # the whole Tier-1 suite
    python tools/line_coverage.py -x              # extra pytest arguments

Exit status: 0 when every unreached line is on `ALLOWED` and every entry of
`ALLOWED` names an unreached line, 1 otherwise (a stale entry names a line
that ran or no longer exists), or pytest's own status when a test failed.
Code that runs only in a subprocess a test starts is not traced.  Run from
any directory; needs no package beyond pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "docnade"

# the plugin's inputs, set by `collect` for the pytest process
SOURCE_ENV, OUT_ENV = "LINE_COVERAGE_SOURCE", "LINE_COVERAGE_OUT"

# (file under SOURCE, function, stripped source text) -> why no test runs it;
# keyed by text, not line number, so that edits elsewhere keep it
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"):
        "runs only as `python -m docnade.cli`, in a subprocess, which is not traced",
    ("numerics.py", "<module>", "else os.cpu_count() or 1)"):
        "a platform without os.sched_getaffinity (macOS, Windows)",
    ("numerics.py", "_blas_thread_calls", "except (AttributeError, OSError):"):
        "a numpy without its bundled scipy-openblas",
    ("numerics.py", "_blas_thread_calls", "return None"):
        "a numpy without its bundled scipy-openblas",
    ("numerics.py", "one_blas_thread", "yield"):
        "a numpy without its bundled scipy-openblas",
    ("numerics.py", "one_blas_thread", "return"):
        "a numpy without its bundled scipy-openblas",
}


class Collector:
    """The lines each thread runs in the files under `source`, from `start`
    to `stop`.  A code object whose every line has run is no longer traced,
    so a hot function costs its tracing only until each of its lines ran."""

    def __init__(self, source):
        self.prefix = os.path.join(os.path.realpath(source), "")
        # id of a traced code object -> (the code, its executable lines, the
        # lines run); keyed by id, since hashing a code object hashes its bytecode
        self._codes: dict[int, tuple] = {}
        self._wanted: dict[str, bool] = {}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        wanted = self._wanted.get(code.co_filename)
        if wanted is None:
            wanted = os.path.realpath(code.co_filename).startswith(self.prefix)
            self._wanted[code.co_filename] = wanted
        if not wanted:
            return None
        state = self._codes.get(id(code))
        if state is None:
            lines = {line for _, _, line in code.co_lines() if line}
            state = self._codes[id(code)] = (code, lines, set())
        _, lines, ran = state
        if len(ran) >= len(lines) and ran >= lines:
            return None
        ran.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return local

        return local

    def start(self) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def lines_by_file(self) -> dict[str, list[int]]:
        files: dict[str, set[int]] = {}
        for code, _, lines in self._codes.values():
            files.setdefault(os.path.realpath(code.co_filename), set()).update(lines)
        return {path: sorted(lines) for path, lines in files.items()}


def pytest_load_initial_conftests(early_config):
    """Start tracing before the conftests, and with them `src/`, are imported,
    and write what ran as JSON when pytest ends; only when `collect` set the
    plugin's inputs."""
    if OUT_ENV not in os.environ:
        return
    collector, out = Collector(os.environ[SOURCE_ENV]), os.environ[OUT_ENV]

    def finish():
        collector.stop()
        Path(out).write_text(json.dumps(collector.lines_by_file()))

    collector.start()
    early_config.add_cleanup(finish)


def collect(pytest_args, source=SOURCE) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and the lines run in each file under `source`
    (by real path), from `ci/tier1.sh` run with `pytest_args` in a
    subprocess under this plugin."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "ran.json")
        path = os.pathsep.join(filter(None, [str(ROOT / "tools"), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, SOURCE_ENV: str(source), OUT_ENV: out}
        status = subprocess.call(["ci/tier1.sh", "-p", "line_coverage", *pytest_args],
                                 cwd=ROOT, env=env)
        ran = json.loads(Path(out).read_text()) if os.path.exists(out) else {}
    return status, {path: set(lines) for path, lines in ran.items()}


def executable_lines(path) -> dict[int, str]:
    """Each line of a source file on which its compiled code has an
    instruction, mapped to the qualified name of the innermost function
    holding it (`<module>` at module level)."""
    lines: dict[int, str] = {}
    queue = [compile(Path(path).read_text(), str(path), "exec")]
    while queue:  # breadth first, so a def line takes the name of its function
        code = queue.pop(0)
        name = getattr(code, "co_qualname", code.co_name)
        lines.update((line, name) for _, _, line in code.co_lines() if line)
        queue.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def unreached_lines(ran: dict[str, set[int]], source=SOURCE) -> tuple[int, list]:
    """The number of executable lines in the `.py` files under `source`, and
    the (path, line, key) of each that `ran` lacks, its key (file under
    `source`, function, stripped source text) as in `ALLOWED`."""
    source, executable, unreached = Path(source), 0, []
    for path in sorted(source.rglob("*.py")):
        lines, text = executable_lines(path), path.read_text().splitlines()
        rel, hit = path.relative_to(source).as_posix(), ran.get(os.path.realpath(path), set())
        executable += len(lines)
        unreached += [(path, line, (rel, lines[line], text[line - 1].strip()))
                      for line in sorted(set(lines) - hit)]
    return executable, unreached


def problems(unreached, allowed=ALLOWED) -> list[str]:
    """One message per unreached line that `allowed` does not excuse, and
    one per stale entry of `allowed`: one that names no unreached line."""
    keys = {key for _, _, key in unreached}
    return ([f"{os.path.relpath(path, ROOT)}:{line} ({key[1]}): {key[2]}"
             for path, line, key in unreached if key not in allowed]
            + [f"stale allow-list entry {key}: no unreached line has it"
               for key in allowed if key not in keys])


def main(argv=None) -> int:
    status, ran = collect(sys.argv[1:] if argv is None else argv)
    if status != 0:
        print(f"line coverage: Tier-1 failed under the collector (pytest exit {status})")
        return status
    executable, unreached = unreached_lines(ran)
    found = problems(unreached)
    for problem in found:
        print(problem)
    excused = sum(key in ALLOWED for _, _, key in unreached)
    summary = (f"src/ line coverage: {executable} executable lines, {len(unreached)} unreached, "
               f"{excused} of them allow-listed")
    print(summary)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as fh:
            fh.write(summary + "\n")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
