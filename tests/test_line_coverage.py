"""The line collector of tools/line_coverage.py, run on a module of its own.

The collector traces a pytest run in a subprocess, as the CI step does, so
no tracer is set in this process (where it would replace the one of a
traced Tier-1 run)."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "line_coverage.py"

MODULE = '''\
import threading


def branch(flag):
    if flag:
        return "taken"
    return "not taken"


def on_worker(out):
    out.append(1)


def run():
    out = []
    worker = threading.Thread(target=on_worker, args=(out,))
    worker.start()
    worker.join()
    return branch(bool(out))
'''

UNREACHED = MODULE.splitlines().index('    return "not taken"') + 1


def _tool():
    spec = importlib.util.spec_from_file_location("line_coverage", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lists_the_lines_no_thread_ran_and_stale_entries(tmp_path):
    tool = _tool()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    (tmp_path / "test_mod.py").write_text(textwrap.dedent('''\
        from pkg import mod


        def test_run():
            assert mod.run() == "taken"
        '''))
    # no installed plugin is needed: hypothesis's takes over a second to import
    plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest", "-p", "no:benchmark"]
    status, ran = tool.collect([*plugins, str(tmp_path / "test_mod.py")],
                               source=tmp_path / "pkg")
    assert status == 0
    executable, unreached = tool.unreached_lines(ran, source=tmp_path / "pkg")
    # on_worker's line ran on a worker thread only
    key = ("mod.py", "branch", 'return "not taken"')
    assert [(path.name, line, k) for path, line, k in unreached] == [("mod.py", UNREACHED, key)]
    assert executable > len(unreached)

    [message] = tool.problems(unreached, allowed={})
    assert message.endswith(f'mod.py:{UNREACHED} (branch): return "not taken"')
    ran_on_worker, gone = ("mod.py", "on_worker", "out.append(1)"), ("mod.py", "run", "x = 1")
    assert tool.problems(unreached, allowed={key: "", ran_on_worker: "", gone: ""}) == [
        f"stale allow-list entry {ran_on_worker}: no unreached line has it",
        f"stale allow-list entry {gone}: no unreached line has it",
    ]
