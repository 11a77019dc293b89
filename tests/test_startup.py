"""Start-up: what ``import airybeam`` and the command line load, and when.

The package resolves its public names on first access, and ``airybeam.cli``
imports the numeric layers only after parsing a command that computes.  The
fresh-process tests here check that the paths computing nothing leave NumPy
unloaded, that the lazy namespace matches the modules that define each name,
and that the benchmark's tracer, which wraps ``airybeam.cli`` globals by
name, still sees every call.  ``main()`` run as the process's program takes
over the garbage collector; ``main(argv)`` leaves it as it was.
"""

import gc
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import airybeam

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(Path(airybeam.__file__).parents[1]))


def _run(code, *argv, cwd=None):
    return subprocess.run([sys.executable, "-c", code, *argv], env=ENV, cwd=cwd,
                          capture_output=True, text=True)


def _argv_id(value):
    return " ".join(value) if isinstance(value, list) else str(value)


# (argv, exit code): the paths that compute nothing
_NO_COMPUTE = [
    ([], 2),
    (["--version"], 0),
    (["--help"], 0),
    (["detector-image", "--help"], 0),
    (["detector-image", "--energy", "5", "-o", "x.pgm"], 2),        # bare number
    (["detector-image", "--z", "3furlongs", "-o", "x.pgm"], 2),     # unknown unit
    (["detector-image"], 2),                                        # no -o
    (["detector-image", "--bogus", "-o", "x.pgm"], 2),              # unknown flag
]


@pytest.mark.parametrize("argv,code", _NO_COMPUTE, ids=_argv_id)
def test_paths_that_compute_nothing_leave_numpy_unloaded(tmp_path, argv, code):
    _check_computes_nothing(tmp_path, argv, code, "main(sys.argv[1:])")


@pytest.mark.parametrize("argv,code", _NO_COMPUTE, ids=_argv_id)
def test_program_paths_that_compute_nothing_leave_numpy_unloaded(tmp_path, argv, code):
    # main() without argv also takes over the collector, which imports nothing
    _check_computes_nothing(tmp_path, argv, code, "main()")


def _check_computes_nothing(tmp_path, argv, code, call):
    probe = ("import sys\n"
             "from airybeam.cli import main\n"
             "try:\n"
             f"    rc = {call}\n"
             "except SystemExit as exc:\n"
             "    rc = exc.code\n"
             "sys.exit(3 if 'numpy' in sys.modules else rc)\n")
    run = _run(probe, *argv, cwd=tmp_path)
    assert run.returncode == code, (argv, run.stderr)
    assert "Traceback" not in run.stderr
    assert not list(tmp_path.iterdir())
    if code == 2:
        assert run.stderr.startswith("usage: airybeam")


# (argv, exit code): a command that computes, one that fails in the layers,
# a usage error found in parsing and one found after the layers load
_GC_CASES = [
    (["total-current", "--n", "20", "-o", "t.csv"], 0),
    (["total-current", "--n", "1", "-o", "t.csv"], 1),
    (["total-current", "--energy", "5", "-o", "t.csv"], 2),
    (["total-current", "--preset", "s-minus", "--width", "1um", "-o", "t.csv"], 2),
]


@pytest.mark.parametrize("enabled", [True, False])
def test_library_calls_leave_the_collector_alone(tmp_path, monkeypatch, enabled):
    from airybeam.cli import main
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv, code in _GC_CASES + [(["--version"], 0)]:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            assert rc == code, argv
            assert gc.isenabled() is enabled, argv
            assert gc.get_freeze_count() == frozen, argv
    finally:
        (gc.enable if was_enabled else gc.disable)()


# runs the CLI as the console script does, or as a library call, with the
# layer name ``grid`` pre-bound to a wrapper (as perfbench's tracer binds
# names) that records the collector's state while the command runs
_GC_PROBE = """import atexit, gc, json, sys
import airybeam
from airybeam import cli
seen, record = [], sys.argv.pop(1)
def grid(*args):
    seen.append([gc.isenabled(), gc.get_freeze_count()])
    return airybeam.grid(*args)
cli.grid = grid
atexit.register(lambda: open(record, "w").write(json.dumps(seen)))
sys.exit(cli.main({}))
"""


@pytest.mark.parametrize("argv,code", _GC_CASES, ids=_argv_id)
def test_program_computes_with_the_collector_on_over_its_own_objects(
        tmp_path, argv, code):
    runs = {}
    for name, call in (("program", ""), ("library", "sys.argv[1:]")):
        cwd = tmp_path / name
        cwd.mkdir()
        record = tmp_path / f"{name}.json"
        run = _run(_GC_PROBE.format(call), str(record), *argv, cwd=cwd)
        files = {p.name: p.read_bytes() for p in cwd.iterdir()}
        runs[name] = (run.returncode, run.stdout, run.stderr, files)
        seen = json.loads(record.read_text())
        assert len(seen) == (code != 2), (name, seen)
        # the library call runs with this fresh process's default collector
        assert all(on and (frozen > 0) == (name == "program")
                   for on, frozen in seen), (name, seen)
    assert runs["program"] == runs["library"]
    assert runs["program"][0] == code and "Traceback" not in runs["program"][2]


def test_package_import_leaves_numpy_unloaded():
    run = _run("import sys, airybeam; sys.exit(3 if 'numpy' in sys.modules else 0)")
    assert run.returncode == 0, run.stderr


def test_lazy_names_are_the_defining_modules_objects():
    names = set(dir(airybeam))
    for module, exported in airybeam._EXPORTS.items():
        mod = importlib.import_module(f"airybeam.{module}")
        for name in exported:
            obj = getattr(airybeam, name)
            assert obj is getattr(mod, name), name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                # defined there, not re-imported from another module
                assert obj.__module__ == mod.__name__, name
            assert name in names and name in airybeam.__all__
    assert sorted(airybeam.__all__) == airybeam.__all__
    assert len(airybeam.__all__) == sum(map(len, airybeam._EXPORTS.values()))


def test_unknown_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        airybeam.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from airybeam import no_such_name  # noqa: F401


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "from airybeam import (make_system, GaussianSource" in code
    run = _run(code)
    assert run.returncode == 0, run.stderr
    rows = [line.split() for line in run.stdout.splitlines()]
    assert len(rows) == 3 and all(float(j) > 0.0 for row in rows for j in row[1:])


# the tracer installed before the first main (it then binds the layers
# through airybeam.cli's __getattr__), or after one untraced main, the order
# perfbench/run.py --trace 1 uses
_TRACED = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from airybeam import cli
out, order = sys.argv[2], sys.argv[3]
argvs = [["detector-image", "--n", "8", "-o", out + "/d.pgm"],
         ["total-current", "--n", "20", "-o", out + "/t.csv"]]
if order == "after":
    assert cli.main(argvs[0]) == 0
else:
    assert "write_pgm" not in vars(cli)
tracer = Tracer()
with tracer.installed():
    for argv in argvs:
        assert cli.main(argv) == 0
print(json.dumps({k: tracer.counts[k]
                  for k in ("scenarios.calls", "output.calls", "sources.calls")}))
"""


def test_tracer_wraps_catch_calls_in_either_order(tmp_path):
    counts = {}
    for order in ("before", "after"):
        run = _run(_TRACED, str(ROOT / "perfbench"), str(tmp_path), order)
        assert run.returncode == 0, (order, run.stderr)
        counts[order] = json.loads(run.stdout.splitlines()[-1])
    assert counts["before"] == counts["after"], counts
    assert all(v > 0 for v in counts["before"].values()), counts
