"""Module boundaries of the ``seqmatch`` package."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seqmatch"


def private_sibling_imports(source: str) -> list[str]:
    """Names with one leading underscore (dunders excepted) that ``source``
    imports from a module of the package: ``from .ot import _costs``,
    ``from seqmatch.ot import _costs``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "seqmatch":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append("." * node.level + ".".join(filter(None, (module, name))))
    return found


@pytest.mark.parametrize(
    "source, want",
    [
        ("from .ot import _costs", [".ot._costs"]),
        ("from .ot import frame_matrix, _costs as costs", [".ot._costs"]),
        ("from seqmatch.ot import _SCAN_BATCH_CELLS", ["seqmatch.ot._SCAN_BATCH_CELLS"]),
        ("from . import _helpers", ["._helpers"]),
        ("def f():\n    from .ot import _log_sinkhorn", [".ot._log_sinkhorn"]),
        ("from . import __version__", []),
        ("from .ot import pair_stacks", []),
        ("from typing import _Final", []),
    ],
)
def test_private_sibling_imports_detected(source, want):
    assert private_sibling_imports(source) == want


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = {path.name: private_sibling_imports(path.read_text()) for path in modules}
    assert {name: names for name, names in found.items() if names} == {}


def run_fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run a new interpreter on this checkout's ``src`` with ``args``;
    ``OPENBLAS_NUM_THREADS`` and ``SEQMATCH_LOG`` are unset unless ``env`` sets them."""
    child_env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "SEQMATCH_LOG")}
    path = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    child_env.update(env, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, *args], env=child_env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_import_package_loads_no_submodule_nor_numpy_and_keeps_environ():
    code = """
import os, sys
before = dict(os.environ)
import seqmatch
assert "numpy" not in sys.modules, "numpy"
assert not [m for m in sys.modules if m.startswith("seqmatch.")], sorted(sys.modules)
assert dict(os.environ) == before
"""
    run_fresh("-c", code)


def test_every_export_is_its_defining_module_attribute():
    code = """
import importlib, seqmatch
assert seqmatch.__all__ and len(set(seqmatch.__all__)) == len(seqmatch.__all__)
for name in seqmatch.__all__:
    module = importlib.import_module("seqmatch." + seqmatch._EXPORTS[name])
    value = getattr(seqmatch, name)
    assert value is getattr(module, name), name
    assert getattr(value, "__module__", module.__name__) == module.__name__, name
assert set(seqmatch.__all__) <= set(dir(seqmatch))
"""
    run_fresh("-c", code)


def test_star_import_binds_exactly_all():
    code = """
import seqmatch
namespace = {}
exec("from seqmatch import *", namespace)
del namespace["__builtins__"]
assert sorted(namespace) == sorted(seqmatch.__all__), set(namespace) ^ set(seqmatch.__all__)
"""
    run_fresh("-c", code)


def test_unknown_attribute_raises_attribute_error():
    code = """
import seqmatch
try:
    seqmatch.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise SystemExit("no AttributeError")
"""
    run_fresh("-c", code)


# A small gen: the first command of a pipeline, and one that loads numpy.
SMALL_GEN = ["gen", "--level", "easy", "--trajectories", "2", "--snippets-per-task", "1"]


def spy_on_numpy(entry: str, record: str, out: Path) -> str:
    """Code that records ``record`` when numpy is first imported, in a command
    run through ``entry``: ``import seqmatch.cli`` and then ``main``, or
    ``python -m seqmatch.cli`` (``runpy``). Importing the module must not load it."""
    argv = [*SMALL_GEN, "--out", str(out)]
    return f"""
import gc, os, runpy, sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append({record})

sys.meta_path.insert(0, Spy())
if {entry!r} == "import":
    import seqmatch.cli
    assert not seen and "numpy" not in sys.modules
    assert seqmatch.cli.main({argv!r}) == 0
else:
    sys.argv = ["seqmatch", *{argv!r}]
    try:
        runpy.run_module("seqmatch.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
"""


@pytest.mark.parametrize("entry", ["import", "run-module"])
@pytest.mark.parametrize("given, want", [(None, "1"), ("3", "3")], ids=["unset", "user-value"])
def test_cli_pins_openblas_threads_before_numpy_unless_set(tmp_path, entry, given, want):
    """The value numpy sees when a command first imports it, through ``import
    seqmatch.cli`` and through ``python -m seqmatch.cli`` (``runpy``)."""
    code = spy_on_numpy(entry, 'os.environ.get("OPENBLAS_NUM_THREADS")', tmp_path / "bench")
    code += 'print(seen, os.environ["OPENBLAS_NUM_THREADS"])\n'
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    assert run_fresh("-c", code, **env).stdout.splitlines()[-1] == f"[{want!r}] {want}"


@pytest.mark.parametrize("entry", ["import", "run-module"])
def test_cli_turns_gc_off_before_numpy_only_as_main(tmp_path, entry):
    """numpy loads inside a command with the collector off on both entries:
    ``main`` pauses it for the command. Through ``python -m seqmatch.cli``
    (``runpy``) the process exits with it off and objects frozen; ``import
    seqmatch.cli`` and ``main`` leave both as they found them."""
    code = spy_on_numpy(entry, "gc.isenabled()", tmp_path / "bench")
    code += "print(seen, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    want = "[False] True False" if entry == "import" else "[False] False True"
    assert run_fresh("-c", code).stdout.splitlines()[-1] == want


@pytest.fixture(scope="module")
def easy_run(tmp_path_factory) -> tuple[Path, Path]:
    """A generated easy bench and an ``imagine`` run on it."""
    root = tmp_path_factory.mktemp("easy")
    bench, run = root / "bench", root / "run"
    run_fresh("-m", "seqmatch.cli", "gen", "--level", "easy", "--trajectories", "2", "--out", str(bench))
    run_fresh(
        "-m", "seqmatch.cli", "imagine", "--robot", str(bench / "robot"), "--play", str(bench / "play"),
        "--out", str(run),
    )
    return bench, run


NUMERIC = ("numpy", "seqmatch.ot", "seqmatch.tcc", "seqmatch.synthgen", "seqmatch.retrieval")


@pytest.mark.parametrize(
    "command, absent, loaded",
    [
        ("--version", NUMERIC, ()),
        ("eval", NUMERIC, ("seqmatch.pairing",)),
        ("gen", ("seqmatch.ot", "seqmatch.tcc", "seqmatch.retrieval"), ("numpy", "seqmatch.synthgen")),
    ],
)
def test_command_imports_only_what_it_runs(easy_run, tmp_path, command, absent, loaded):
    """A fresh ``python -m seqmatch.cli`` process leaves out of ``sys.modules``
    every module its command does not run."""
    bench, run = easy_run
    argv = {
        "--version": ["--version"],
        "eval": ["eval", "--paired", str(run), "--out", str(tmp_path / "scores")],
        "gen": [*SMALL_GEN, "--out", str(tmp_path / "bench")],
    }[command]
    code = f"""
import runpy, sys
sys.argv = ["seqmatch", *{argv!r}]
try:
    runpy.run_module("seqmatch.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(sorted(set({absent!r}) & set(sys.modules)), sorted(set({loaded!r}) - set(sys.modules)))
"""
    assert run_fresh("-c", code).stdout.splitlines()[-1] == "[] []"


@pytest.mark.parametrize(
    "argv, want",
    [
        (SMALL_GEN, 0),
        (["gen", "--level", "insane"], 2),
        (["gen", "--level", "easy", "--d", "4", "--n-tasks", "7"], 2),
        (["eval", "--paired", "void"], 3),
    ],
    ids=["success", "parse-error", "config-error", "data-error"],
)
def test_cli_run_returns_main_code_and_freezes(tmp_path, argv, want):
    code = f"""
import gc
import seqmatch.cli
assert gc.isenabled() and gc.get_freeze_count() == 0
code = seqmatch.cli.run({[*argv, "--out", str(tmp_path / "out")]!r})
print(code, gc.isenabled(), gc.get_freeze_count() > 0)
"""
    assert run_fresh("-c", code).stdout.splitlines()[-1] == f"{want} False True"


def test_logging_loads_only_when_seqmatch_log_is_set(easy_run, tmp_path):
    """``eval`` with ``SEQMATCH_LOG`` unset never imports ``logging``; ``ablate``
    under ``SEQMATCH_LOG=info`` still logs one ``kprime=`` line per K'."""
    bench, run = easy_run
    robot_play = ["--robot", str(bench / "robot"), "--play", str(bench / "play")]
    code = f"""
import sys
import seqmatch.cli
code = seqmatch.cli.run(["eval", "--paired", {str(run)!r}, "--out", {str(tmp_path / "scores")!r}])
print(code, "logging" in sys.modules)
"""
    assert run_fresh("-c", code).stdout.splitlines()[-1] == "0 False"
    ablate = ["-m", "seqmatch.cli", "ablate", *robot_play, "--kprime", "1", "2", "--out", str(tmp_path / "ablate")]
    proc = run_fresh(*ablate, SEQMATCH_LOG="info")
    assert re.findall(r"(?m)^INFO seqmatch: kprime=(\d+) recall=", proc.stderr) == ["1", "2"]
    assert "kprime=" not in run_fresh(*ablate).stderr


def test_console_script_enters_through_run():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    assert re.findall(r'(?m)^seqmatch = "([^"]+)"$', pyproject) == ["seqmatch.cli:run"]


def test_cli_version_matches_pyproject():
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    (version,) = re.findall(r'(?m)^version = "([^"]+)"$', pyproject)
    proc = run_fresh("-m", "seqmatch.cli", "--version")
    assert (proc.stdout, proc.stderr) == (f"seqmatch {version}\n", "")
