"""Module boundaries of the ``seqmatch`` package."""

import ast
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
