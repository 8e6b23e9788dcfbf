"""Every function, method and class that ``bench/tracing.py`` hooks still
exists in charp, so that renaming or deleting one cannot silently break the
traced benchmark run.

The hook tables are read from the source with ``ast``; the benchmark module
itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name: str) -> tuple:
    """The literal tuple assigned to ``name`` at module level in tracing.py."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {TRACING}")


@pytest.mark.parametrize("layer, module, attr", _table("FUNCTIONS"))
def test_function_resolves(layer, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("layer, module, cls, attr", _table("METHODS"))
def test_method_resolves(layer, module, cls, attr):
    # tracing.py reads the method from the class dict, not through getattr
    assert callable(vars(getattr(importlib.import_module(module), cls))[attr])


@pytest.mark.parametrize("module, cls", _table("CLASSES"))
def test_class_resolves(module, cls):
    assert isinstance(getattr(importlib.import_module(module), cls), type)
