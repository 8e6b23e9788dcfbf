"""Every function, method and class that ``bench/tracing.py`` hooks still
exists in charp, so that renaming or deleting one cannot silently break the
traced benchmark run; and the known defect that ``bench/worker.py`` exempts
from its correctness gate is the one failing check of its golden report, so
that regenerating the goldens cannot silently invalidate the benchmark.

The tables are read from the source with ``ast``; the benchmark modules
themselves are not imported.
"""

import ast
import importlib
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
WORKER = ROOT / "bench" / "worker.py"


def _table(name: str, path: Path = TRACING) -> tuple:
    """The literal tuple assigned to ``name`` at module level in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in {path}")


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


def test_known_defect_is_the_golden_failure():
    suite, seed, check, detail = _table("KNOWN_DEFECT", WORKER)
    golden = ROOT / "tests" / "golden" / f"seed{seed}" / f"{suite}.json"
    report = json.loads(golden.read_text(encoding="utf-8"))
    fails = [c for c in report["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in fails] == [check]
    assert detail in fails[0]["details"]
