"""No test runs the demos or the benchmark's workloads (bench/workloads.py),
so a public name deleted from xlalign would break them unnoticed. Read each
one's syntax tree: every name it imports from xlalign, and every attribute it
reads off an imported xlalign module (such as `ad.backward` or
`pipeline.save_encoder`), must exist."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "bench" / "workloads.py"]


def _missing_names(tree):
    modules = {}  # local alias -> xlalign module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xlalign"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(owner, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("xlalign"):
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and not hasattr(modules[node.value.id], node.attr)):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("demo", SCRIPTS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    assert _missing_names(ast.parse(demo.read_text(encoding="utf-8"))) == []


def test_a_deleted_name_is_caught():
    tree = ast.parse("from xlalign import autodiff as ad\n"
                     "from xlalign.optim import fit, no_such_name\n"
                     "ad.no_such_op(ad.leaf(1.0))\n")
    assert _missing_names(tree) == ["xlalign.optim.no_such_name", "xlalign.autodiff.no_such_op"]
