"""No test runs the demos or the benchmark's workloads (bench/workloads.py),
so a public name deleted from xlalign, or a parameter dropped from one of its
functions, would break them unnoticed. Read each one's syntax tree: every
name it imports from xlalign, and every attribute it reads off an imported
xlalign module (such as `ad.backward` or `pipeline.save_encoder`), must
exist, and every keyword argument of a call to such a name must be one its
signature accepts."""

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "demos").glob("*.py")) + [ROOT / "bench" / "workloads.py"]


def _xlalign_names(tree):
    """(local name -> object imported from xlalign, local alias -> xlalign
    module, the imported names that do not exist)."""
    names, modules, missing = {}, {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xlalign"):
            owner = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(owner, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value
                else:
                    names[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("xlalign"):
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
    return names, modules, missing


def _module_attribute(node, modules):
    """The module an `alias.attr` node reads from, or None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules):
        return modules[node.value.id]
    return None


def _missing_names(tree):
    _, modules, missing = _xlalign_names(tree)
    for node in ast.walk(tree):
        module = _module_attribute(node, modules)
        if module is not None and not hasattr(module, node.attr):
            missing.append(f"{module.__name__}.{node.attr}")
    return missing


def _unknown_keywords(tree):
    """`name(keyword=)` for each keyword a call into xlalign passes that the
    callee's signature does not accept."""
    names, modules, _ = _xlalign_names(tree)
    unknown = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        module = _module_attribute(node.func, modules)
        if module is not None:
            label, fn = f"{module.__name__}.{node.func.attr}", getattr(module, node.func.attr, None)
        elif isinstance(node.func, ast.Name) and node.func.id in names:
            label, fn = node.func.id, names[node.func.id]
        else:
            continue
        if not callable(fn):
            continue
        params = inspect.signature(fn).parameters.values()
        if any(p.kind is p.VAR_KEYWORD for p in params):
            continue
        accepted = {p.name for p in params if p.kind is not p.POSITIONAL_ONLY}
        unknown += [f"{label}({kw.arg}=)" for kw in node.keywords
                    if kw.arg is not None and kw.arg not in accepted]
    return unknown


@pytest.mark.parametrize("demo", SCRIPTS, ids=lambda p: p.name)
def test_demo_names_exist(demo):
    assert _missing_names(ast.parse(demo.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("demo", SCRIPTS, ids=lambda p: p.name)
def test_demo_keywords_are_accepted(demo):
    assert _unknown_keywords(ast.parse(demo.read_text(encoding="utf-8"))) == []


def test_a_deleted_name_is_caught():
    tree = ast.parse("from xlalign import autodiff as ad\n"
                     "from xlalign.optim import fit, no_such_name\n"
                     "ad.no_such_op(ad.leaf(1.0))\n")
    assert _missing_names(tree) == ["xlalign.optim.no_such_name", "xlalign.autodiff.no_such_op"]


def test_a_deleted_keyword_is_caught():
    tree = ast.parse("from xlalign import mapping\n"
                     "from xlalign.encoders import encode_sif_matrix as sif\n"
                     "from xlalign.text import NoiseParams\n"
                     "sif(s, table, vocab, a=1e-3, remove_pc=True)\n"
                     "mapping.fit_orthogonal_map(x, y, src_space='lb', center=True)\n"
                     "NoiseParams(p_del=0.1, seed=9)\n"
                     "mapping.save_map(path, m, **extra)\n")
    assert sorted(_unknown_keywords(tree)) == ["sif(remove_pc=)",
                                              "xlalign.mapping.fit_orthogonal_map(center=)"]
