import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import towerforms

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(towerforms.__path__) if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A name deleted from a module must leave its __all__ too."""
    module = importlib.import_module(f"towerforms.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []


def _unused_imports(path) -> list:
    """Names a module binds by import and never reads; __all__ counts as a
    read, and `from __future__` imports bind nothing."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
    ]
    exported = exported[0] if exported else ()
    return sorted(
        (line, name) for name, line in imported.items()
        if name not in used and name not in exported
    )


@pytest.mark.parametrize("name", MODULES + ["__main__"])
def test_no_module_imports_a_name_it_never_uses(name):
    """Without a linter, this is the check that deleting code leaves no
    import behind. The package __init__ only re-exports, so it is skipped."""
    path = Path(towerforms.__file__).with_name(f"{name}.py")
    assert _unused_imports(path) == [], name


def test_every_run_config_field_is_set_by_verify():
    """A RunConfig field that `verify` never passes is a knob no user can
    turn: the call to RunConfig in cli._cmd_verify names every field."""
    from dataclasses import fields

    from towerforms import cli
    from towerforms.harness import RunConfig

    tree = ast.parse(Path(cli.__file__).read_text())
    (verify,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_cmd_verify"
    ]
    (call,) = [
        node for node in ast.walk(verify)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RunConfig"
    ]
    assert not call.args
    assert {kw.arg for kw in call.keywords} == {f.name for f in fields(RunConfig)}
