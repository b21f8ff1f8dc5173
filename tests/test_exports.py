import ast
import importlib
import json
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


def _source_trees() -> dict:
    """The parsed source of every module of the package, by module name."""
    root = Path(towerforms.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(root.glob("*.py"))}


def _is_literal(node, value) -> bool:
    try:
        return ast.literal_eval(node) == value
    except ValueError:  # not a literal
        return False


def test_semigroup_times_and_cap_have_one_home():
    """One time grid and one level cap: only superop assigns them, harness
    re-exports the same objects, no other module spells the grid out, and
    the semigroup kernels take no time grid of their own, only the maps."""
    from towerforms import harness, superop

    grid = (0.1, 1.0, 10.0)
    constants = ("SEMIGROUP_TIMES", "SEMIGROUP_LEVEL_CAP")
    assigners = {name: set() for name in constants}
    spelled = set()
    trees = _source_trees()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = getattr(node, "targets", [getattr(node, "target", None)])
                for target in targets:
                    if getattr(target, "id", None) in constants:
                        assigners[target.id].add(module)
            if isinstance(node, ast.Tuple) and _is_literal(node, grid):
                spelled.add(module)
    assert assigners == {name: {"superop"} for name in constants}
    assert spelled == {"superop"}
    kernels = {"_markov_margins": ["maps", "x"], "_symmetry_margins": ["maps", "x", "y"]}
    signatures = {
        node.name: node.args for node in trees["harness"].body
        if isinstance(node, ast.FunctionDef) and node.name in kernels
    }
    assert set(signatures) == set(kernels)
    for name, args in signatures.items():
        assert [a.arg for a in args.posonlyargs + args.args] == kernels[name]
        assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)
    assert harness.SEMIGROUP_TIMES is superop.SEMIGROUP_TIMES == grid
    assert harness.SEMIGROUP_LEVEL_CAP is superop.SEMIGROUP_LEVEL_CAP


def _top_level_definitions(tree) -> dict:
    """Each name a module defines at its top level, with the statement that
    defines it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [getattr(target, "id", None) for target in targets]
        else:
            continue
        for name in names:
            if name:
                defined[name] = node
    return defined


def _reads(tree, skip=None) -> set:
    """Names a tree reads, as a name or an attribute, outside the node skip."""
    hidden = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load) and id(node) not in hidden
    }


def test_no_private_helper_is_orphaned():
    """A module-level private helper that nothing in the package reads,
    besides its own definition, is dead code left behind by a deletion."""
    trees = _source_trees()
    orphans = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_reads(t) for m, t in trees.items() if m != module))
        for name, node in _top_level_definitions(tree).items():
            private = name.startswith("_") and not name.startswith("__")
            if private and name not in elsewhere and name not in _reads(tree, skip=node):
                orphans.append(f"{module}.{name}")
    assert orphans == []


def _exported_names_unread(outside: set) -> list:
    """module.name for each name in a module's __all__ that is not in
    outside and that no module of the package reads, besides its own
    definition and the package __init__ that only re-exports it."""
    trees = _source_trees()
    unread = []
    for module in MODULES:
        tree = trees[module]
        elsewhere = outside.union(
            *(_reads(t) for m, t in trees.items() if m not in (module, "__init__"))
        )
        defined = _top_level_definitions(tree)
        exported = getattr(importlib.import_module(f"towerforms.{module}"), "__all__", ())
        for name in exported:
            own = _reads(tree, skip=defined.get(name))
            if name not in elsewhere and name not in own:
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_name_is_read_outside_its_definition():
    """A name in a module's __all__ that nothing reads in src/, tests/ or
    benches/, besides its own definition and the package __init__ that only
    re-exports it, is dead public code."""
    root = Path(__file__).resolve().parents[1]
    outside = set().union(
        *(
            _reads(ast.parse(path.read_text()))
            for folder in ("tests", "benches")
            for path in sorted((root / folder).glob("*.py"))
        )
    )
    assert _exported_names_unread(outside) == []


def test_no_public_name_is_read_only_by_tests():
    """src/ holds what the CLI runs: a public name that no module of the
    package reads belongs in tests/reference.py. The names a BENCHMARK.json
    per-layer metric hooks stay, and the census widens by itself once such a
    metric is retired."""
    root = Path(__file__).resolve().parents[1]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    hooked = {part for metric in spec["per_layer"] for part in metric["name"].split(".")}
    assert _exported_names_unread(hooked) == []


def _is_number(node) -> bool:
    try:
        value = ast.literal_eval(node)
    except ValueError:  # not a literal
        return False
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_verify_flag_defaults_are_run_config_defaults():
    """verify spells no numeric default of its own: parsing no flags gives
    RunConfig() field for field."""
    from dataclasses import fields

    from towerforms import cli
    from towerforms.harness import RunConfig

    tree = ast.parse(Path(cli.__file__).read_text())
    (build,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
    ]
    parser, defaults = None, []
    for node in build.body:  # the statements in source order
        call = getattr(node, "value", None)
        if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Attribute):
            continue
        if call.func.attr == "add_parser":
            parser = ast.literal_eval(call.args[0])
        elif call.func.attr == "add_argument" and parser == "verify":
            defaults += [kw.value for kw in call.keywords if kw.arg == "default"]
    assert len(defaults) == len(fields(RunConfig))
    assert [ast.unparse(value) for value in defaults if _is_number(value)] == []
    args = cli.build_parser().parse_args(["verify"])
    expected = RunConfig()
    for field in fields(RunConfig):
        if field.name == "suites":
            assert RunConfig(suites=(args.suite,)).suites == expected.suites
        else:
            assert getattr(args, field.name) == getattr(expected, field.name), field.name


def _is_np_kron(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "kron"
        and getattr(node.func.value, "id", None) == "np"
    )


def test_no_kron_call_in_src():
    """P_n a = E_n(a) kron I has one home, superop.TowerProjection, which
    lifts by broadcasting: no module of the package calls np.kron."""
    trees = _source_trees()
    calls = [
        module for module, tree in trees.items() for node in ast.walk(tree) if _is_np_kron(node)
    ]
    assert calls == []


def _calls(tree, name) -> int:
    """Calls of `name` in a tree, as a name or as an attribute."""
    return sum(
        isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        for node in ast.walk(tree)
    )


def _imported(tree) -> set:
    return {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_one_sampled_check_driver():
    """The randomized suites draw through one driver: gaussian_chunks has
    one call site in the package, and superop and forms, which keep maps
    and forms only, import neither the draw nor report.fold."""
    trees = _source_trees()
    sites = {module: _calls(tree, "gaussian_chunks") for module, tree in trees.items()}
    assert {module: n for module, n in sites.items() if n} == {"harness": 1}
    for module in ("superop", "forms"):
        assert not {"gaussian_chunks", "fold"} & _imported(trees[module]), module
