"""Every import in the program files is used (perfbench/ and the package's
re-exporting __init__.py are left out), and the package's ``__all__`` is
exactly what that __init__.py imports.  Two jobs have one home in src/:
only the parsers of configuration text catch ValueError, and only
``integrators._RestartNoise`` reaches ``numpy.random``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src", "tests", "demos", "tools")
               for path in (ROOT / folder).rglob("*.py") if path.name != "__init__.py")


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*" and getattr(node, "module", None) != "__future__":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}" for line, name in unused_imports(tree)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_package_all_is_what_init_imports():
    # symkry.__all__ lists each name once, and exactly the names __init__.py imports
    tree = ast.parse((ROOT / "src" / "symkry" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    exported = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]]
    assert len(exported) == 1, "__init__.py assigns __all__ once"
    assert len(exported[0]) == len(set(exported[0])), "duplicate names in __all__"
    assert sorted(exported[0]) == sorted(imported)


def value_error_handlers(tree, function=None):
    """The innermost enclosing function of each ``except`` clause naming
    ValueError, alone or in a tuple (None at module level)."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(name, ast.Name) and name.id == "ValueError" for name in names):
                found.append(function)
        is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        found += value_error_handlers(node, node.name if is_def else function)
    return found


def test_value_error_is_caught_only_where_text_is_parsed():
    # NumericalError is the one numerical failure; a clause that caught
    # every ValueError would turn a program bug into one, so only the
    # parsers of configuration text catch ValueError
    allowed = {"harness._coerce", "harness.config_from_mapping", "problems.checked_params"}
    sites = [f"{path.stem}.{function}" for path in FILES if path.is_relative_to(ROOT / "src")
             for function in value_error_handlers(ast.parse(path.read_text(encoding="utf-8")))]
    assert set(sites) <= allowed, sorted(set(sites) - allowed)


def random_sites(tree, scope=""):
    """The dotted scope (classes and functions) of each ``np.random`` in ``tree``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id == "np"):
            found.append(scope)
        named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found += random_sites(node, f"{scope}.{node.name}" if named else scope)
    return found


def test_restart_noise_is_the_only_user_of_numpy_random():
    # one maker of restart noise, made at the first draw, so a trajectory
    # with no restart never imports numpy.random
    sites = [f"{path.stem}{scope}" for path in FILES if path.is_relative_to(ROOT / "src")
             for scope in random_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert sites == ["integrators._RestartNoise.standard_normal"]
