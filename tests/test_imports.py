"""Every import in the program files is used (perfbench/ and the package's
re-exporting __init__.py are left out), and the package's ``__all__`` is
exactly what that __init__.py imports."""

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
