"""Every import in the program files is used (perfbench/ and the package's
re-exporting __init__.py are left out), and the package's ``__all__`` is
exactly what that __init__.py imports.  Three jobs have one home in src/:
only the parsers of configuration text catch ValueError, only
``integrators._RestartNoise`` reaches ``numpy.random``, and outside
``matfun`` only ``phi_apply`` forms t phi(tM) B."""

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


MATFUN_INTERNALS = {"_second_order_sign", "_phi_second_order", "pade_flow"}


def matfun_internal_sites(tree):
    """Each import, name or attribute in ``tree`` that is one of
    MATFUN_INTERNALS, as (line, name); a docstring is no such node."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, a.name) for a in node.names if a.name in MATFUN_INTERNALS]
        elif isinstance(node, ast.Name) and node.id in MATFUN_INTERNALS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in MATFUN_INTERNALS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_phi_apply_is_the_one_exponential_kernel_outside_matfun():
    # the steps and the dense oracle take t phi(tM) B only from phi_apply,
    # so its choice of closed form or Pade flow is made in one place
    sites = [f"{path.relative_to(ROOT / 'src' / 'symkry')}:{line}: {name}" for path in FILES
             if path.is_relative_to(ROOT / "src") and path.name != "matfun.py"
             for line, name in matfun_internal_sites(ast.parse(path.read_text(encoding="utf-8")))]
    assert not sites, "\n".join(sites)


def test_matfun_internal_census_skips_docstrings():
    tree = ast.parse(
        '"""pade_flow and _phi_second_order, named in a docstring."""\n'
        "from .matfun import pade_flow, phi_apply\n"
        "import symkry.matfun as m\n"
        "def f(M):\n"
        '    """_second_order_sign, named in a docstring."""\n'
        "    return m._second_order_sign(M) or pade_flow(M, M, 1.0)\n")
    assert matfun_internal_sites(tree) == [
        (2, "pade_flow"), (6, "_second_order_sign"), (6, "pade_flow")]


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


MUTATORS = {"clear", "update", "pop", "setdefault", "append"}


def module_state_writes(tree):
    """``global`` statements, and writes into a name bound at module level,
    in the functions of ``tree``: an assignment or ``del`` on a subscript or
    attribute of it, or a call of one of its MUTATORS, also through what it
    returns, unless the function or one enclosing it binds the name itself."""
    module = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            module.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                module.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    found = []

    def visit(node, local, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                bound = {a.arg for a in ast.walk(child.args) if isinstance(a, ast.arg)}
                bound |= {n.id for n in ast.walk(child)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
                bound |= {n.name for n in ast.walk(child) if n is not child and isinstance(
                    n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
                visit(child, local | bound, getattr(child, "name", "<lambda>"))
                continue
            if scope is not None:
                if isinstance(child, ast.Global):
                    found.append(f"{scope}: global {', '.join(child.names)}")
                root = None
                if (isinstance(child, (ast.Subscript, ast.Attribute))
                        and isinstance(child.ctx, (ast.Store, ast.Del))):
                    root = child.value
                elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                        and child.func.attr in MUTATORS):
                    root = child.func.value
                while isinstance(root, (ast.Subscript, ast.Attribute, ast.Call)):
                    root = root.func if isinstance(root, ast.Call) else root.value
                if isinstance(root, ast.Name) and root.id in module and root.id not in local:
                    found.append(f"{scope}:{child.lineno}: {ast.unparse(child)}")
            visit(child, local, scope)

    visit(tree, set(), None)
    return found


def test_no_function_in_src_writes_module_state():
    # a run keeps nothing after it returns: no cache, registry or counter at
    # module level that a function fills, empties or rebinds
    sites = [f"{path.stem}.{site}" for path in FILES if path.is_relative_to(ROOT / "src")
             for site in module_state_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert not sites, "\n".join(sites)


def test_module_state_census_sees_every_kind_of_write():
    tree = ast.parse(
        "import os\n"
        "CACHE = {}\n"
        "def f(key):\n"
        "    global COUNT\n"
        "    CACHE[key] = 1\n"
        "    del CACHE[key]\n"
        "    CACHE.setdefault(key, []).append(1)\n"
        "    os.environ['X'] = '1'\n"
        "def g(CACHE):\n"
        "    CACHE.clear()\n"  # the parameter, not the module's dict
        "    def h():\n"
        "        CACHE.pop(0)\n"  # the enclosing function's
        "        return {}.update(CACHE)\n")
    assert module_state_writes(tree) == [
        "f: global COUNT", "f:5: CACHE[key]", "f:6: CACHE[key]",
        "f:7: CACHE.setdefault(key, []).append(1)", "f:7: CACHE.setdefault(key, [])",
        "f:8: os.environ['X']"]
