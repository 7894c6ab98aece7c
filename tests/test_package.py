"""Tests for the package's public namespace and source hygiene."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import passfpca


def test_public_names_are_each_module_name_once():
    # Every module except the CLI declares its public names in __all__;
    # the package re-exports exactly those, each the module's own object.
    owners = {}
    for info in pkgutil.iter_modules(passfpca.__path__):
        module = importlib.import_module(f"passfpca.{info.name}")
        for name in getattr(module, "__all__", ()):
            owners.setdefault(name, []).append(module)
    assert len(passfpca.__all__) == len(set(passfpca.__all__))
    assert sorted(passfpca.__all__) == sorted(owners)
    for name, modules in owners.items():
        [module] = modules
        assert getattr(passfpca, name) is getattr(module, name)


def _modules_after(code, cwd=None):
    """The modules loaded by a fresh interpreter that runs ``code``."""
    src = os.path.dirname(os.path.dirname(passfpca.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    return subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env=env, cwd=cwd, capture_output=True, text=True,
        check=True).stdout.split()


def test_cli_import_loads_no_scipy():
    # Every CLI call is a fresh interpreter that pays for its imports;
    # numpy does every eigen-solve, so scipy is a test dependency only.
    loaded = _modules_after("import passfpca.cli")
    assert "passfpca.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_fit_call_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma on first use; the PASS surface centres
    # its curves without it.  (numpy before 2.0 imports numpy.ma with
    # numpy itself, so only what the calls add is checked.)
    at_import = set(_modules_after("import passfpca.cli"))
    loaded = _modules_after(
        "from passfpca.cli import main\n"
        "main(['simulate', '--n', '30', '--seed', '1', '--out', 'c.csv'])\n"
        "assert main(['fit', '--input', 'c.csv', "
        "'--eigenfunctions', 'ef.csv']) == 0", cwd=tmp_path)
    added = [m for m in loaded if m not in at_import]
    assert "passfpca.cli" in loaded
    assert [m for m in added if m.split(".")[:2] == ["numpy", "ma"]] == []


def test_fit_call_loads_no_process_pool(tmp_path):
    # Only bench evaluates in worker processes, and it imports the pool
    # itself; fit and ratio pay nothing for it.
    loaded = _modules_after(
        "from passfpca.cli import main\n"
        "main(['simulate', '--n', '30', '--seed', '1', '--out', 'c.csv'])\n"
        "assert main(['fit', '--input', 'c.csv', "
        "'--eigenfunctions', 'ef.csv']) == 0", cwd=tmp_path)
    assert "passfpca.cli" in loaded
    assert "multiprocessing" not in loaded
    assert "concurrent.futures.process" not in loaded


def _package_trees():
    directory = os.path.dirname(passfpca.__file__)
    trees = {}
    for info in pkgutil.iter_modules(passfpca.__path__):
        path = os.path.join(directory, f"{info.name}.py")
        with open(path, encoding="utf-8") as handle:
            trees[info.name] = ast.parse(handle.read(), path)
    return trees


def _read_names(tree):
    """Names a module reads, the attributes it takes and the names it
    imports from other modules."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_source_has_no_unused_import_or_private_name():
    # No linter runs in CI: an import nothing reads, or a module-level
    # private name nothing in the package refers to, is dead code.
    trees = _package_trees()
    read = {name: _read_names(tree) for name, tree in trees.items()}
    everywhere = set().union(*read.values())
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound != "*" and bound not in read[module]:
                        unused.append(f"{module}: import {bound}")
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unused += [f"{module}: {name}" for name in defined
                       if name.startswith("_") and not name.startswith("__")
                       and name not in everywhere]
    assert unused == []
