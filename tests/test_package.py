"""Tests for the package's public namespace."""

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


def test_cli_import_loads_no_scipy():
    # Every CLI call is a fresh interpreter that pays for its imports;
    # numpy does every eigen-solve, so scipy is a test dependency only.
    src = os.path.dirname(os.path.dirname(passfpca.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, passfpca.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    assert "passfpca.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
