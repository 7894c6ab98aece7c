"""Tests for the package's public namespace."""

import importlib
import pkgutil

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
