"""Every name that a ``repro`` module lists in ``__all__`` exists, so a
deleted module or function leaves no stale re-export behind for
``from repro.<package> import *`` to fail on."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.iter_modules(repro.__path__, "repro.")
    if info.ispkg
]


def modules_of(package_name):
    """The package and its plain modules (subpackages are cases of their own)."""
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.iter_modules(package.__path__, package_name + "."):
        if not info.ispkg and not info.name.endswith(".__main__"):
            yield importlib.import_module(info.name)


def test_packages_are_collected():
    assert "repro.algorithms" in PACKAGES and "repro.core" in PACKAGES


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_exists(package):
    missing = [
        f"{module.__name__}.{name}"
        for module in modules_of(package)
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
