"""Every name a module lists in ``__all__`` resolves, so a deletion that
leaves a stale entry behind fails here rather than at ``import *``."""

import importlib
import pkgutil

import pytest

import convolve_hf

MODULES = sorted(info.name for info in pkgutil.iter_modules(convolve_hf.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"convolve_hf.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"duplicate names in {name}.__all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from convolve_hf.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_modules_with_exports_are_found():
    assert {"convolution", "hf", "residuals", "expansion"} <= set(MODULES)
