"""A ``ConvolutionPlan`` lives inside the one function that convolves on
it: no callable of the package's namespace or of a module's ``__all__``,
other than the plan itself and its methods, takes a plan as a parameter."""

import importlib
import inspect
import pkgutil

import convolve_hf
from convolve_hf.convolution import ConvolutionPlan


def _exported_callables():
    """(qualified name, callable) for every callable the package namespace
    or a module's ``__all__`` exports, and every method of an exported
    class, the plan's excepted."""
    found = {}
    sources = [(convolve_hf.__name__, convolve_hf, dir(convolve_hf))]
    for info in pkgutil.iter_modules(convolve_hf.__path__):
        module = importlib.import_module(f"convolve_hf.{info.name}")
        sources.append((module.__name__, module, getattr(module, "__all__", ())))
    for prefix, owner, names in sources:
        for name in names:
            value = getattr(owner, name)
            if name.startswith("__") or value is ConvolutionPlan or not callable(value):
                continue
            found[f"{prefix}.{name}"] = value
            if inspect.isclass(value):
                for attr, method in vars(value).items():
                    if inspect.isfunction(method):
                        found[f"{prefix}.{name}.{attr}"] = method
    return found


def _takes_a_plan(fn) -> bool:
    try:
        parameters = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):  # a builtin without a signature
        return False
    # annotations are strings under ``from __future__ import annotations``
    return any(p.name == "plan" or "ConvolutionPlan" in str(p.annotation) for p in parameters)


def test_no_exported_callable_takes_a_plan():
    exported = _exported_callables()
    assert "convolve_hf.hf.build_overlap_fields" in exported
    assert sorted(name for name, fn in exported.items() if _takes_a_plan(fn)) == []
