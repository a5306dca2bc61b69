"""Run one ``convolve-hf`` command with every package layer timed from outside.

    PYTHONPATH=src python3 perfbench/trace_cli.py <spans.json> <command> [cli arguments]

The package is imported unchanged.  Before the command runs, its public
functions, the ``ConvolutionPlan`` methods, the ``scipy.fft`` transforms and
``warnings.warn`` are replaced by wrappers that record a span each.  Modules
bind functions at import time (``from .fields import norm``), so a function is
replaced under every module name that refers to it; methods and ``scipy.fft``
attributes are looked up at call time, so replacing them on the class or
module is enough.

A span is ``[name, start, end, parent index, attributes]``.  Spans stay in
memory and are written as JSON when the command returns.  Times come from
``time.perf_counter``, which is CLOCK_MONOTONIC on Linux, so the parent
process can place them against its own spawn and exit times.
"""

import time

ENTERED = time.perf_counter()  # before the heavy imports below

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

import scipy.fft  # noqa: E402

import convolve_hf.cli as cli  # noqa: E402
from convolve_hf import (  # noqa: E402
    convolution,
    expansion,
    extension,
    fields,
    hf,
    residuals,
    scf,
    verify,
)


class Tracer:
    """Span recorder for a single-threaded program."""

    def __init__(self):
        self.spans = []
        self.warnings = {}
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording a span per call; ``attrs(args, kwargs, result)``
        adds attributes after the span has closed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, result)
            return result

        return traced

    def count_warnings(self, warn):
        """``warnings.warn`` counting each call by category; every call is
        counted, also those the active filters would not print."""

        def counting_warn(message, category=None, stacklevel=1, source=None):
            kind = type(message) if isinstance(message, Warning) else (category or UserWarning)
            self.warnings[kind.__name__] = self.warnings.get(kind.__name__, 0) + 1
            # one frame deeper than the caller asked for, so the reported
            # location and the once-per-location filter state are unchanged
            warn(message, category, stacklevel + 1, source)

        return counting_warn


def _grid_n(field):
    return field.grid.points_per_axis


def _fft_attrs(fn_name):
    def attrs(args, kwargs, result):
        x = args[0]
        return {
            "fn": fn_name,
            "real": fn_name in ("rfftn", "irfftn"),
            "points": max(x.size, result.size),  # size of the real-space box
            "shape": list(max(x.shape, result.shape)),
            "bytes": x.nbytes + result.nbytes,
        }

    return attrs


def _laplacian_attrs(args, kwargs, result):
    method = kwargs.get("method", args[1] if len(args) > 1 else "spectral")
    return {"n": _grid_n(args[0]), "method": method}


# (module, attribute, span name, attributes)
FUNCTIONS = (
    (scf, "solve", "scf.solve", lambda a, k, r: {"iterations": r.iteration_count}),
    (hf, "build_fields", "hf.build_fields", None),
    (hf, "energies", "hf.energies", None),
    (hf, "check_orbital_bounds", "hf.check_orbital_bounds", None),
    (hf, "strong_residual", "hf.strong_residual", None),
    (residuals, "poisson_transformed_residual", "residuals.poisson", None),
    (residuals, "window_transformed_residual", "residuals.window", None),
    (residuals, "poisson_crosscheck", "residuals.crosscheck", None),
    (residuals, "window_residual_literal", "residuals.literal", None),
    (expansion, "project_orbitals", "expansion.project", None),
    (expansion, "expansion_poisson_residuals", "expansion.ladders", None),
    (expansion, "expansion_window_residuals", "expansion.ladders", None),
    (extension, "extend", "extension.extend", None),
    (extension, "harmonicity_residual", "extension.harmonicity", None),
    (verify, "run_verify", "verify.run", None),
    (fields, "laplacian", "fields.laplacian", _laplacian_attrs),
    (fields, "norm", "fields.norm", None),
)

# ConvolutionPlan methods: (attribute, span name, attributes)
PLAN_METHODS = (
    (
        "kernel_spectrum",
        "convolution.spectrum",
        lambda a, k, r: {"kernel": type(a[1]).__name__, "n": a[0].grid.points_per_axis,
                         "bytes": r.nbytes},
    ),
    (
        "convolve_with_kernel",
        "convolution.kernel",
        lambda a, k, r: {"kernel": type(a[2]).__name__, "n": _grid_n(a[1])},
    ),
    ("convolve_fields", "convolution.fields", lambda a, k, r: {"n": _grid_n(a[1])}),
)

FFT_FUNCTIONS = ("rfftn", "irfftn", "fftn", "ifftn")


def _replace_everywhere(original, traced):
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] != "convolve_hf":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, traced)


def install(tracer):
    for module, attr, name, attrs in FUNCTIONS:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, attrs))
    plan = convolution.ConvolutionPlan
    for attr, name, attrs in PLAN_METHODS:
        setattr(plan, attr, tracer.wrap(name, getattr(plan, attr), attrs))
    for fn_name in FFT_FUNCTIONS:
        setattr(scipy.fft, fn_name,
                tracer.wrap("fft", getattr(scipy.fft, fn_name), _fft_attrs(fn_name)))
    warnings.warn = tracer.count_warnings(warnings.warn)


def main(spans_path, argv):
    tracer = Tracer()
    install(tracer)
    command = tracer.wrap("cli." + argv[0], cli.main)
    try:
        return command(argv)
    finally:
        with open(spans_path, "w") as out:
            json.dump({"entered": ENTERED, "spans": tracer.spans,
                       "warnings": tracer.warnings}, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
