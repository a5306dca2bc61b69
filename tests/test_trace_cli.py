"""Smoke tests of the package's contract with ``perfbench/trace_cli.py``.

The tracer wraps the ``ConvolutionPlan`` methods and ``scf.solve`` by name
and reads the plan's ``grid`` and the result's ``iteration_count``, so
renaming or moving them would silently empty its spans.  It wraps the
``scipy.fft`` transforms, which the package no longer calls, so the FFT
properties are checked in-process on ``numpy.fft`` instead.
"""

import contextlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import convolve_hf as chf
from convolve_hf import cli, scf
from convolve_hf.convolution import ConvolutionPlan

REPO = Path(__file__).resolve().parent.parent


def _load(name):
    """A module of ``perfbench/`` by file name, without running it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  REPO / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # ``install`` raises on a missing name, which fails every traced run
    tracer = _load("trace_cli")
    for module, attr, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for attr, _, _ in tracer.PLAN_METHODS:
        assert callable(getattr(ConvolutionPlan, attr, None)), f"ConvolutionPlan.{attr}"
    for attr in tracer.FFT_FUNCTIONS:
        assert callable(getattr(tracer.scipy.fft, attr, None)), f"scipy.fft.{attr}"


HYDROGEN_32 = """\
grid.n = 32
grid.extent = 8.0
system.nuclei = 1.0, 0.0, 0.0, 0.0
residuals.source = hydrogen_identity
residuals.t = 1.5
window.alpha = 1.0
basis.alpha0 = 0.1
basis.beta = 3.0
basis.count = 4
"""


# per command: its config file (None: HYDROGEN_32, else a shipped config run
# at N = 32) and its exit code; at N = 32 some of verify's checks fail (exit
# 3), but every check runs
TRACED_COMMANDS = {
    "residuals": (None, 0),
    "expand": (None, 0),
    "extend-sweep": ("extend_sweep.cfg", 0),
    "verify": ("verify.cfg", 3),
}


@pytest.mark.parametrize("command", list(TRACED_COMMANDS))
def test_traced_transforms_keep_every_padded_pass_inside_a_convolution(tmp_path, command):
    layers = _load("layers")
    shipped, exit_code = TRACED_COMMANDS[command]
    if shipped is None:
        config = tmp_path / "h32.cfg"
        config.write_text(HYDROGEN_32)
        args = ["--config", str(config)]
    else:
        args = ["--config", str(REPO / "configs" / shipped), "--grid-n", "32"]
    spans = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_cli.py"), str(spans),
         command, *args, "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    reaped = time.perf_counter()
    assert proc.returncode == exit_code, proc.stderr
    trace = layers.CommandTrace(command, spawned, reaped, json.loads(spans.read_text()))
    assert trace.errors() == []
    convolutions = [s for s in trace.spans if s["name"] == "convolution.kernel"]

    def run():
        out = tmp_path / "in_process"
        assert cli.main([command, *args, "--out", str(out), "--quiet"]) == exit_code

    calls, ffts = _record_transforms(run)
    kernel_calls = [i for i, (method, _, _) in enumerate(calls) if method == "convolve_with_kernel"]
    assert len(convolutions) == len(kernel_calls)
    padded = [f for f in ffts if max(*f.shape_in, *f.shape_out) > 32]
    assert padded
    assert all(f.call is not None for f in padded)
    # each field convolved takes one forward z pass: its n^2 lines of n
    # values, zero-padded to 2n (n+1 outputs), shared by x rows among the
    # workers; the DCT-I passes of a spectrum map 2n values to n+1
    convolving = [i for i, (method, _, _) in enumerate(calls) if method != "kernel_spectrum"]
    z_lines = dict.fromkeys(convolving, 0)
    for f in ffts:
        if f.name == "rfft" and f.shape_out[-1] == f.shape_in[-1] + 1:
            z_lines[f.call] += math.prod(f.shape_in[:-1])
    assert [z_lines[i] for i in convolving] == [fields * n * n for _, fields, n in
                                               (calls[i] for i in convolving)]
    if command == "expand":  # each ladder order convolves T and c in one call
        assert any(calls[i][1] == 2 for i in kernel_calls)


# one numpy.fft call: its name, input and output shapes, and the index of
# the innermost ConvolutionPlan call it ran in (None outside any)
_Transform = namedtuple("_Transform", "name shape_in shape_out call")


def _record_transforms(run):
    """Call ``run()`` with the one-axis ``numpy.fft`` transforms and the
    ``ConvolutionPlan`` methods wrapped.  Returns the plan calls in call
    order, each (method, fields it transforms, grid n): for
    ``convolve_with_kernel`` every field of the call that is not all zero,
    for ``convolve_fields`` both, for ``kernel_spectrum`` none; and the
    transforms as ``_Transform`` records, from every thread."""
    calls, ffts, open_calls = [], [], []

    def fft(name, original):
        def recorded(a, *args, **kwargs):
            out = original(a, *args, **kwargs)
            ffts.append(_Transform(name, np.shape(a), out.shape,
                                   open_calls[-1] if open_calls else None))
            return out
        return recorded

    def method(name, original):
        def recorded(self, *args, **kwargs):
            n = self.grid.points_per_axis
            if name == "convolve_with_kernel":
                fields = [args[0], *(g for g, _, _ in kwargs.get("plus", ()))]
                calls.append((name, sum(bool(g.values.any()) for g in fields), n))
            else:
                calls.append((name, 2 if name == "convolve_fields" else 0, n))
            open_calls.append(len(calls) - 1)
            try:
                return original(self, *args, **kwargs)
            finally:
                open_calls.pop()
        return recorded

    with contextlib.ExitStack() as patches:
        for name in ("rfft", "fft", "ifft", "irfft"):
            patches.enter_context(mock.patch.object(np.fft, name, fft(name, getattr(np.fft, name))))
        for name in ("kernel_spectrum", "convolve_with_kernel", "convolve_fields"):
            original = getattr(ConvolutionPlan, name)
            patches.enter_context(mock.patch.object(ConvolutionPlan, name, method(name, original)))
        run()
    return calls, ffts


def test_traced_extend_sweep_records_convolution_spans(tmp_path):
    spans = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_cli.py"), str(spans),
         "extend-sweep", "--config", str(REPO / "configs" / "extend_sweep.cfg"),
         "--grid-n", "32", "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"convolution.spectrum", "convolution.kernel"} <= names


HE_32 = """\
grid.n = 32
grid.extent = 12.0
system.nuclei = 2.0, 0.0, 0.0, 0.0
system.pairs = 1
scf.eigensolver = imaginary_time
scf.time_step = auto
"""


def test_traced_scf_records_its_iterations(tmp_path):
    # the benchmark's scf.outer_iterations comes from the solve span
    config = tmp_path / "he32.cfg"
    config.write_text(HE_32)
    spans = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_cli.py"), str(spans),
         "scf", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text())["spans"]
    solves = [span for span in recorded if span[0] == "scf.solve"]
    assert len(solves) == 1
    summary = dict(
        line.split(" = ", 1) for line in (tmp_path / "out" / "summary.txt").read_text().splitlines()
    )
    assert solves[0][4]["iterations"] == int(summary["iterations"])


def test_solve_runs_grid_transforms():
    # the benchmark's fft.grid layer: transforms of grid-shaped arrays
    # outside any convolution, here the imaginary-time steps
    grid = chf.GridSpec(points_per_axis=32, extent=12.0)
    system = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
    config = chf.ScfConfig(max_iterations=2)
    _, ffts = _record_transforms(lambda: scf.solve(system, grid, config))
    steps = [f.name for f in ffts if f.call is None and f.shape_in in ((32, 32, 32), (32, 32, 17))]
    assert steps.count("rfft") >= 2 * 4 and steps.count("irfft") >= 2 * 4  # 4 steps per iteration
