"""Smoke tests of the package's contract with ``perfbench/trace_cli.py``.

The tracer wraps the ``ConvolutionPlan`` methods and ``scf.solve`` by name
and reads the plan's ``grid`` and the result's ``iteration_count``, so
renaming or moving them would silently empty its spans.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from convolve_hf import cli
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


@pytest.mark.parametrize("command", ["residuals", "expand"])
def test_traced_transforms_keep_every_padded_pass_inside_a_convolution(tmp_path, command):
    layers = _load("layers")
    config = tmp_path / "h32.cfg"
    config.write_text(HYDROGEN_32)
    spans = tmp_path / "spans.json"
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_cli.py"), str(spans),
         command, "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    reaped = time.perf_counter()
    assert proc.returncode == 0, proc.stderr
    trace = layers.CommandTrace(command, spawned, reaped, json.loads(spans.read_text()))
    assert trace.errors() == []
    padded = [s for s in trace.spans if s["name"] == "fft" and max(s["attrs"]["shape"]) > 32]
    assert padded
    for span in padded:
        assert any(a["name"] in layers.CONVOLUTION for a in trace.ancestors(span)), span
    # one forward transform (its z pass is the only padded rfftn) per field
    # convolved in each span
    convolutions = [s for s in trace.spans if s["name"] == "convolution.kernel"]
    forwards = [s for s in padded if s["attrs"]["fn"] == "rfftn"]
    per_span = [sum(any(a is span for a in trace.ancestors(fwd)) for fwd in forwards)
                for span in convolutions]
    assert per_span == _fields_per_convolution(command, config, tmp_path / "in_process")
    if command == "expand":  # each ladder order convolves T and c in one span
        assert 2 in per_span


def _fields_per_convolution(command, config, out):
    """Fields transformed by each ``ConvolutionPlan.convolve_with_kernel``
    call of an in-process run of ``command``, in call order: the one field
    of a call without ``plus``, else every field that is not all zero."""
    counts = []
    original = ConvolutionPlan.convolve_with_kernel

    def counting(self, f, kernel, *, plus=(), **kwargs):
        fields = [f, *(g for g, _, _ in plus)]
        counts.append(sum(bool(g.values.any()) for g in fields) if plus else 1)
        return original(self, f, kernel, plus=plus, **kwargs)

    with mock.patch.object(ConvolutionPlan, "convolve_with_kernel", counting):
        assert cli.main([command, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return counts


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
    assert any(span[0] == "fft" for span in recorded)
