"""The command-line contract as a property: every command, on any config
drawn from the key table, exits 0, 1, 2 or 3, never with a traceback;
exits 1 and 2 print exactly one ``error:`` line, and exit 0 writes every
file the README lists for the command, with every number in its CSV
files finite.

Values are drawn valid, on the boundary, extreme (1e+-300, 0, negative)
and non-finite, on grids of 8 to 16 nodes per axis so that each command
runs in milliseconds.
"""

import contextlib
import io
import math
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from convolve_hf.cli import main
from convolve_hf.config import _FIXED, _KEYS

# the files the README lists for each command's exit 0
OUTPUTS = {
    "scf": ("scf_history.csv", "orbital_z0.csv", "summary.txt"),
    "extend-sweep": ("extension_sweep.csv",),
    "residuals": ("residuals.csv",),
    "expand": ("expansion_ladder.csv",),
    "verify": ("verify_results.csv",),
}

EXTREMES = ("0", "-1", "-0.5", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf")


def _float(lo, hi):
    """A float key's text: in [lo, hi], on its edges, or extreme."""
    valid = st.floats(lo, hi, allow_nan=False).map(repr)
    return st.one_of(valid, st.sampled_from((repr(lo), repr(hi)) + EXTREMES))


def _float_list(lo, hi, size=3):
    return st.lists(_float(lo, hi), min_size=0, max_size=size).map(", ".join)


def _int(*values):
    return st.sampled_from(tuple(str(v) for v in values) + ("-1", "0"))


def _fixed(value, *others):
    """A fixed key's text: mostly its one accepted value, so that most runs
    go on to the command, else another value, which exits 1."""
    return st.sampled_from((value,) * 2 * len(others) + others)


_nucleus = st.tuples(_float(1.0, 3.0), _float(-1.0, 1.0), _float(-1.0, 1.0),
                     _float(-1.0, 1.0)).map(", ".join)

# config key -> strategy of its value text; output.dir comes from --out
VALUES = {
    "grid.n": st.sampled_from(("8", "10", "12", "14", "16", "7", "9", "0", "-8")),
    "grid.extent": _float(1.0, 12.0),
    "system.nuclei": st.lists(_nucleus, min_size=1, max_size=2).map("; ".join),
    "system.pairs": _fixed("1", "2", "0"),
    "scf.max_iter": _int(1, 3, 30),
    "scf.mixing": _fixed("0.6", "1.0", "nan"),
    "scf.tol_energy": _fixed("1e-7", "1e-2", "-1"),
    "scf.tol_orbital": _fixed("1e-6", "1e-8", "inf"),
    "scf.eigensolver": _fixed("imaginary_time", "inverse_iteration", "lobpcg"),
    "scf.time_step": _fixed("auto", "2.0", "1e300"),
    "poisson.t_values": _float_list(0.05, 4.0),
    "window.alpha": _float(0.05, 4.0),
    "basis.alpha0": _float(0.05, 2.0),
    "basis.beta": _float(1.5, 4.0),
    "basis.count": _int(1, 2, 4),
    "masking.radius_cells": _float(0.5, 4.0),
    "residuals.source": st.sampled_from(("scf", "hydrogen_identity", "zero", "slater")),
    "residuals.t": _float(0.5, 4.0),
}


def test_every_config_key_has_a_strategy():
    assert set(VALUES) == (set(_KEYS) | set(_FIXED)) - {"output.dir"}


# a config every command completes on; each run overrides a few of its keys
BASE = {
    "grid.extent": "4.0",
    "system.nuclei": "2.0, 0.0, 0.0, 0.0",
    "scf.max_iter": "30",
    "poisson.t_values": "1.0, 0.5",
    "window.alpha": "1.0",
    "basis.count": "2",
    "residuals.t": "2.5",
}


def _text(config):
    return "".join(f"{key} = {value}\n" for key, value in config.items())


@st.composite
def runs(draw):
    """(command, config text, --out is an existing file, --quiet)."""
    config = {**BASE, "grid.n": draw(st.sampled_from(("8", "12", "16"))),
              "residuals.source": draw(st.sampled_from(("hydrogen_identity", "scf")))}
    for key in draw(st.lists(st.sampled_from(sorted(VALUES)), unique=True, max_size=3)):
        config[key] = draw(VALUES[key])
    out_is_file = draw(st.sampled_from((False, False, False, True)))
    return draw(st.sampled_from(sorted(OUTPUTS))), _text(config), out_is_file, draw(st.booleans())


def _case(command, **overrides):
    """An explicit run: BASE at n = 8 with ``overrides`` (dots as ``__``)."""
    config = {**BASE, "grid.n": "8"}
    config.update({key.replace("__", "."): value for key, value in overrides.items()})
    return command, _text(config), False, True


@pytest.mark.filterwarnings("ignore")  # warnings are not part of the exit contract
@seed(20261018)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(runs())
# cases found by this test: values whose computation overflows, a grid
# whose cell volume leaves the float range, SCF non-convergence, a basis
# exponent that overflows, infinite residual norms
@example(_case("expand", residuals__t="1e300"))
@example(_case("residuals", masking__radius_cells="1e300"))
@example(_case("residuals", window__alpha="1e300"))
@example(_case("verify", grid__extent="1e300"))
@example(_case("residuals", grid__extent="1e-300"))
@example(_case("scf", scf__max_iter="1"))
@example(_case("expand", basis__alpha0="1e300", basis__beta="1e10", basis__count="4"))
@example(_case("residuals", residuals__source="hydrogen_identity",
               system__nuclei="1e300, 0.0, 0.0, 0.0"))
def test_every_exit_is_documented(run):
    command, text, out_is_file, quiet = run
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "run.cfg"
        config.write_text(text)
        out = tmp / "out"
        if out_is_file:
            out.write_text("taken\n")
        argv = [command, "--config", str(config), "--out", str(out)] + ["--quiet"] * quiet
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except Exception:
                raise AssertionError(f"{argv} on\n{text}\nraised:\n{traceback.format_exc()}")
        err = stderr.getvalue()
        assert "Traceback" not in err
        assert code in (0, 1, 2, 3), (code, text)
        if code in (1, 2):
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            assert len(errors) == 1, (code, text, err)
        if out_is_file:
            assert code != 0 and out.read_text() == "taken\n", (code, text)
        if code == 0:
            assert all((out / name).is_file() for name in OUTPUTS[command]), (command, text)
            for name in OUTPUTS[command]:
                if name.endswith(".csv"):
                    assert _numbers_are_finite((out / name).read_text()), (name, text)


def _numbers_are_finite(csv_text):
    """True when every cell below the header that parses as a float is finite."""
    cells = [cell for line in csv_text.splitlines()[1:] for cell in line.split(",")]
    numbers = []
    for cell in cells:
        with contextlib.suppress(ValueError):
            numbers.append(float(cell))
    return all(math.isfinite(x) for x in numbers)
