import ast
import dataclasses
import importlib.util
import inspect
import json
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from convolve_hf import cli, scf, verify
from convolve_hf.cli import main
from convolve_hf.config import _FIXED, _KEYS, RunConfig, load_config, parse_config
from convolve_hf.convolution import ConvolutionPlan, under_resolved
from convolve_hf.errors import ConfigError, NonFiniteError
from convolve_hf.extension import HarmonicExtension
from convolve_hf.fields import ScalarField, norm
from convolve_hf.hf import MolecularSystem, OrbitalSet, build_fields
from convolve_hf.kernels import (
    CoulombKernel,
    Gaussian,
    PoissonKernel,
    PoissonSecondDifference,
    sample,
)

from support import peak_traced_bytes, record_sampled_kernels
from test_trace_cli import HE_32

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, body: str, name="run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(body)
    return path


# every float-valued key, with the value slot of its config line
FLOAT_KEYS = {
    "grid.extent": "{}",
    "system.nuclei": "1.0, {}, 0.0, 0.0",
    "poisson.t_values": "0.8, {}",
    "window.alpha": "{}",
    "basis.alpha0": "{}",
    "basis.beta": "{}",
    "masking.radius_cells": "{}",
    "residuals.t": "{}",
}

HYDROGEN_32 = """
grid.n = 32
grid.extent = 8.0
system.nuclei = 1.0, 0.0, 0.0, 0.0
residuals.source = hydrogen_identity
residuals.t = 1.5
"""

SCF_SMOKE = """
grid.n = 32
grid.extent = 12.0
system.nuclei = 2.0, 0.0, 0.0, 0.0
scf.max_iter = 200
scf.mixing = 0.6
residuals.source = scf
residuals.t = 1.6
output.dir = {out}
"""


class TestConfigParsing:
    def test_defaults_and_comments(self):
        cfg = parse_config("# only a comment\n\ngrid.n = 48  # inline\n")
        assert cfg.grid_n == 48
        assert cfg.grid_extent == 10.0
        assert cfg.scf_max_iter == 200

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="grid.m"):
            parse_config("grid.m = 48\n")

    def test_malformed_nucleus_named(self):
        with pytest.raises(ConfigError, match="system.nuclei"):
            parse_config("system.nuclei = 2.0, 0.0, 0.0\n")

    def test_multiple_nuclei(self):
        cfg = parse_config("system.nuclei = 1.0,0.7,0,0 ; 1.0,-0.7,0,0\n")
        assert len(cfg.nuclei) == 2
        assert cfg.nuclei[1][1] == (-0.7, 0.0, 0.0)

    def test_module_preconditions_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("grid.n = 33\n")  # odd
        with pytest.raises(ConfigError):
            parse_config("scf.mixing = 0.0\n")
        with pytest.raises(ConfigError):
            parse_config("basis.beta = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config("system.nuclei = 2.0, 99.0, 0.0, 0.0\n")  # outside box

    @pytest.mark.parametrize("radius", ["0", "-1.5"])
    def test_nonpositive_masking_radius_named(self, radius):
        with pytest.raises(ConfigError, match=r"^masking\.radius_cells must be positive$"):
            parse_config(f"masking.radius_cells = {radius}\n")

    @pytest.mark.parametrize("n", ["0", "1", "9"])
    def test_grid_n_checked_before_the_bounds_that_use_it(self, n):
        # masking.radius_cells <= grid.n would otherwise name a key not set
        with pytest.raises(ConfigError, match=rf"^grid\.n must be even and at least 8, got {n}$"):
            parse_config(f"grid.n = {n}\n")

    def test_grid_n_flag_checked_before_the_bounds_that_use_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "grid.n = 16\n")
        assert main(["verify", "--config", str(cfg), "--grid-n", "1",
                     "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: grid.n must be even and at least 8, got 1"
        ]

    @pytest.mark.parametrize("n, rest", [(6, ""), (16, "masking.radius_cells = 20\n")])
    @pytest.mark.filterwarnings("ignore::convolve_hf.errors.ResolutionWarning")
    def test_grid_n_flag_replaces_the_file_value_before_validation(self, tmp_path, n, rest):
        # the file's grid.n fails on its own; under --grid-n 32 the run is
        # the one of a file that says grid.n = 32
        flagged = write_config(tmp_path, f"grid.n = {n}\n{rest}", name="flagged.cfg")
        spelled = write_config(tmp_path, f"grid.n = 32\n{rest}", name="spelled.cfg")
        codes = [main(["verify", "--config", str(flagged), "--grid-n", "32",
                       "--out", str(tmp_path / "a"), "--quiet"]),
                 main(["verify", "--config", str(spelled), "--out", str(tmp_path / "b"),
                       "--quiet"])]
        assert codes[0] == codes[1] != 1
        csvs = [(tmp_path / d / "verify_results.csv").read_bytes() for d in "ab"]
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("value", ["-1", "-200"])
    def test_negative_max_iter_named(self, value):
        with pytest.raises(ConfigError, match=rf"^scf\.max_iter must be nonnegative, got {value}$"):
            parse_config(f"scf.max_iter = {value}\n")

    def test_float_key_list_is_complete(self):
        types = {f.name: str(f.type) for f in dataclasses.fields(RunConfig)}
        floats = {key for key, (attr, _) in _KEYS.items()
                  if "float" in types[attr] or attr == "nuclei"}
        assert floats == set(FLOAT_KEYS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(FLOAT_KEYS))
    def test_non_finite_float_named(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: cannot parse"):
            parse_config(f"{key} = {FLOAT_KEYS[key].format(value)}\n")

    @pytest.mark.parametrize("field, value", [
        ("window_alpha", float("nan")),
        ("masking_radius_cells", float("nan")),
        ("grid_extent", float("inf")),
        ("poisson_t_values", (0.8, float("nan"))),
        ("nuclei", ((2.0, (0.0, float("-inf"), 0.0)),)),
    ])
    def test_non_finite_field_rejected_by_validated(self, field, value):
        # a RunConfig built in Python meets the same finiteness check
        with pytest.raises(ConfigError, match="not a finite number"):
            RunConfig(**{field: value}).validated()

    @pytest.mark.parametrize("t", [1e-300, 1e300])
    def test_height_without_finite_inverse_square_spacing(self, t):
        with pytest.raises(ConfigError, match=r"^poisson\.t_values: "):
            RunConfig(poisson_t_values=(0.8, t)).validated()

    # grid.n = 16, grid.extent = 8: h = 1, the padded box is 32 wide
    BOUNDED = {"residuals.t": ("32", "32.5"), "masking.radius_cells": ("16", "16.5"),
               "window.alpha": ("100", "100.5")}

    @pytest.mark.parametrize("key", sorted(BOUNDED))
    def test_bounded_key_exits_before_the_scf(self, tmp_path, capsys, monkeypatch, key):
        # residuals.source = scf would run a whole SCF before the value fails
        edge, beyond = self.BOUNDED[key]
        base = "grid.n = 16\ngrid.extent = 8.0\nresiduals.source = scf\n"
        assert getattr(parse_config(f"{base}{key} = {edge}\n"), _KEYS[key][0]) == float(edge)

        def solve(*args, **kwargs):
            raise AssertionError("the SCF ran")

        monkeypatch.setattr(cli, "solve", solve)
        cfg = write_config(tmp_path, f"{base}{key} = {beyond}\n")
        assert main(["residuals", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key}")

    @pytest.mark.parametrize("alpha0, beta, count", [
        ("1e300", "1e10", "4"),  # the largest exponent overflows
        ("1e308", "1.5", "2"),  # it is finite, its amplitude (2a/pi)^(3/4) is not
        ("1.0", "1e300", "1000"),  # beta^(count - 1) raises OverflowError
    ])
    def test_overflowing_basis_member_named(self, alpha0, beta, count):
        named = r"^basis\.alpha0 \* basis\.beta\^\(basis\.count - 1\) "
        with pytest.raises(ConfigError, match=named):
            parse_config(f"basis.alpha0 = {alpha0}\nbasis.beta = {beta}\nbasis.count = {count}\n")

    def test_large_finite_basis_member_accepted(self):
        config = parse_config("basis.alpha0 = 1e300\nbasis.beta = 10\nbasis.count = 4\n")
        assert config.basis_alpha0 * config.basis_beta ** 3 == pytest.approx(1e303)

    def test_max_iter_default_is_that_of_solve(self):
        cap = inspect.signature(scf.solve).parameters["max_iterations"].default
        assert RunConfig().scf_max_iter == cap

    def test_readme_table_lists_every_key(self):
        text = (REPO / "README.md").read_text()
        table = text.split("### Config format", 1)[1].split("###", 1)[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
        assert sorted(listed) == sorted([*_KEYS, *_FIXED])

    def test_orders_default_ladder(self):
        cfg = parse_config("basis.count = 8\n")
        assert cfg.orders() == (2, 4, 6, 8)
        assert parse_config("basis.count = 1\n").orders() == (1,)


def _written_keys(text: str) -> set[str]:
    return {line.split("=", 1)[0].strip() for line in text.splitlines() if "=" in line}


class TestBenchmarkConfigs:
    """The configs ``perfbench/run.py`` generates must keep parsing."""

    @pytest.fixture(scope="class")
    def bench(self):
        sys.path.insert(0, str(REPO / "perfbench"))  # run.py imports its sibling layers
        try:
            spec = importlib.util.spec_from_file_location("perfbench_run",
                                                          REPO / "perfbench" / "run.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        return module

    @pytest.fixture(scope="class")
    def generated(self, bench, tmp_path_factory):
        """SCF_CONFIG, RESIDUALS_CONFIG, EXTEND_CONFIG and VERIFY_CONFIG,
        formatted with the values of seed 101."""
        tmp_path = tmp_path_factory.mktemp("bench")
        texts = []
        for make_inputs in (bench.scf_inputs, bench.transforms_inputs):
            commands, _ = make_inputs(random.Random(101), tmp_path)
            texts += [command.config.read_text() for command in commands]
        return texts

    def test_generated_inputs_parse(self, generated):
        for text in generated:
            parse_config(text)

    def test_fixed_keys_are_those_only_generated_configs_write(self, generated):
        # a benchmark change that stops writing a fixed key must drop it
        # from the table, and no shipped config writes one
        written = set().union(*map(_written_keys, generated))
        assert set(_FIXED) == written - set(_KEYS)
        for path in sorted((REPO / "configs").glob("*.cfg")):
            assert not _written_keys(path.read_text()) & set(_FIXED), path.name

    def test_fixed_keys_accept_their_value_as_written(self, bench):
        lines = [line for text in (bench.SCF_CONFIG, HE_32) for line in text.splitlines()
                 if _written_keys(line) & set(_FIXED)]
        assert set().union(*map(_written_keys, lines)) == set(_FIXED)
        for line in lines:
            assert parse_config(line) == RunConfig()


# values the fixed keys reject: each sets nothing, so only its one value parses
REJECTED = {
    "system.pairs": ("0", "2", "1.0"),
    "scf.eigensolver": ("lobpcg", "inverse_iteration"),
    "scf.mixing": ("0.5", "1.0", "nan"),
    "scf.tol_energy": ("1e-6", "-1e-7", "inf"),
    "scf.tol_orbital": ("3e-6", "1e-7"),
    "scf.time_step": ("0.004", "1e300", "1", "never"),
}


class TestFixedKeys:
    def test_every_fixed_key_has_rejected_values(self):
        assert set(REJECTED) == set(_FIXED)

    @pytest.mark.parametrize("key, value",
                             [(key, value) for key in REJECTED for value in REJECTED[key]])
    def test_other_value_is_one_error_line_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, f"grid.n = 16\ngrid.extent = 8.0\n{key} = {value}\n")
        assert main(["scf", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {key} accepts only ")
        assert err[0].endswith(f", got {value!r}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["scf.time_step = AUTO", "scf.time_step = 0.5",
                                      "scf.mixing = 6e-1", "scf.tol_energy = 1.0e-7"])
    def test_other_spelling_of_the_value_accepted(self, line):
        assert parse_config(line) == RunConfig()


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        ["he.cfg", "he_quick.cfg", "h2.cfg", "hydrogen_identity.cfg",
         "zero_orbital.cfg", "extend_sweep.cfg", "verify.cfg"],
    )
    def test_parses_and_validates(self, name):
        from convolve_hf.config import load_config

        cfg = load_config(REPO / "configs" / name)
        assert cfg.grid_n >= 8

    @pytest.mark.parametrize(
        "name",
        ["he.cfg", "he_quick.cfg", "h2.cfg", "hydrogen_identity.cfg", "zero_orbital.cfg"],
    )
    def test_residuals_height_is_resolved(self, name):
        # residuals and expand exit 1 on a height below 2h
        cfg = load_config(REPO / "configs" / name)
        assert not under_resolved(cfg.residuals_t, cfg.grid())


class TestScfCommand:
    def test_smoke_run_writes_contract_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCF_SMOKE.format(out=out))
        code = main(["scf", "--config", str(cfg), "--quiet"])
        assert code == 0
        history = (out / "scf_history.csv").read_text().splitlines()
        assert history[0] == "iteration,energy,residual,epsilon"
        assert len(history) > 1
        plane = (out / "orbital_z0.csv").read_text().splitlines()
        assert plane[0] == "x,y,value"
        assert len(plane) == 1 + 32 * 32
        summary = (out / "summary.txt").read_text()
        assert "virial_ratio" in summary and "converged = True" in summary

    def test_non_convergence_exit_code_keeps_history(self, tmp_path):
        out = tmp_path / "out"
        body = SCF_SMOKE.format(out=out).replace("scf.max_iter = 200", "scf.max_iter = 2")
        cfg = write_config(tmp_path, body)
        assert main(["scf", "--config", str(cfg), "--quiet"]) == 2
        assert (out / "scf_history.csv").exists()

    @pytest.mark.parametrize("command", ["scf", "residuals", "expand"])
    def test_non_convergence_is_one_error_line(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 2.0\nscf.max_iter = 0\n"
                                     "residuals.source = scf\nresiduals.t = 0.6\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: SCF did not converge in 0 iterations"]

    @pytest.mark.parametrize("command", ["residuals", "expand"])
    def test_under_resolved_height_exits_before_the_scf(self, tmp_path, capsys, monkeypatch,
                                                         command):
        def forbidden(*args, **kwargs):
            raise AssertionError("the SCF ran")

        monkeypatch.setattr(cli, "solve", forbidden)
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 2.0\nscf.max_iter = 0\n"
                                     "residuals.t = 0.25\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: Poisson height t=0.25 below resolution floor 2h=0.5"
        ]

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "system.nuclei = banana\n")
        assert main(["scf", "--config", str(cfg), "--quiet"]) == 1
        assert "system.nuclei" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["scf", "--config", str(tmp_path / "absent.cfg")]) == 1

    @pytest.mark.parametrize("n", [16, 48])  # inline and pooled transforms
    def test_divergence_exit_code_single_error_line(self, tmp_path, capsys, monkeypatch, n):
        # a huge explicit step overflows the imaginary-time norm
        monkeypatch.setattr(scf, "_TIME_STEP", 1e300)
        cfg = write_config(tmp_path, f"grid.n = {n}\ngrid.extent = 8.0\n")
        assert main(["scf", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: imaginary-time propagation diverged: the orbital norm "
            "is not a finite positive number"
        ]

    def test_non_finite_value_is_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 8.0\nwindow.alpha = nan\n")
        assert main(["residuals", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: window.alpha: cannot parse 'nan'")

    def test_quiet_leaves_warning_filters_unchanged(self, tmp_path):
        before = list(warnings.filters)
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 2.0\n")
        assert main(["extend-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        assert warnings.filters == before


class TestExtendSweepCommand:
    @pytest.mark.parametrize("t", ["1e-300", "1e300"])
    def test_extreme_height_is_one_error_line(self, tmp_path, capsys, t):
        # the sweep's t-derivative divides by (t/8)^2
        cfg = write_config(tmp_path, f"grid.n = 16\ngrid.extent = 4.0\npoisson.t_values = {t}\n")
        assert main(["extend-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: poisson.t_values: ")
        assert not (tmp_path / "o").exists()

    def test_sweep_monotone_and_flagged(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"""
grid.n = 48
grid.extent = 10.0
poisson.t_values = 1.6, 0.8, 0.4
window.alpha = 0.05
output.dir = {out}
""",
        )
        assert main(["extend-sweep", "--config", str(cfg), "--quiet"]) == 0
        lines = (out / "extension_sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "t,l2_distance,sup_distance,sup_norm,paper_bound_4_over_pi_t,"
            "harmonicity_defect,flag"
        )
        rows = [line.split(",") for line in lines[1:]]
        dists = [float(r[1]) for r in rows]
        assert dists == sorted(dists, reverse=True)  # monotone toward small t
        flags = {float(r[0]): r[6] for r in rows}
        assert flags[1.6] == "" and flags[0.4] == "unresolved"

    def test_peak_memory_does_not_grow_with_the_heights(self, tmp_path):
        # each height's spectra and fields are freed before the next
        # height, so eight heights peak within one spectrum of two
        spectrum_bytes = 8 * 33**3
        heights = [f"{2.6 - 0.2 * i:g}" for i in range(8)]  # resolved: 2h = 1
        peaks = {}
        for count in (2, 8):
            cfg = write_config(tmp_path, f"""
grid.n = 32
grid.extent = 8.0
poisson.t_values = {", ".join(heights[:count])}
window.alpha = 0.05
""", name=f"sweep{count}.cfg")
            out = tmp_path / f"out{count}"
            peaks[count] = peak_traced_bytes(lambda: main(
                ["extend-sweep", "--config", str(cfg), "--out", str(out), "--quiet"]))
            assert len((out / "extension_sweep.csv").read_text().splitlines()) == count + 1
        assert peaks[8] <= peaks[2] + spectrum_bytes

    def test_two_spectra_per_height(self, tmp_path, monkeypatch):
        # P_t and the second difference of P around t: one grouped convolution
        sampled = record_sampled_kernels(monkeypatch)
        cfg = write_config(tmp_path, "grid.n = 32\ngrid.extent = 8.0\n"
                                     "poisson.t_values = 2.4, 1.6, 1.2, 1.0\n")
        assert main(["extend-sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert sampled == [kernel for t in (2.4, 1.6, 1.2, 1.0) for kernel in
                           (PoissonKernel(t=t), PoissonSecondDifference(t=t, delta=t / 8.0))]

    def test_empty_height_list_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "poisson.t_values =\n")
        assert main(["extend-sweep", "--config", str(cfg), "--quiet"]) == 1


class TestResidualsCommand:
    def test_hydrogen_identity_rows(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "residuals", "--config", str(REPO / "configs" / "hydrogen_identity.cfg"),
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0].startswith("pipeline,term1_l2")
        table = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(table) == {"strong", "thm4", "thm5", "thm4_vs_strong_crosscheck"}
        assert float(table["thm4"][9]) <= 0.05
        assert float(table["thm5"][9]) <= 0.05

    def test_zero_orbital_rows_vanish(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "residuals", "--config", str(REPO / "configs" / "zero_orbital.cfg"),
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        for line in (out / "residuals.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            assert all(float(c) == 0.0 for c in cells[1:10])

    def test_zero_source_spends_no_convolution(self, monkeypatch):
        # the zero source's fields are those of hydrogen_identity: p from
        # build_p, zero q and s, with no Coulomb spectrum or convolution
        config = load_config(REPO / "configs" / "zero_orbital.cfg")
        reference = build_fields(
            config.system(),
            OrbitalSet(orbitals=(ScalarField.zeros(config.grid()),), energies=(0.0,),
                       validate=False),
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("the zero source convolved a field")

        monkeypatch.setattr(ConvolutionPlan, "convolve_with_kernel", forbidden)
        orbitals, fields, _, code = cli._residual_inputs(config)
        assert code == 0
        assert not orbitals.orbitals[0].values.any()
        assert fields.p.values.tobytes() == reference.p.values.tobytes()
        assert not fields.q.values.any() and not reference.q.values.any()
        assert len(fields.s) == 1 and len(fields.s[0]) == 1
        assert not fields.s[0][0].values.any()

    @pytest.mark.parametrize("command", ["residuals", "expand"])
    def test_zero_source_makes_no_kernel_convolution(self, tmp_path, monkeypatch, command):
        # every term, strong residual and truncated overlap field is zero, so
        # the engine samples no spectrum and transforms no field
        def forbidden(*args, **kwargs):
            raise AssertionError("the zero source convolved a field")

        monkeypatch.setattr(ConvolutionPlan, "kernel_spectrum", forbidden)
        monkeypatch.setattr(ConvolutionPlan, "_forward", forbidden)
        out = tmp_path / "out"
        assert main([command, "--config", str(REPO / "configs" / "zero_orbital.cfg"),
                     "--out", str(out), "--quiet"]) == 0
        csv = {"residuals": "residuals.csv", "expand": "expansion_ladder.csv"}[command]
        rows = [line.split(",") for line in (out / csv).read_text().splitlines()[1:]]
        assert rows and all(float(c) == 0.0 for row in rows for c in row[1:10])

    @pytest.mark.parametrize("command", ["residuals", "expand"])
    def test_no_zero_or_used_field_is_alive_at_the_peak(self, tmp_path, command):
        # at N = 32 the engine runs inline, so the traced peak does not
        # depend on the CPUs; zero arrays for q and the exchange term, or
        # the strong report's fields alive during the transformed
        # residuals, lift it to 5.46-5.68 MB (4.68-4.73 MB without them)
        cfg = write_config(tmp_path, HYDROGEN_32)
        peak = peak_traced_bytes(lambda: main(
            [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]))
        assert peak <= 5_100_000

    @pytest.mark.parametrize("command", ["residuals", "expand"])
    def test_zero_source_below_floor_is_resolution_error(self, tmp_path, capsys, command):
        # zero terms are not transformed, yet the height is still checked
        body = (REPO / "configs" / "zero_orbital.cfg").read_text()
        cfg = write_config(tmp_path, body.replace("residuals.t = 1.0", "residuals.t = 0.5"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: Poisson height t=0.5 below resolution floor 2h=0.666667"
        ]

    def test_five_spectra_p_t_twice(self, tmp_path, monkeypatch):
        # the transformed residuals sample their four kernels on one plan,
        # and the crosscheck samples P_t again on its own
        sampled = record_sampled_kernels(monkeypatch)
        cfg = write_config(tmp_path, HYDROGEN_32)
        assert main(["residuals", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert len(sampled) == 5 and len(set(sampled)) == 4
        assert sampled.count(PoissonKernel(t=1.5)) == 2

    def test_poisson_residual_computed_once(self, tmp_path, monkeypatch):
        # d2t P_t enters only the height-transformed residual, so one Poisson
        # evaluation per run convolves exactly one field with it; P_t itself
        # takes the local term and the crosscheck's convolved strong
        # residual (the zero exchange term of the hydrogen identity is not
        # transformed)
        kernels = []
        convolve = ConvolutionPlan.convolve_with_kernel

        def recorded(plan, f, kernel, **kwargs):
            if f.values.any():  # the engine transforms no zero field
                kernels.extend(kernel if isinstance(kernel, tuple) else (kernel,))
            return convolve(plan, f, kernel, **kwargs)

        orbitals = []
        paired = cli.transformed_residuals

        def counted(*args, **kwargs):
            orbitals.append(args[0])
            return paired(*args, **kwargs)

        monkeypatch.setattr(ConvolutionPlan, "convolve_with_kernel", recorded)
        monkeypatch.setattr(cli, "transformed_residuals", counted)
        cfg = write_config(tmp_path, HYDROGEN_32)
        code = main(["residuals", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
        assert code == 0
        assert orbitals == [0]
        kinds = [type(k).__name__ for k in kernels]
        assert kinds.count("PoissonDt2Kernel") == 1
        assert kinds.count("PoissonKernel") == 2


@pytest.mark.parametrize("command, name", [("residuals", "residuals.csv"),
                                           ("expand", "expansion_ladder.csv")])
def test_infinite_residual_norm_is_one_error_line(tmp_path, capsys, command, name):
    # Z = 1e300 leaves every field finite, but the L2 norms of the nuclear
    # term overflow; the CSV is not written
    cfg = write_config(tmp_path, "grid.n = 8\ngrid.extent = 4.0\nresiduals.t = 2.5\n"
                                 "residuals.source = hydrogen_identity\nbasis.count = 2\n"
                                 "system.nuclei = 1e300, 0.0, 0.0, 0.0\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{name}, row " in err[0]
    assert not (out / name).exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_csv_cell_writes_nothing(tmp_path, value):
    path = tmp_path / "out" / "rows.csv"
    with pytest.raises(NonFiniteError, match=r"^rows\.csv, row b: not finite in y$"):
        cli._write_csv(path, ["name", "x", "y"], [("a", 1.0, 2.0), ("b", 3.0, value)])
    assert not path.parent.exists() or list(path.parent.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_number_row_writes_nothing(tmp_path, value):
    # a row of numbers only takes the one-format path, with the same message
    path = tmp_path / "out" / "plane.csv"
    with pytest.raises(NonFiniteError, match=r"^plane\.csv, row -0\.5: not finite in y, value$"):
        cli._write_csv(path, ["x", "y", "value"], [(-1.0, 0.25, 2.0), (-0.5, value, value)])
    assert not path.parent.exists() or list(path.parent.iterdir()) == []


def test_number_rows_keep_the_cell_format(tmp_path):
    # one %.17g format per row writes what _fmt writes cell by cell
    path = tmp_path / "plane.csv"
    rows = [(-0.0, 1e-320, 0.1), (1.0 / 3.0, -2.5e300, 7), (np.float64(1e17), True, 5e-324)]
    cli._write_csv(path, ["x", "y", "value"], rows)
    want = ["x,y,value"] + [",".join(cli._fmt(cell) for cell in row) for row in rows]
    assert path.read_text() == "\n".join(want) + "\n"


class TestExpandCommand:
    def test_zero_source_ladder_vanishes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            f"""
grid.n = 32
grid.extent = 8.0
system.nuclei = 1.0, 0.0, 0.0, 0.0
residuals.source = zero
residuals.t = 1.2
basis.count = 1
basis.alpha0 = 0.5
output.dir = {out}
""",
        )
        assert main(["expand", "--config", str(cfg), "--quiet"]) == 0
        lines = (out / "expansion_ladder.csv").read_text().splitlines()
        assert lines[0] == "n,fit_error_l2,thm6_sup,thm6_l2,thm7_sup,thm7_l2,K_bound"
        cells = lines[1].split(",")
        assert all(float(c) == 0.0 for c in cells[1:6])

    def test_ladder_computes_four_spectra_for_three_orders(self, tmp_path, monkeypatch):
        # one plan keeps d2t P_t, P_t, lap w and w for every order
        sampled = record_sampled_kernels(monkeypatch)
        cfg = write_config(tmp_path, HYDROGEN_32 + "basis.count = 6\n")
        out = tmp_path / "out"
        assert main(["expand", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert len((out / "expansion_ladder.csv").read_text().splitlines()) == 1 + 3
        assert len(sampled) == len(set(sampled)) == 4

    def test_overflowing_height_is_one_error_line(self, tmp_path, capsys):
        # the P_t kernel's t**3 would overflow; validated() bounds t by the
        # padded box width first
        cfg = write_config(tmp_path, "grid.n = 8\ngrid.extent = 4.0\nresiduals.t = 1e300\n"
                                     "residuals.source = hydrogen_identity\nbasis.count = 1\n")
        assert main(["expand", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: residuals.t must be at most 4 * grid.extent = 16 ")

    def test_unit_beta_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "basis.beta = 1.0\n")
        assert main(["expand", "--config", str(cfg), "--quiet"]) == 1

    # the benchmark's hydrogen-identity expand config at N = 64
    LADDER_H = 18.0 / 64

    @pytest.fixture(scope="class")
    def ladders(self, tmp_path_factory):
        """``expansion_ladder.csv`` rows, as floats, with the nucleus at the
        origin and moved by the whole nodes (1, -1, 1)."""
        out = {}
        for shift in ((0, 0, 0), (1, -1, 1)):
            tmp = tmp_path_factory.mktemp("ladder")
            x, y, z = (s * self.LADDER_H for s in shift)
            cfg = write_config(tmp, f"""
grid.n = 64
grid.extent = 9.0
system.nuclei = 1.0, {x!r}, {y!r}, {z!r}
residuals.source = hydrogen_identity
residuals.t = {3 * self.LADDER_H!r}
masking.radius_cells = 4.0
basis.alpha0 = 0.1
basis.beta = 3.0
basis.count = 6
output.dir = {tmp / "out"}
""")
            assert main(["expand", "--config", str(cfg), "--quiet"]) == 0
            lines = (tmp / "out" / "expansion_ladder.csv").read_text().splitlines()[1:]
            out[shift] = np.array([[float(c) for c in line.split(",")] for line in lines])
        return out

    def test_ladder_follows_the_nucleus_by_whole_nodes(self, ladders):
        # the basis is centred on the nucleus, so a whole-node move leaves
        # the discrete problem unchanged up to box truncation (6.3e-4 at most)
        origin, moved = ladders[(0, 0, 0)], ladders[(1, -1, 1)]
        assert origin.shape == moved.shape == (3, 7)
        assert np.all(np.abs(moved - origin) <= 1e-3 * np.abs(origin))

    def test_off_origin_ladder_decays(self, ladders):
        # columns n, fit_error_l2, thm6_sup, thm6_l2, thm7_sup, thm7_l2, K_bound
        moved = ladders[(1, -1, 1)]
        for column in (3, 4):  # thm6_l2, thm7_sup
            assert np.all(np.diff(moved[:, column]) < 0.0), moved[:, column]


class TestVerifyCommand:
    def test_default_config_passes(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "verify", "--config", str(REPO / "configs" / "verify.cfg"),
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        lines = (out / "verify_results.csv").read_text().splitlines()
        assert lines[0] == "check,value,bound,status"
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_grid_n_flag_overrides_config(self, tmp_path):
        # a deliberately hopeless grid: failing checks prove the override
        # reached the run (the config's own N=64 passes)
        out = tmp_path / "out"
        code = main([
            "verify", "--config", str(REPO / "configs" / "verify.cfg"),
            "--grid-n", "16", "--out", str(out), "--quiet",
        ])
        assert code == 3
        text = (out / "verify_results.csv").read_text()
        assert ",FAIL" in text

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a grid too large for the host, e.g. grid.n = 2048, fails its first
        # grid-sized allocation; the command is replaced so nothing large is
        # allocated here
        def exhausted(config, out, quiet):
            raise MemoryError("Unable to allocate 64.0 GiB for an array")

        monkeypatch.setitem(cli._COMMANDS, "verify", exhausted)
        cfg = write_config(tmp_path, "grid.n = 16\n")
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory (Unable to allocate 64.0 GiB for an array); "
            "a smaller grid.n needs less"
        ]

    # verify.cfg's lowest heights are below 2h, so its extension ladder warns
    @pytest.mark.filterwarnings("ignore::convolve_hf.errors.ResolutionWarning")
    def test_eight_spectra(self, monkeypatch):
        # 1/r; P_t and its second difference for thm3a; the four heights of
        # verify.cfg and t = 2 for the boundary and sup checks
        sampled = record_sampled_kernels(monkeypatch)
        config = dataclasses.replace(load_config(REPO / "configs" / "verify.cfg"), grid_n=32)
        verify.run_verify(config)
        assert len(sampled) == len(set(sampled)) == 8

    # verify.cfg's lowest heights are below 2h, so its extension ladder warns
    @pytest.mark.filterwarnings("ignore::convolve_hf.errors.ResolutionWarning")
    def test_one_coulomb_spectrum(self, monkeypatch):
        # the Coulomb oracle and the eq5 overlap bound share run_verify's plan
        sampled = record_sampled_kernels(monkeypatch)
        config = dataclasses.replace(load_config(REPO / "configs" / "verify.cfg"), grid_n=32)
        verify.run_verify(config)
        assert [k for k in sampled if isinstance(k, CoulombKernel)] == [CoulombKernel()]

    # verify.cfg's lowest heights are below 2h, so its extension ladder warns
    @pytest.mark.filterwarnings("ignore::convolve_hf.errors.ResolutionWarning")
    def test_overlap_bound_is_that_of_the_built_fields(self):
        config = load_config(REPO / "configs" / "verify.cfg")
        value = {r.check: r.value for r in verify.run_verify(config)}["eq5_s_sup_bound"]
        grid = config.grid()
        f = sample(Gaussian(alpha=0.5, amplitude=1.0), grid)
        psi = f * (1.0 / norm(f, 2))
        system = MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
        fields = build_fields(system, OrbitalSet(orbitals=(psi,), energies=(0.0,)))
        assert value.hex() == fields.s_sup_max().hex()

    def test_violated_sup_hook_names_the_check(self, tmp_path, capsys, monkeypatch):
        # check a 1.5x extension instead, which breaks ||base||_inf <= 1
        check = verify.sup_bound_check

        def scaled(ext):
            return check(HarmonicExtension(base=ext.base * 1.5, heights=ext.heights,
                                           slices=tuple(s * 1.5 for s in ext.slices)))

        monkeypatch.setattr(verify, "sup_bound_check", scaled)
        cfg = REPO / "configs" / "verify.cfg"
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "thm4b_sup_bound" in err and "precondition" in err


class TestOutputOverrides:
    def test_flag_wins_over_output_dir(self, tmp_path):
        cfg = write_config(tmp_path, f"output.dir = {tmp_path / 'from_config'}\n")
        out = tmp_path / "from_flag"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "verify_results.csv").exists()
        assert not (tmp_path / "from_config").exists()

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_out_through_an_existing_file_is_one_error_line(self, tmp_path, capsys, sub):
        # --out naming a file (FileExistsError), or a path below one (NotADirectoryError)
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n")
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 2.0\n")
        out = blocker / sub if sub else blocker
        assert main(["extend-sweep", "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
        assert str(blocker) in err[0] and blocker.read_text() == "keep\n"

    def test_unwritable_output_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # a directory without write permission; running as root ignores
        # the mode bits, so the refusal is simulated
        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 2.0\n")
        monkeypatch.setattr(Path, "write_text", refuse)
        assert main(["extend-sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
        assert "Permission denied" in err[0]

    def test_console_script_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 2.0\n")
        proc = subprocess.run(
            [sys.executable, "-m", "convolve_hf.cli", "extend-sweep",
             "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0


class TestStartup:
    @staticmethod
    def _loaded_by_cli_import(module):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, convolve_hf.cli; print({module!r} in sys.modules)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_import_leaves_scipy_sparse_unloaded(self):
        # the SCF's eigensolver is imaginary time on numpy.fft; only the
        # tests' LOBPCG oracle uses scipy.sparse
        assert self._loaded_by_cli_import("scipy.sparse") == "False"

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # the basis projection's Cholesky solve is numpy.linalg's
        assert self._loaded_by_cli_import("scipy.linalg") == "False"

    def test_no_module_imports_scipy(self):
        # numpy is the package's only runtime dependency (pyproject.toml)
        found = []
        for path in sorted((REPO / "src" / "convolve_hf").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}" for name in names
                          if name.partition(".")[0] == "scipy"]
        assert found == []

    def test_cli_import_starts_no_thread(self):
        # the convolution engine's worker pool is made on first use
        assert self._loaded_by_cli_import("concurrent.futures") == "False"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import threading, convolve_hf.cli; print(threading.active_count())"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_cli_import_leaves_numpy_polynomial_unloaded(self):
        # the Gauss-Legendre rules are computed by the functions that use them
        assert self._loaded_by_cli_import("numpy.polynomial") == "False"

    def test_commands_load_neither_scipy_nor_numpy_random(self, tmp_path):
        # FFTs, the Cholesky solve and erf come from numpy and math, the
        # SCF's eigensolver is imaginary time, and the bound points and
        # verify's test fields are a closed-form sequence: no command imports
        # scipy or numpy.random.  The Gauss-Legendre rule of an under-resolved
        # kernel loads numpy.polynomial, and no height of scf, residuals or
        # expand here is below 2h, so those three run first and leave it out.
        hydrogen = write_config(tmp_path, (
            "grid.n = 16\ngrid.extent = 8.0\nsystem.nuclei = 1.0, 0.0, 0.0, 0.0\n"
            "residuals.source = hydrogen_identity\nresiduals.t = 2.5\nbasis.count = 4\n"),
            name="h16.cfg")
        helium = write_config(tmp_path, (
            "grid.n = 16\ngrid.extent = 8.0\nsystem.nuclei = 2.0, 0.0, 0.0, 0.0\n"
            "scf.eigensolver = imaginary_time\n"), name="he16.cfg")
        runs = [
            ["scf", "--config", str(helium)],
            ["residuals", "--config", str(hydrogen)],
            ["expand", "--config", str(hydrogen)],
            ["extend-sweep", "--config", str(REPO / "configs" / "extend_sweep.cfg"),
             "--grid-n", "16"],
            # every check runs; on this coarse grid some fail (exit 3)
            ["verify", "--config", str(REPO / "configs" / "verify.cfg"), "--grid-n", "16"],
        ]
        script = (
            "import json, sys\n"
            "import convolve_hf.cli as cli\n"
            "def loaded():\n"
            "    return [sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'),\n"
            "            'numpy.random' in sys.modules, 'numpy.polynomial' in sys.modules]\n"
            "seen = {'import': [0] + loaded()}\n"
            "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
            "    code = cli.main(argv + ['--out', sys.argv[2] + str(i), '--quiet'])\n"
            "    seen[argv[0]] = [code] + loaded()\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(runs), str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert {command: row[:3] for command, row in seen.items()} == {
            "import": [0, [], False], "scf": [0, [], False], "residuals": [0, [], False],
            "expand": [0, [], False], "extend-sweep": [0, [], False], "verify": [3, [], False]}
        assert [seen[c][3] for c in ("import", "scf", "residuals", "expand")] == [False] * 4
