import dataclasses
import importlib.util
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from convolve_hf import cli, verify
from convolve_hf.cli import main
from convolve_hf.config import _KEYS, RunConfig, load_config, parse_config
from convolve_hf.convolution import ConvolutionPlan
from convolve_hf.errors import ConfigError
from convolve_hf.extension import HarmonicExtension
from convolve_hf.fields import ScalarField
from convolve_hf.hf import OrbitalSet, build_fields
from convolve_hf.scf import ScfConfig

REPO = Path(__file__).resolve().parent.parent


def write_config(tmp_path: Path, body: str, name="run.cfg") -> Path:
    path = tmp_path / name
    path.write_text(body)
    return path


# every float-valued key, with the value slot of its config line
FLOAT_KEYS = {
    "grid.extent": "{}",
    "system.nuclei": "1.0, {}, 0.0, 0.0",
    "scf.mixing": "{}",
    "scf.tol_energy": "{}",
    "scf.tol_orbital": "{}",
    "scf.time_step": "{}",
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
        assert cfg.scf_eigensolver == "imaginary_time"

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

    def test_unknown_eigensolver_rejected(self):
        with pytest.raises(ConfigError, match="eigensolver"):
            parse_config("scf.eigensolver = lobpcg\n")

    @pytest.mark.parametrize("pairs", [0, 2, 3])
    def test_pair_count_other_than_one_named(self, pairs):
        with pytest.raises(ConfigError, match=rf"^system\.pairs must be 1 .*got {pairs}$"):
            parse_config(f"system.pairs = {pairs}\n")

    def test_one_pair_accepted(self):
        # the key stays: generated benchmark configs write it explicitly
        assert parse_config("system.pairs = 1\n").pairs == 1

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

    def test_time_step_auto(self):
        assert parse_config("scf.time_step = auto\n").scf_time_step is None
        assert parse_config("scf.time_step = 0.004\n").scf_time_step == 0.004

    def test_scf_defaults_are_those_of_scf_config(self):
        assert RunConfig().scf() == ScfConfig()

    def test_readme_table_lists_every_key(self):
        text = (REPO / "README.md").read_text()
        table = text.split("### Config format", 1)[1].split("###", 1)[0]
        rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
        listed = [key for row in rows for key in re.findall(r"`([^`]+)`", row)]
        assert sorted(listed) == sorted(_KEYS)

    def test_orders_default_ladder(self):
        cfg = parse_config("basis.count = 8\n")
        assert cfg.orders() == (2, 4, 6, 8)
        cfg = parse_config("basis.count = 8\nexpand.orders = 3, 5\n")
        assert cfg.orders() == (3, 5)


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

    def test_generated_inputs_parse(self, bench, tmp_path):
        # SCF_CONFIG, RESIDUALS_CONFIG, EXTEND_CONFIG and VERIFY_CONFIG,
        # formatted with the values of seed 101
        for make_inputs in (bench.scf_inputs, bench.transforms_inputs):
            commands, _ = make_inputs(random.Random(101), tmp_path)
            for command in commands:
                parse_config(command.config.read_text())


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


class TestScfCommand:
    def test_smoke_run_writes_contract_files(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SCF_SMOKE.format(out=out))
        code = main(["scf", "--config", str(cfg), "--quiet"])
        assert code == 0
        history = (out / "scf_history.csv").read_text().splitlines()
        assert history[0] == "iteration,energy,orbital_change,epsilon"
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

    def test_divergence_exit_code_single_error_line(self, tmp_path):
        # a huge explicit step overflows the imaginary-time norm
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 8.0\nscf.time_step = 1e300\n")
        proc = subprocess.run(
            [sys.executable, "-m", "convolve_hf.cli", "scf",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: imaginary-time propagation diverged; reduce time_step"
        ]

    @pytest.mark.parametrize("command", ["scf", "residuals", "expand"])
    def test_multi_pair_system_is_config_error(self, tmp_path, capsys, command):
        # only the one-orbital SCF exists: exit 1 before any computation
        cfg = write_config(tmp_path, "grid.n = 16\ngrid.extent = 8.0\nsystem.pairs = 2\n")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: system.pairs must be 1")
        assert not (tmp_path / "o").exists()

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
        # every term, strong residual and truncated overlap field is zero
        def forbidden(*args, **kwargs):
            raise AssertionError("the zero source convolved a field")

        monkeypatch.setattr(ConvolutionPlan, "convolve_with_kernel", forbidden)
        out = tmp_path / "out"
        assert main([command, "--config", str(REPO / "configs" / "zero_orbital.cfg"),
                     "--out", str(out), "--quiet"]) == 0
        csv = {"residuals": "residuals.csv", "expand": "expansion_ladder.csv"}[command]
        rows = [line.split(",") for line in (out / csv).read_text().splitlines()[1:]]
        assert rows and all(float(c) == 0.0 for row in rows for c in row[1:10])

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

    def test_poisson_residual_computed_once(self, tmp_path, monkeypatch):
        # d2t P_t enters only the height-transformed residual, so one Poisson
        # evaluation per run convolves exactly one field with it; P_t itself
        # takes the local term and the crosscheck's convolved strong
        # residual (the zero exchange term of the hydrogen identity is not
        # transformed)
        kernels = []
        convolve = ConvolutionPlan.convolve_with_kernel

        def recorded(plan, f, kernel, **kwargs):
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

    def test_unit_beta_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "basis.beta = 1.0\n")
        assert main(["expand", "--config", str(cfg), "--quiet"]) == 1


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
    def test_env_var_honored_when_flag_absent(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, f"output.dir = {tmp_path / 'from_config'}\n")
        monkeypatch.setenv("CONVOLVE_HF_OUT", str(tmp_path / "from_env"))
        assert main(["verify", "--config", str(cfg), "--quiet"]) == 0
        assert (tmp_path / "from_env" / "verify_results.csv").exists()
        assert not (tmp_path / "from_config").exists()

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "grid.n = 64\n")
        monkeypatch.setenv("CONVOLVE_HF_OUT", str(tmp_path / "from_env"))
        out = tmp_path / "from_flag"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert (out / "verify_results.csv").exists()
        assert not (tmp_path / "from_env").exists()

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
        # scipy.sparse is imported only by the inverse-iteration eigensolver
        assert self._loaded_by_cli_import("scipy.sparse") == "False"

    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        # scipy.linalg is imported only by the basis projection's Cholesky solve
        assert self._loaded_by_cli_import("scipy.linalg") == "False"
