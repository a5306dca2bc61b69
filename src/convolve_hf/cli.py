"""Command-line frontend.

    convolve-hf <scf|extend-sweep|residuals|expand|verify>
                --config <path> [--out <dir>] [--grid-n <int>] [--quiet]

Exit codes: 0 success, 1 configuration/validation error (a config value
whose computation leaves the floating-point range included), an output
path that cannot be written or an allocation that fails, 2 SCF did not
converge or diverged, 3 an invariant check failed.  All CSV files are
written atomically (temp file + rename) with a header row; floats are printed
with 17 significant digits, so identical configurations produce
byte-identical outputs, and a NaN or infinite one exits 1 before its file
is written.  ``--out`` overrides the config's output.dir.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import RunConfig, _read_config
from .convolution import ConvolutionPlan, under_resolved
from .errors import (
    ConfigError,
    IllConditionedBasisError,
    NonFiniteError,
    ResolutionError,
    ScfDivergedError,
)
from .expansion import expansion_transformed_residuals, project_orbitals
from .extension import harmonicity_residual
from .fields import ScalarField, norm
from .hf import (
    L2_SQUARE_BOUND,
    S_SUP_BOUND,
    HfFields,
    OrbitalSet,
    build_p,
    check_orbital_bounds,
    energies,
    strong_terms,
)
from .kernels import Gaussian, Slater1s, basis_function, sample
from .residuals import (
    ResidualReport,
    poisson_crosscheck,
    require_resolved,
    transformed_residuals,
)
from .scf import solve
from .verify import run_verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NOT_CONVERGED = 2
EXIT_INVARIANT = 3


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_atomic(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_csv(path: Path, header, rows):
    """Write ``rows`` under ``header``; a NaN or infinite number raises
    NonFiniteError before anything is written."""
    lines = [",".join(header)]
    for row in rows:
        bad = [name for name, cell in zip(header, row)
               if not (isinstance(cell, str) or math.isfinite(cell))]
        if bad:
            raise NonFiniteError(f"{path.name}, row {row[0]}: not finite in {', '.join(bad)}")
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _say(quiet: bool, *message):
    if not quiet:
        print(*message)


def _scf_exit(result) -> int:
    """EXIT_OK for a converged solve; otherwise one ``error:`` line and
    EXIT_NOT_CONVERGED."""
    if result.converged:
        return EXIT_OK
    print(f"error: SCF did not converge in {result.iteration_count} iterations",
          file=sys.stderr)
    return EXIT_NOT_CONVERGED


# ----------------------------------------------------------------- scf


def cmd_scf(config: RunConfig, out: Path, quiet: bool) -> int:
    grid, system = config.grid(), config.system()
    result = solve(system, grid, config.scf_max_iter)
    _write_csv(
        out / "scf_history.csv",
        ["iteration", "energy", "residual", "epsilon"],
        [(str(it.iteration), it.energy, it.residual, it.epsilon) for it in result.history],
    )
    x = grid.axis_coordinates().tolist()
    k0 = grid.points_per_axis // 2  # z = 0 plane
    plane = result.orbitals.orbitals[0].values[:, :, k0].tolist()
    plane_rows = [(xi, xj, value) for xi, row in zip(x, plane) for xj, value in zip(x, row)]
    _write_csv(out / "orbital_z0.csv", ["x", "y", "value"], plane_rows)

    report = energies(result.orbitals, result.fields)
    bounds = check_orbital_bounds(result.orbitals, system, result.fields)
    summary = [
        f"converged = {result.converged}",
        f"iterations = {result.iteration_count}",
        f"epsilon = {_fmt(result.orbitals.energies[0])}",
        f"kinetic = {_fmt(report.kinetic)}",
        f"potential = {_fmt(report.potential)}",
        f"total_energy = {_fmt(report.total)}",
        f"virial_ratio = {_fmt(report.virial_ratio)}",
        f"final_residual = {_fmt(result.final_residual)}",
        f"max_s_sup = {_fmt(bounds.max_s_sup)} (bound {_fmt(S_SUP_BOUND)})",
        f"max_l2_square = {_fmt(bounds.max_l2_square)} (bound {_fmt(L2_SQUARE_BOUND)})",
        f"bound_checks_pass = {bounds.all_ok}",
        f"orbital_sup_bounded = {result.orbitals.sup_bounded}",
        f"wall_seconds = {result.wall_seconds:.1f}",
    ]
    _write_atomic(out / "summary.txt", "\n".join(summary) + "\n")
    _say(quiet, "\n".join(summary))
    return _scf_exit(result)


# -------------------------------------------------------- extend-sweep


def cmd_extend_sweep(config: RunConfig, out: Path, quiet: bool) -> int:
    if not config.poisson_t_values:
        raise ConfigError("poisson.t_values is empty")
    grid = config.grid()
    base = sample(Gaussian(alpha=config.window_alpha, amplitude=1.0), grid)
    base_l2 = norm(base, 2)
    rows = []
    for t in sorted(config.poisson_t_values, reverse=True):
        sl, defect = harmonicity_residual(base, t, t / 8.0)
        flag = "unresolved" if under_resolved(t, grid) else ""
        distance = sl - base
        rows.append(
            (
                t,
                norm(distance, 2),
                norm(distance, np.inf),
                norm(sl, np.inf),
                4.0 / (np.pi * t),
                defect,
                flag,
            )
        )
        del sl, distance  # this height's slice goes before the next height's
    _write_csv(
        out / "extension_sweep.csv",
        ["t", "l2_distance", "sup_distance", "sup_norm", "paper_bound_4_over_pi_t",
         "harmonicity_defect", "flag"],
        rows,
    )
    _say(quiet, f"extension sweep over {len(rows)} heights written; "
         f"base L2 = {_fmt(base_l2)}")
    return EXIT_OK


# ----------------------------------------------------------- residuals


def _residual_inputs(config: RunConfig):
    """(orbitals, fields, system, scf_exit) for the configured source.  An
    under-resolved residuals.t exits 1 before the SCF, so a non-converged
    solve's ``error:`` line is the only one."""
    grid = config.grid()
    require_resolved(config.residuals_t, grid)
    system = config.system()
    if config.residuals_source == "scf":
        result = solve(system, grid, config.scf_max_iter)
        return result.orbitals, result.fields, system, _scf_exit(result)
    # zero and hydrogen_identity: the two-electron fields q and s are zero
    if config.residuals_source == "zero":
        zero = ScalarField.zeros(grid)
        orbitals = OrbitalSet(orbitals=(zero,), energies=(0.0,), validate=False)
    else:
        psi = sample(Slater1s(center=system.nuclei[0][1]), grid)
        orbitals = OrbitalSet(orbitals=(psi * (1.0 / norm(psi, 2)),), energies=(-0.5,))
    fields = HfFields(p=build_p(system, grid), s=((ScalarField.zeros(grid),),))
    return orbitals, fields, system, EXIT_OK


def cmd_residuals(config: RunConfig, out: Path, quiet: bool) -> int:
    orbitals, fields, system, code = _residual_inputs(config)
    t = config.residuals_t
    w = Gaussian(alpha=config.window_alpha, amplitude=1.0)
    a = 0
    plan = ConvolutionPlan(orbitals.grid)  # keeps the P_t spectrum for the crosscheck
    thm4, thm5 = transformed_residuals(a, orbitals, fields, t, w, plan)
    cross = poisson_crosscheck(thm4, orbitals, fields, system, plan=plan)
    del plan
    # the strong terms last, so that their fields are not alive at the
    # command's peak, which is inside transformed_residuals
    strong = ResidualReport.from_terms(
        ("laplacian", "potential", "exchange"),
        strong_terms(a, orbitals, fields, system),
        {"orbital": a, "laplacian": "spectral", "masked": True},
    )

    def row(name, rep: ResidualReport, param):
        return (
            name,
            rep.term_l2[0], rep.term_sup[0],
            rep.term_l2[1], rep.term_sup[1],
            rep.term_l2[2], rep.term_sup[2],
            rep.total_l2, rep.total_sup, rep.relative, param,
        )

    rows = [
        row("strong", strong, "masked"),
        row("thm4", thm4, f"t={t:g}"),
        row("thm5", thm5, f"alpha={config.window_alpha:g}"),
        (
            "thm4_vs_strong_crosscheck",
            thm4.total_l2, thm4.total_sup,
            cross.convolved_strong_l2, cross.convolved_strong_sup,
            0.0, 0.0,
            cross.diff_l2, cross.diff_sup, cross.relative, f"t={t:g}",
        ),
    ]
    _write_csv(
        out / "residuals.csv",
        ["pipeline", "term1_l2", "term1_sup", "term2_l2", "term2_sup",
         "term3_l2", "term3_sup", "total_l2", "total_sup", "relative", "param"],
        rows,
    )
    _say(quiet, f"strong relative = {_fmt(strong.relative)}")
    _say(quiet, f"thm4 relative = {_fmt(thm4.relative)}")
    _say(quiet, f"thm5 relative = {_fmt(thm5.relative)}")
    _say(quiet, f"crosscheck relative = {_fmt(cross.relative)}")
    return code


# -------------------------------------------------------------- expand


def cmd_expand(config: RunConfig, out: Path, quiet: bool) -> int:
    orbitals, fields, system, code = _residual_inputs(config)
    if code != EXIT_OK:
        return code
    center = tuple(system.charge_barycenter())  # the nucleus of a one-nucleus system
    basis = [replace(basis_function(k, config.basis_alpha0, config.basis_beta), center=center)
             for k in range(config.basis_count)]
    orders = config.orders()
    state = project_orbitals(orbitals, basis, orders)
    t = config.residuals_t
    w = Gaussian(alpha=config.window_alpha, amplitude=1.0)
    ladder = expansion_transformed_residuals(state, 0, orbitals, fields, t, w)
    rows = [
        (
            str(row.order),
            state.fit_errors[row.order][0],
            row.thm6_sup, row.thm6_l2,
            row.thm7_sup, row.thm7_l2,
            state.k_bound,
        )
        for row in ladder
    ]
    _write_csv(
        out / "expansion_ladder.csv",
        ["n", "fit_error_l2", "thm6_sup", "thm6_l2", "thm7_sup", "thm7_l2", "K_bound"],
        rows,
    )
    _say(quiet, f"expansion ladder over orders {state.orders}; "
         f"Gram condition {state.gram_condition:.3e}")
    return EXIT_OK


# -------------------------------------------------------------- verify


def cmd_verify(config: RunConfig, out: Path, quiet: bool) -> int:
    results = run_verify(config)
    rows = [(r.check, r.value, r.bound, "pass" if r.passed else "FAIL") for r in results]
    _write_csv(out / "verify_results.csv", ["check", "value", "bound", "status"], rows)
    width = max(len(r.check) for r in results)
    for r in results:
        _say(quiet, f"{r.check:<{width}}  value={_fmt(r.value):<24} "
             f"bound={_fmt(r.bound):<24} {'pass' if r.passed else 'FAIL'}"
             + (f"  [{r.detail}]" if r.detail else ""))
    failures = [r for r in results if not r.passed]
    if failures:
        print("failed checks: " + ", ".join(r.check for r in failures), file=sys.stderr)
        for r in failures:
            if r.detail:
                print(f"  {r.check}: {r.detail}", file=sys.stderr)
        return EXIT_INVARIANT
    _say(quiet, f"all {len(results)} checks passed")
    return EXIT_OK


# ---------------------------------------------------------------- main


_COMMANDS = {
    "scf": cmd_scf,
    "extend-sweep": cmd_extend_sweep,
    "residuals": cmd_residuals,
    "expand": cmd_expand,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convolve-hf",
        description="Grid laboratory for closed-shell Hartree-Fock equations "
        "and their convolution transforms",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        p.add_argument("--grid-n", type=int, default=None, help="override grid.n")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _read_config(args.config)
        if args.grid_n is not None:
            config = replace(config, grid_n=args.grid_n)
        config = config.validated()
        out = Path(args.out or config.output_dir)
        with warnings.catch_warnings():
            if args.quiet:
                warnings.simplefilter("ignore")
            return _COMMANDS[args.command](config, out, args.quiet)
    except (ConfigError, IllConditionedBasisError, ResolutionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ScfDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except ArithmeticError as exc:  # overflow, division by zero, a NaN or inf field
        print(f"error: a computed value left the floating-point range: {exc!r}; "
              f"a config value is too large or too small", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid too large for the host's memory
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}; a smaller grid.n needs less", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
