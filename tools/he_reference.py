#!/usr/bin/env python3
"""Generate ``src/convolve_hf/data/he_reference.json``, the helium grid
study behind the energy band of acceptance criterion 11.

    PYTHONPATH=src python3 tools/he_reference.py           # write the file
    PYTHONPATH=src python3 tools/he_reference.py --check   # compare, write nothing

He (Z = 2, nucleus at the origin, L = 12) is solved with the shipped SCF
settings at N = 64, 96 and 128.  A power law E(h) = E_inf + C h^p is
fitted through the three total energies, and the band is the N = 128
energy +- 1.6 |E(128) - E(96)|.  ``--check`` runs the same study and
compares it with the committed file: the energies and the band must
agree to 1e-7, or it exits 1.  It prints the fit too, without gating on
it: the fit is ill-conditioned, and an energy change of 1e-9 moves the
order by about 5e-8.  The three solves take about 13 s on a 2-core host.
"""

import argparse
import json
import sys
from pathlib import Path

from convolve_hf import GridSpec, MolecularSystem, energies, norm, solve

REFERENCE = Path(__file__).resolve().parents[1] / "src/convolve_hf/data/he_reference.json"
EXTENT = 12.0
GRIDS = (64, 96, 128)
BAND_FACTOR = 1.6
CHECK_TOL = 1e-7
NOTE = (
    "band = N=128 energy +- 1.6 * |E(128) - E(96)|, the observed grid-refinement envelope; "
    "the acceptance suite asserts a fresh N=96 run lands inside. Convergence in h is slow "
    "(cusp-limited, roughly first order), drifting toward the expected value near -2.86 "
    "hartree; the three-point power-law fit is ill-conditioned at these spacings and its "
    "extrapolation is indicative only."
)


def solve_grid(n: int) -> dict:
    """One converged He solve at N = n, as a ``grids`` entry of the file."""
    system = MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
    result = solve(system, GridSpec(points_per_axis=n, extent=EXTENT))
    report = energies(result.orbitals, result.fields)
    return {
        "total_energy": float(report.total),
        "kinetic": float(report.kinetic),
        "potential": float(report.potential),
        "virial_ratio": float(report.virial_ratio),
        "epsilon": result.orbitals.energies[0],
        "iterations": result.iteration_count,
        "converged": result.converged,
        "final_residual": result.final_residual,
        "orbital_sup": float(norm(result.orbitals.orbitals[0], float("inf"))),
        "wall_seconds": round(result.wall_seconds, 1),
    }


def fit_and_band(total_energies: dict) -> tuple[dict, dict]:
    """The ``fit`` and ``band`` entries from the total energies of N = 64,
    96 and 128 (keyed by N).

    The order p solves (E64 - E96) / (E96 - E128) = (h64^p - h96^p) /
    (h96^p - h128^p) with h = 2L/N; the right side increases with p, so
    bisection brackets the root to the last bit.
    """
    (h1, h2, h3) = (2.0 * EXTENT / n for n in GRIDS)
    (e1, e2, e3) = (total_energies[n] for n in GRIDS)
    target = (e1 - e2) / (e2 - e3)
    lo, hi = 1e-6, 50.0
    while True:
        p = 0.5 * (lo + hi)
        if not lo < p < hi:
            break
        if (h1**p - h2**p) / (h2**p - h3**p) < target:
            lo = p
        else:
            hi = p
    c = (e1 - e2) / (h1**p - h2**p)
    half_width = BAND_FACTOR * abs(e3 - e2)
    fit = {"order": p, "extrapolated_energy": e3 - c * h3**p}
    band = {"center": e3, "half_width": half_width,
            "lower": e3 - half_width, "upper": e3 + half_width}
    return fit, band


def study() -> dict:
    """The whole file: one solve per grid, the fit and the band."""
    grids = {}
    for n in GRIDS:
        grids[str(n)] = solve_grid(n)
        print(f"N = {n}: E = {grids[str(n)]['total_energy']!r} "
              f"({grids[str(n)]['wall_seconds']} s)", file=sys.stderr)
    fit, band = fit_and_band({n: grids[str(n)]["total_energy"] for n in GRIDS})
    return {
        "system": "He (Z=2), closed shell, one doubly occupied orbital",
        "extent": EXTENT,
        "grids": grids,
        "fit": fit,
        "band": band,
        "note": NOTE,
    }


def compare(fresh: dict, committed: dict) -> list[str]:
    """One line per number --check reports; an energy or band value off
    by more than CHECK_TOL starts with FAIL, a fit value with info."""
    rows = [(f"grids.{n}.total_energy", fresh["grids"][str(n)]["total_energy"],
             committed["grids"][str(n)]["total_energy"]) for n in GRIDS]
    rows += [(f"{part}.{key}", fresh[part][key], committed[part][key])
             for part in ("band", "fit") for key in committed[part]]
    lines = []
    for name, new, old in rows:
        status = "ok" if abs(new - old) <= CHECK_TOL else "FAIL"
        if name.startswith("fit."):
            status = "info"
        lines.append(f"{status} {name}: {new!r} vs committed {old!r} "
                     f"(diff {abs(new - old):.1e})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed file instead of writing it")
    args = parser.parse_args(argv)
    fresh = study()
    if not args.check:
        REFERENCE.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"wrote {REFERENCE}")
        return 0
    lines = compare(fresh, json.loads(REFERENCE.read_text()))
    print("\n".join(lines))
    return 1 if any(line.startswith("FAIL") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
