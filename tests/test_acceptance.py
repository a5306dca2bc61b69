"""Acceptance gate: one test per criterion, each printing a PASS line
with the measured value.  Grids are stated per test; tolerances are fixed
here and nowhere else.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

import convolve_hf as chf
from convolve_hf.cli import main
from convolve_hf.errors import ResolutionWarning

from support import (
    direct_convolution,
    hydrogen_identity,
    normalized_field,
    random_smooth_orbital,
    unit_gaussian_orbital,
)

REPO = Path(__file__).resolve().parent.parent


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: {text}: PASS")


def test_criterion_01_coulomb_oracle():
    grid = chf.GridSpec(points_per_axis=64, extent=10.0)
    alpha = 1.0
    density = chf.sample(chf.Gaussian(alpha=alpha), grid)
    potential = chf.ConvolutionPlan(grid).convolve_with_kernel(density, chf.CoulombKernel())
    potential = potential.values.real
    r = np.sqrt(grid.radius_squared())
    with np.errstate(invalid="ignore"):
        exact = np.where(
            r > 1e-12,
            erf(np.sqrt(alpha) * r) / np.where(r > 0, r, 1.0),
            2.0 * np.sqrt(alpha / np.pi),
        )
    rel_inf = np.abs(potential - exact).max() / exact.max()
    center = grid.nearest_node((0.0, 0.0, 0.0))
    limit = 2.0 * np.sqrt(alpha / np.pi)
    center_rel = abs(potential[center] - limit) / limit
    assert rel_inf <= 0.01
    assert center_rel <= 0.01
    report(1, f"Coulomb oracle rel_inf={rel_inf:.4f}, center={center_rel:.4f} <= 1%")


def test_criterion_02_overlap_sup_bound(he_result_96, he_system, rng):
    worst = 0.0
    # every orbital set the suite generates obeys the hard bound
    grid = chf.GridSpec(points_per_axis=64, extent=10.0)
    a = unit_gaussian_orbital(grid, 1.0)
    b = random_smooth_orbital(grid, rng)
    b = normalized_field(b - chf.inner(a, b) * a)
    pair = chf.OrbitalSet(orbitals=(a, b), energies=(0.0, 0.0))
    system2 = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
    worst = max(worst, chf.build_fields(system2, pair).s_sup_max())
    slater = chf.OrbitalSet(
        orbitals=(normalized_field(chf.sample(chf.Slater1s(), grid)),), energies=(-0.5,)
    )
    system1 = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
    worst = max(worst, chf.build_fields(system1, slater).s_sup_max())
    worst = max(worst, he_result_96.fields.s_sup_max())
    assert worst <= chf.S_SUP_BOUND  # zero tolerance
    report(2, f"sup|s| = {worst:.4f} <= 2 sqrt(pi) + 1 = {chf.S_SUP_BOUND:.4f}")


def test_criterion_03_weighted_l2_bound(he_result_96, he_system):
    grid = chf.GridSpec(points_per_axis=64, extent=8.0)
    slater = normalized_field(chf.sample(chf.Slater1s(), grid))
    slater_value = chf.coulomb_square_integral(slater, (0.0, 0.0, 0.0))
    assert slater_value == pytest.approx(2.0, rel=0.005)  # radial-oracle value
    worst = slater_value
    rng = np.random.default_rng(11)
    gauss = unit_gaussian_orbital(grid, 1.0)
    for psi in (slater, gauss, he_result_96.orbitals.orbitals[0]):
        pts = [(0.0, 0.0, 0.0)] + [
            tuple(rng.uniform(-0.5 * psi.grid.extent, 0.5 * psi.grid.extent, 3))
            for _ in range(10)
        ]
        for eta in pts:
            worst = max(worst, chf.coulomb_square_integral(psi, eta))
    assert worst <= chf.L2_SQUARE_BOUND  # hard bound
    report(3, f"max int |h_eta psi|^2 = {worst:.4f} <= 4 pi + 1; "
              f"Slater case {slater_value:.5f} vs 2 within 0.5%")


def test_criterion_04_harmonicity_defect():
    defects = []
    for n, delta in ((96, 0.15), (192, 0.075)):
        grid = chf.GridSpec(points_per_axis=n, extent=8.0)
        base = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid)
        defects.append(chf.harmonicity_residual(base, 0.5, delta)[1])
    ratio = defects[0] / defects[1]
    assert defects[0] <= 0.05
    assert 3.0 <= ratio <= 5.0
    report(4, f"harmonicity defect {defects[0]:.4f} <= 5%, refinement ratio {ratio:.2f} in [3,5]")


def test_criterion_05_boundary_convergence():
    grid = chf.GridSpec(points_per_axis=96, extent=10.0)
    base = chf.sample(chf.Gaussian(alpha=0.05, amplitude=1.0), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ext = chf.extend(base, (0.8, 0.4, 0.2, 0.1))
    ladder = chf.boundary_convergence(ext)
    dists = [d for _, d in ladder]  # descending t
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    final_rel = dists[-1] / chf.norm(base, 2)
    assert final_rel <= 0.05
    report(5, "boundary ladder strictly decreasing over t in {0.8,0.4,0.2,0.1}, "
              f"final {final_rel:.4f} <= 5%")


def test_criterion_06_sup_bounds():
    grid = chf.GridSpec(points_per_axis=64, extent=10.0)
    base = chf.sample(chf.Gaussian(alpha=0.05, amplitude=1.0), grid)
    assert chf.norm(base, np.inf) <= 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ResolutionWarning)
        ext = chf.extend(base, (0.1, 0.25, 0.5, 1.0, 2.0))
    rep = chf.sup_bound_check(ext)
    assert rep.precondition_met
    # violations are reported verbatim, never suppressed
    assert rep.paper_bound_ok and rep.unit_bound_ok, "; ".join(rep.violations())
    report(6, f"sup bounds over t in [0.1, 2]: worst 4/(pi t) margin {rep.worst_margin:.4f}, "
              "unit bound holds")


def test_criterion_07_symmetry_defect():
    grid = chf.GridSpec(points_per_axis=64, extent=10.0)
    f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid)
    g = chf.sample(chf.Gaussian(alpha=2.0, amplitude=1.0), grid)
    defect = chf.laplacian_convolution_symmetry_defect(f, g)
    assert defect <= 1e-6
    report(7, f"Laplacian-convolution symmetry defect {defect:.2e} <= 1e-6")


def test_criterion_08_poisson_semigroup():
    grid = chf.GridSpec(points_per_axis=96, extent=10.0)
    half = chf.sample(chf.PoissonKernel(t=0.5), grid)
    composed = chf.ConvolutionPlan(grid).convolve_with_kernel(half, chf.PoissonKernel(t=0.5))
    target = chf.sample(chf.PoissonKernel(t=1.0), grid)
    rel = chf.norm(composed - target, np.inf) / chf.norm(target, np.inf)
    assert rel <= 0.02
    report(8, f"semigroup defect {rel:.5f} <= 2% (N=96, L=10)")


def test_criterion_09_hydrogen_residual_order():
    norms = []
    for n in (48, 96):
        grid, system, orbitals, fields = hydrogen_identity(n, 10.0, margin=0.75)
        resid = chf.strong_residual(
            0, orbitals, fields, system, method="finite_difference_2nd"
        )
        norms.append(chf.norm(resid, 2))
    ratio = norms[0] / norms[1]
    assert norms[1] < norms[0]
    assert 3.0 <= ratio <= 5.0  # second-order decrease as h halves
    report(9, f"hydrogen strong residual {norms[0]:.5f} -> {norms[1]:.5f}, "
              f"ratio {ratio:.2f} in [3,5]")


def test_criterion_10_cross_pipeline_identity(rng):
    grid, system, orbitals, fields = hydrogen_identity(160, 8.0, margin=0.75)
    hyd = chf.poisson_crosscheck(chf.poisson_transformed_residual(0, orbitals, fields, t=0.25),
                                 orbitals, fields, system, method="finite_difference_2nd")
    assert hyd.relative <= 0.02
    # unconverged random orbital, vanishing through the one-cell mask
    grid2 = chf.GridSpec(points_per_axis=96, extent=6.0)
    system2 = chf.MolecularSystem(
        nuclei=((1.0, (0.0, 0.0, 0.0)),), regular_set_margin=grid2.spacing,
    )
    psi = random_smooth_orbital(grid2, rng, envelope=4.0, hole_radius=0.5)
    orb2 = chf.OrbitalSet(orbitals=(psi,), energies=(-0.4,))
    fields2 = chf.build_fields(system2, orb2)
    rand = chf.poisson_crosscheck(chf.poisson_transformed_residual(0, orb2, fields2, t=0.25),
                                  orb2, fields2, system2, method="spectral")
    assert rand.relative <= 0.02
    report(10, f"cross-pipeline: hydrogen {hyd.relative:.4f}, "
               f"random orbital {rand.relative:.4f} <= 2%")


def test_criterion_11_helium_scf(he_result_96, he_system):
    result = he_result_96
    assert result.converged and result.iteration_count <= 200
    rep = chf.energies(result.orbitals, result.fields)
    assert rep.virial_ratio == pytest.approx(1.0, abs=0.05)
    band = json.loads(
        (REPO / "src" / "convolve_hf" / "data" / "he_reference.json").read_text()
    )["band"]
    assert band["lower"] <= rep.total <= band["upper"]
    report(11, f"He SCF converged in {result.iteration_count} iterations "
               f"({result.wall_seconds:.0f}s), virial {rep.virial_ratio:.4f}, "
               f"E = {rep.total:.5f} in band [{band['lower']:.4f}, {band['upper']:.4f}]")


def test_criterion_12_expansion_ladders(he_result_96):
    orbitals, fields = he_result_96.orbitals, he_result_96.fields
    basis = [chf.basis_function(k, alpha0=0.15, beta=3.0) for k in range(8)]
    state = chf.project_orbitals(orbitals, basis, orders=(2, 4, 6, 8))
    t = 0.6  # resolved: 2h = 0.5 at N=96, L=12
    w = chf.Gaussian(alpha=1.0, amplitude=1.0)
    l6 = chf.expansion_poisson_residuals(state, 0, orbitals, fields, t)
    l7 = chf.expansion_window_residuals(state, 0, orbitals, fields, w)
    for reports_ in (l6, l7):
        sups = [r.total_sup for r in reports_]
        assert all(s2 <= s1 * 1.05 for s1, s2 in zip(sups, sups[1:]))  # 5% slack

    # reproduction: a truncation equal to the orbital reproduces the
    # direct pipelines to 1e-10
    grid = chf.GridSpec(points_per_axis=48, extent=8.0)
    member = chf.basis_function(0, alpha0=0.7, beta=2.0)
    psi = normalized_field(chf.sample(member, grid))
    orb = chf.OrbitalSet(orbitals=(psi,), energies=(-0.3,))
    sys1 = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
    flds = chf.build_fields(sys1, orb)
    st = chf.project_orbitals(orb, [member, chf.basis_function(1, 0.7, 2.0)], orders=(1,))
    rep6 = chf.expansion_poisson_residuals(st, 0, orb, flds, 0.8)[0]
    dir4 = chf.poisson_transformed_residual(0, orb, flds, 0.8)
    assert chf.norm(rep6.total_field - dir4.total_field, 2) <= 1e-10
    rep7 = chf.expansion_window_residuals(st, 0, orb, flds, w)[0]
    dir5 = chf.window_transformed_residual(0, orb, flds, w)
    assert chf.norm(rep7.total_field - dir5.total_field, 2) <= 1e-10
    report(12, "expansion ladders non-increasing (orders 2,4,6,8): "
               f"thm6 sup {[f'{r.total_sup:.4f}' for r in l6]}, "
               f"thm7 sup {[f'{r.total_sup:.4f}' for r in l7]}; reproduction <= 1e-10")


def test_criterion_13_bruteforce_convolution(rng):
    grid = chf.GridSpec(points_per_axis=8, extent=1.0)
    mask = np.zeros(grid.shape)
    mask[2:6, 2:6, 2:6] = 1.0
    f = chf.ScalarField(grid=grid, values=rng.standard_normal(grid.shape) * mask)
    g = chf.ScalarField(grid=grid, values=rng.standard_normal(grid.shape) * mask)
    fast = chf.ConvolutionPlan(grid).convolve_fields(f, g).values
    err = np.abs(fast - direct_convolution(f, g)).max()
    assert err <= 1e-10
    report(13, f"padded FFT vs direct summation on 8^3: max |diff| = {err:.2e} <= 1e-10")


def test_criterion_14_verify_reproducibility(tmp_path):
    cfg = str(REPO / "configs" / "verify.cfg")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        outs.append((out / "verify_results.csv").read_bytes())
    assert outs[0] == outs[1]
    report(14, f"two verify runs byte-identical ({len(outs[0])} bytes), exit 0")
