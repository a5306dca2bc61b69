import json
from pathlib import Path

import numpy as np
import pytest

import convolve_hf as chf
from convolve_hf import scf

from support import normalized_field, random_smooth_orbital, unit_gaussian_orbital


def hydrogen_like_fock_setup(n, extent):
    """Z=1 system with zero orbitals: the operator reduces to
    -1/2 lap - 1/r (two-electron terms vanish with the empty set)."""
    grid = chf.GridSpec(points_per_axis=n, extent=extent)
    system = chf.MolecularSystem(nuclei=((1.0, (0.0, 0.0, 0.0)),))
    zero = chf.ScalarField.zeros(grid)
    orbitals = chf.OrbitalSet(orbitals=(zero,), energies=(0.0,), validate=False)
    fields = chf.HfFields(p=chf.build_p(system, grid), s=((zero,),))
    return grid, system, orbitals, fields


def _assert_fields_bitwise_equal(got, want):
    pairs = [(got.p, want.p), (got.q, want.q)]
    pairs += [(g, w) for g_row, w_row in zip(got.s, want.s) for g, w in zip(g_row, w_row)]
    assert got.n == want.n
    for g, w in pairs:
        assert g.values.dtype == w.values.dtype
        assert g.values.tobytes() == w.values.tobytes()


class TestApplyFock:
    def test_hydrogen_eigenpair(self):
        grid, system, orbitals, fields = hydrogen_like_fock_setup(64, 10.0)
        psi = normalized_field(chf.sample(chf.Slater1s(), grid))
        out = chf.apply_fock(psi, system, fields, orbitals)
        resid = out.values + 0.5 * psi.values
        keep = chf.nuclear_mask(grid, system, margin=0.75)
        resid[~keep] = 0.0
        rel = np.sqrt((np.abs(resid) ** 2).sum()) / np.sqrt(
            (np.abs(0.5 * psi.values[keep]) ** 2).sum()
        )
        assert rel <= 0.12  # spectral ringing off the cusp dominates

    def test_linearity_with_frozen_fields(self, rng):
        grid = chf.GridSpec(points_per_axis=32, extent=8.0)
        system = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
        base = unit_gaussian_orbital(grid, 1.0)
        orbitals = chf.OrbitalSet(orbitals=(base,), energies=(-0.5,))
        fields = chf.build_fields(system, orbitals)
        f = random_smooth_orbital(grid, rng)
        g = random_smooth_orbital(grid, rng)
        a = 1.7
        lhs = chf.apply_fock(a * f + g, system, fields, orbitals)
        rhs = a * chf.apply_fock(f, system, fields, orbitals) + chf.apply_fock(
            g, system, fields, orbitals
        )
        scale = chf.norm(lhs, np.inf)
        assert chf.norm(lhs - rhs, np.inf) <= 1e-11 * scale

    def test_hermitian_on_random_pairs(self, rng):
        grid = chf.GridSpec(points_per_axis=32, extent=8.0)
        system = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
        base = unit_gaussian_orbital(grid, 1.0)
        orbitals = chf.OrbitalSet(orbitals=(base,), energies=(-0.5,))
        fields = chf.build_fields(system, orbitals)
        for _ in range(3):
            f = random_smooth_orbital(grid, rng)
            g = random_smooth_orbital(grid, rng)
            lhs = chf.inner(f, chf.apply_fock(g, system, fields, orbitals))
            rhs = chf.inner(chf.apply_fock(f, system, fields, orbitals), g)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_exchange_reduces_to_field_on_occupied_orbital(self):
        grid = chf.GridSpec(points_per_axis=32, extent=8.0)
        system = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
        psi = unit_gaussian_orbital(grid, 1.0)
        orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.5,))
        fields = chf.build_fields(system, orbitals)
        out = chf.apply_fock(psi, system, fields, orbitals)
        # assemble the same operator with the printed exchange s[0,0] psi
        expected = (
            -0.5 * chf.laplacian(psi, method="spectral").values
            + 0.5 * (fields.q.values - fields.p.values) * psi.values
            - fields.s[0][0].values * psi.values
        )
        assert np.abs(out.values - expected).max() <= 1e-10

    def test_mismatched_inputs(self):
        grid, system, orbitals, fields = hydrogen_like_fock_setup(32, 8.0)
        psi = unit_gaussian_orbital(grid)
        bad = chf.HfFields(p=fields.p, s=((fields.q, fields.q), (fields.q, fields.q)))
        with pytest.raises(ValueError, match="orbital count"):
            chf.apply_fock(psi, system, bad, orbitals)


class TestScfConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            chf.ScfConfig(mixing=0.0)
        with pytest.raises(ValueError):
            chf.ScfConfig(mixing=1.5)
        with pytest.raises(ValueError):
            chf.ScfConfig(energy_tolerance=-1.0)
        with pytest.raises(ValueError):
            chf.ScfConfig(eigensolver="diagonalize")
        with pytest.raises(ValueError):
            chf.ScfConfig(time_step=0.0)


class TestSolve:
    def test_degenerate_run_returns_initial_guess(self, he_system):
        grid = chf.GridSpec(points_per_axis=32, extent=12.0)
        cfg = chf.ScfConfig(max_iterations=0, mixing=1.0)
        result = chf.solve(he_system, grid, cfg)
        assert not result.converged
        assert result.iteration_count == 0
        guess = unit_gaussian_orbital(grid, 1.0)
        overlap = abs(chf.inner(result.orbitals.orbitals[0], guess))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("max_iterations", [0, 2])
    def test_returned_fields_are_those_of_the_orbital(self, he_system, max_iterations):
        grid = chf.GridSpec(points_per_axis=32, extent=12.0)
        result = chf.solve(he_system, grid, chf.ScfConfig(max_iterations=max_iterations))
        assert result.iteration_count == max_iterations
        _assert_fields_bitwise_equal(result.fields, chf.build_fields(he_system, result.orbitals))

    def test_converged_fields_are_those_of_the_orbital(self, he_system, he_result_48):
        built = chf.build_fields(he_system, he_result_48.orbitals)
        _assert_fields_bitwise_equal(he_result_48.fields, built)

    def test_helium_converges_on_coarse_grid(self, he_result_48):
        result = he_result_48
        assert result.converged
        assert result.iteration_count <= 200
        assert chf.norm(result.orbitals.orbitals[0], 2) == pytest.approx(1.0, abs=1e-8)
        eps = result.orbitals.energies[0]
        assert -0.95 < eps < -0.75
        assert result.final_residual <= 0.05
        # diagnostic history: energies settle after the initial transient
        energies = result.energy_history
        assert abs(energies[-1] - energies[-2]) <= 1e-6

    def test_helium_virial_ratio(self, he_result_48, he_system):
        report = chf.energies(he_result_48.orbitals, he_system, fields=he_result_48.fields)
        assert report.virial_ratio == pytest.approx(1.0, abs=0.05)
        assert report.kinetic > 0
        assert report.total < -2

    def test_inverse_iteration_agrees(self, he_system, he_result_48):
        grid = chf.GridSpec(points_per_axis=48, extent=12.0)
        cfg = chf.ScfConfig(max_iterations=60, mixing=0.6, eigensolver="inverse_iteration")
        result = chf.solve(he_system, grid, cfg)
        assert result.converged
        assert result.orbitals.energies[0] == pytest.approx(
            he_result_48.orbitals.energies[0], abs=1e-3
        )

    def test_rayleigh_quotient_is_real(self, he_system, he_result_48):
        # eps takes its kinetic part from the last inner step's Parseval sum;
        # the full operator applied to the returned orbital must agree
        result = he_result_48
        psi = result.orbitals.orbitals[0]
        f_psi = chf.apply_fock(psi, he_system, result.fields, result.orbitals)
        assert result.orbitals.energies[0] == pytest.approx(chf.inner(psi, f_psi), abs=1e-12)

    def test_multi_orbital_out_of_scope(self, grid32):
        system = chf.MolecularSystem(nuclei=((4.0, (0.0, 0.0, 0.0)),), pair_count=2)
        with pytest.raises(NotImplementedError):
            chf.solve(system, grid32, chf.ScfConfig())

    def test_nucleus_outside_box_rejected(self, grid32):
        system = chf.MolecularSystem(nuclei=((2.0, (50.0, 0.0, 0.0)),))
        with pytest.raises(ValueError, match="outside"):
            chf.solve(system, grid32, chf.ScfConfig())

    def test_kinetic_energy_needs_no_laplacian_per_iteration(self, he_system, monkeypatch):
        # each iteration's kinetic energy is its last inner step's Parseval
        # sum: one Laplacian for the guess and one for the closing residual,
        # however many iterations run
        calls = []
        laplacian = scf.spectral_laplacian

        def counted(values, grid):
            calls.append(values.shape)
            return laplacian(values, grid)

        monkeypatch.setattr(scf, "spectral_laplacian", counted)
        grid = chf.GridSpec(points_per_axis=16, extent=8.0)
        counts = []
        for max_iterations in (1, 3):
            calls.clear()
            chf.solve(he_system, grid, chf.ScfConfig(max_iterations=max_iterations))
            counts.append(len(calls))
        assert counts == [2, 2]

    def test_divergence_guard(self, he_system):
        # per-step renormalization absorbs moderate instability, so only a
        # step large enough to overflow the norm trips the guard
        grid = chf.GridSpec(points_per_axis=32, extent=12.0)
        cfg = chf.ScfConfig(max_iterations=5, time_step=1e200)
        with pytest.raises(ValueError, match="diverged"):
            chf.solve(he_system, grid, cfg)

    def test_converged_orbital_strong_residual(self, he_result_96, he_system):
        # the transformed-equation residual of the converged orbital is
        # self-consistency noise, far below the Laplacian scale
        result = he_result_96
        resid = chf.strong_residual(
            0, result.orbitals, result.fields, he_system, method="spectral"
        )
        lap = chf.laplacian(result.orbitals.orbitals[0], method="spectral")
        keep = chf.nuclear_mask(result.orbitals.grid, he_system)
        lap_masked = lap.values.copy()
        lap_masked[~keep] = 0.0
        rel = chf.norm(resid, 2) / chf.norm(lap.with_values(lap_masked), 2)
        assert rel <= 0.05

    def test_eigenvalue_refinement_stability(self, he_system):
        # converged eigenvalue moves by no more than 2% from N=64 to N=96
        eps = {}
        for n in (64, 96):
            grid = chf.GridSpec(points_per_axis=n, extent=10.0)
            cfg = chf.ScfConfig(max_iterations=200, mixing=0.6,
                                energy_tolerance=1e-6, orbital_tolerance=3e-6)
            res = chf.solve(he_system, grid, cfg)
            assert res.converged
            eps[n] = res.orbitals.energies[0]
        assert abs(eps[96] - eps[64]) / abs(eps[96]) <= 0.02

    def test_hydrogen_molecule_geometry_converges(self):
        system = chf.MolecularSystem(
            nuclei=((1.0, (0.7, 0.0, 0.0)), (1.0, (-0.7, 0.0, 0.0))), pair_count=1
        )
        grid = chf.GridSpec(points_per_axis=48, extent=12.0)
        result = chf.solve(system, grid, chf.ScfConfig(max_iterations=200))
        assert result.converged
        # bonding orbital is symmetric under x -> -x
        vals = result.orbitals.orbitals[0].values.real
        flipped = np.roll(vals[::-1, :, :], 1, axis=0)
        assert np.abs((vals - flipped)[1:, :, :]).max() <= 1e-4


class TestSemiImplicitStep:
    """The kinetic term of each imaginary-time step is solved exactly in
    Fourier space, so the outer-iteration count stays flat as h shrinks."""

    @pytest.fixture(scope="class")
    def he_shifted_64(self):
        # a whole-node shift leaves the discrete problem unchanged up to
        # box truncation, so it reproduces the N = 64 reference
        grid = chf.GridSpec(points_per_axis=64, extent=12.0)
        center = tuple(s * grid.spacing for s in (2, -1, 2))
        system = chf.MolecularSystem(nuclei=((2.0, center),), pair_count=1)
        result = chf.solve(system, grid, chf.ScfConfig(max_iterations=200, mixing=0.6))
        return system, result

    def test_outer_iterations_flat_in_n(self, he_result_48, he_shifted_64, he_result_96):
        for result in (he_result_48, he_shifted_64[1], he_result_96):
            assert result.converged
            assert result.iteration_count <= 20

    def test_shifted_energy_matches_reference(self, he_shifted_64):
        system, result = he_shifted_64
        reference = json.loads(
            (Path(chf.__file__).parent / "data" / "he_reference.json").read_text()
        )["grids"]["64"]["total_energy"]
        report = chf.energies(result.orbitals, system, fields=result.fields)
        assert report.total == pytest.approx(reference, abs=1e-7)

    def test_shipped_step_count_matches_twelve_steps(self, he_system, he_result_48, monkeypatch):
        # the linear mixing, not the inner relaxation, sets the outer count:
        # the shipped inner-step count reaches the 12-step solution no later
        assert scf._INNER_STEPS < 12
        monkeypatch.setattr(scf, "_INNER_STEPS", 12)
        grid = chf.GridSpec(points_per_axis=48, extent=12.0)
        twelve = chf.solve(he_system, grid, chf.ScfConfig(max_iterations=200, mixing=0.6))
        shipped = he_result_48
        assert shipped.converged and twelve.converged
        assert shipped.iteration_count <= twelve.iteration_count
        totals = [
            chf.energies(r.orbitals, he_system, fields=r.fields).total for r in (shipped, twelve)
        ]
        assert totals[0] == pytest.approx(totals[1], abs=1e-9)
        assert shipped.final_residual <= 2.0 * twelve.final_residual

    def test_eigensolvers_agree_tightly(self, he_system, he_result_48):
        grid = chf.GridSpec(points_per_axis=48, extent=12.0)
        cfg = chf.ScfConfig(max_iterations=60, mixing=0.6, eigensolver="inverse_iteration")
        result = chf.solve(he_system, grid, cfg)
        assert result.converged
        assert result.orbitals.energies[0] == pytest.approx(
            he_result_48.orbitals.energies[0], abs=1e-5
        )
