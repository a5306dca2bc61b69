import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erf

import convolve_hf as chf

from support import (
    assert_overlap_bound,
    hydrogen_identity,
    normalized_field,
    random_smooth_orbital,
    unit_gaussian_orbital,
)


class TestMolecularSystem:
    def test_rejects_empty_and_bad_charges(self):
        with pytest.raises(ValueError):
            chf.MolecularSystem(nuclei=())
        with pytest.raises(ValueError):
            chf.MolecularSystem(nuclei=((-1.0, (0, 0, 0)),))

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError, match="distinct"):
            chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)), (2.0, (0, 0, 0))))

    def test_nucleus_outside_box(self, grid32):
        s = chf.MolecularSystem(nuclei=((1.0, (100.0, 0, 0)),))
        with pytest.raises(ValueError, match="outside"):
            chf.build_p(s, grid32)

    def test_default_margin_is_two_cells(self, grid32):
        s = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
        assert s.margin_for(grid32) == pytest.approx(2 * grid32.spacing)


class TestOrbitalSet:
    def test_rejects_non_normalized(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid32)
        with pytest.raises(ValueError, match="orthonormal"):
            chf.OrbitalSet(orbitals=(f,), energies=(0.0,))

    def test_rejects_non_orthogonal_pair(self, grid64):
        a = unit_gaussian_orbital(grid64, 1.0)
        b = unit_gaussian_orbital(grid64, 1.2)
        with pytest.raises(ValueError, match="orthonormal"):
            chf.OrbitalSet(orbitals=(a, b), energies=(0.0, 0.0))

    def test_validate_escape_for_degenerate_inputs(self, grid32):
        zero = chf.ScalarField.zeros(grid32)
        s = chf.OrbitalSet(orbitals=(zero,), energies=(0.0,), validate=False)
        assert len(s) == 1

    def test_sup_bounded_flag(self, grid64):
        small = unit_gaussian_orbital(grid64, 0.5)
        assert chf.OrbitalSet(orbitals=(small,), energies=(0.0,)).sup_bounded
        # a very sharp normalized Gaussian peaks above 1
        sharp = unit_gaussian_orbital(grid64, 6.0)
        assert chf.norm(sharp, np.inf) > 1
        assert not chf.OrbitalSet(orbitals=(sharp,), energies=(0.0,)).sup_bounded


class TestNuclearField:
    def test_single_nucleus_value(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        s = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
        p = chf.build_p(s, g)
        node = g.nearest_node((2.0, 0.0, 0.0))
        assert p.values[node] == pytest.approx(2.0 * 2.0 * 0.5)

    def test_mirror_symmetry_for_proton_pair(self):
        g = chf.GridSpec(points_per_axis=32, extent=8.0)
        s = chf.MolecularSystem(
            nuclei=((1.0, (0.75, 0.0, 0.0)), (1.0, (-0.75, 0.0, 0.0)))
        )
        p = chf.build_p(s, g).values
        # the node set is symmetric about x -> -x except the x = -L plane
        flipped = np.roll(p[::-1, :, :], 1, axis=0)
        assert np.abs((p - flipped)[1:, :, :]).max() <= 1e-9

    def test_far_field_monopole(self):
        g = chf.GridSpec(points_per_axis=48, extent=10.0)
        s = chf.MolecularSystem(
            nuclei=((1.0, (0.7, 0.0, 0.0)), (1.0, (-0.7, 0.0, 0.0)))
        )
        p = chf.build_p(s, g).values
        node = g.nearest_node((0.0, 5.0, 0.0))
        assert p[node] == pytest.approx(2.0 * 2.0 / 5.0, rel=0.02)

    def test_positive_everywhere(self, grid32):
        s = chf.MolecularSystem(nuclei=((1.5, (0.25, 0, 0)),))
        assert chf.build_p(s, grid32).values.min() > 0


class TestOverlapFields:
    def test_gaussian_diagonal_matches_erf_oracle(self):
        # |psi|^2 has exponent 2 alpha, sharper than the density oracle
        # case, so this runs at h = 0.25
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        alpha = 1.0
        psi = unit_gaussian_orbital(g, alpha)
        orb = chf.OrbitalSet(orbitals=(psi,), energies=(0.0,))
        s00 = chf.build_s(0, 0, orb).values
        # |psi|^2 is the unit-mass density with exponent 2 alpha
        r = np.sqrt(g.radius_squared())
        with np.errstate(invalid="ignore"):
            exact = np.where(
                r > 1e-12,
                erf(np.sqrt(2 * alpha) * r) / np.where(r > 0, r, 1.0),
                2 * np.sqrt(2 * alpha / np.pi),
            )
        assert np.abs(s00 - exact).max() / exact.max() <= 0.01

    def test_sup_bound_on_pairs(self, grid64, rng):
        a = unit_gaussian_orbital(grid64, 1.0)
        b = random_smooth_orbital(grid64, rng)
        b = normalized_field(b - chf.inner(a, b) * a)  # orthogonalize
        orb = chf.OrbitalSet(orbitals=(a, b), energies=(0.0, 0.0))
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),), pair_count=2)
        fields = chf.build_fields(system, orb)
        assert_overlap_bound(fields)

    def test_disjoint_supports_give_null_field(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        a = unit_gaussian_orbital(g, 4.0, center=(-4.0, 0, 0))
        b = unit_gaussian_orbital(g, 4.0, center=(4.0, 0, 0))
        orb = chf.OrbitalSet(orbitals=(a, b), energies=(0.0, 0.0))
        s01 = chf.build_s(0, 1, orb)
        assert chf.norm(s01, np.inf) <= 1e-8

    def test_index_range(self, grid32):
        psi = unit_gaussian_orbital(grid32)
        orb = chf.OrbitalSet(orbitals=(psi,), energies=(0.0,))
        with pytest.raises(IndexError):
            chf.build_s(0, 1, orb)

    def test_q_is_derived_from_s(self, grid32, rng):
        s = tuple(tuple(random_smooth_orbital(grid32, rng) for _ in range(2)) for _ in range(2))
        fields = chf.HfFields(p=chf.ScalarField.zeros(grid32), s=s)
        assert fields.q.values.tobytes() == (4.0 * sum(s[c][c].values for c in range(2))).tobytes()
        with pytest.raises(TypeError):
            chf.HfFields(p=fields.p, q=fields.q, s=s)

    def test_q_identity_and_positivity(self, grid64, rng):
        a = unit_gaussian_orbital(grid64, 1.0)
        b = random_smooth_orbital(grid64, rng)
        b = normalized_field(b - chf.inner(a, b) * a)
        orb = chf.OrbitalSet(orbitals=(a, b), energies=(0.0, 0.0))
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),), pair_count=2)
        fields = chf.build_fields(system, orb)
        expected_q = 4.0 * (fields.s[0][0].values + fields.s[1][1].values)
        assert np.array_equal(fields.q.values, expected_q)
        assert fields.q.values.min() >= -1e-12
        # the symmetry s[0,1] = s[1,0] is structural
        assert np.array_equal(fields.s[0][1].values, fields.s[1][0].values)


class TestStrongResidual:
    def test_zero_orbital(self, grid32):
        zero = chf.ScalarField.zeros(grid32)
        orb = chf.OrbitalSet(orbitals=(zero,), energies=(1.23,), validate=False)
        system = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
        fields = chf.build_fields(system, orb)
        r = chf.strong_residual(0, orb, fields, system)
        assert chf.norm(r, np.inf) == 0.0

    def test_hydrogen_identity_residual_is_small(self):
        grid, system, orb, fields = hydrogen_identity(96, 10.0)
        r = chf.strong_residual(0, orb, fields, system, method="finite_difference_2nd")
        lap = chf.laplacian(orb.orbitals[0], method="finite_difference_2nd")
        keep = chf.nuclear_mask(grid, system)
        lap_masked = lap.values.copy()
        lap_masked[~keep] = 0.0
        rel = chf.norm(r, 2) / chf.norm(lap.with_values(lap_masked), 2)
        assert rel <= 0.05

    def test_frozen_field_linearity(self, grid32):
        psi = unit_gaussian_orbital(grid32)
        system = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
        zero = chf.ScalarField.zeros(grid32)
        fields = chf.HfFields(p=chf.build_p(system, grid32), s=((zero,),))
        orb1 = chf.OrbitalSet(orbitals=(psi,), energies=(-0.4,))
        orb2 = chf.OrbitalSet(orbitals=(2.0 * psi,), energies=(-0.4,), validate=False)
        r1 = chf.strong_residual(0, orb1, fields, system)
        r2 = chf.strong_residual(0, orb2, fields, system)
        assert np.abs(r2.values - 2.0 * r1.values).max() <= 1e-12 * chf.norm(r1, np.inf)

    def test_mismatched_field_count(self, grid32):
        psi = unit_gaussian_orbital(grid32)
        orb = chf.OrbitalSet(orbitals=(psi,), energies=(0.0,))
        zero = chf.ScalarField.zeros(grid32)
        system = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
        fields = chf.HfFields(p=chf.build_p(system, grid32), s=((zero, zero), (zero, zero)))
        with pytest.raises(ValueError, match="orbital count"):
            chf.strong_residual(0, orb, fields, system)


class TestEnergies:
    def test_kinetic_positive(self, grid64):
        psi = unit_gaussian_orbital(grid64)
        orb = chf.OrbitalSet(orbitals=(psi,), energies=(0.0,))
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
        rep = chf.energies(orb, system)
        assert rep.kinetic > 0

    def test_sign_invariance(self, grid64):
        # psi -> -psi is the only global phase of a real orbital
        psi = unit_gaussian_orbital(grid64)
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
        rep1 = chf.energies(chf.OrbitalSet(orbitals=(psi,), energies=(0.0,)), system)
        rep2 = chf.energies(chf.OrbitalSet(orbitals=(-psi,), energies=(0.0,)), system)
        assert rep2.total == pytest.approx(rep1.total, abs=1e-10)
        assert rep2.kinetic == pytest.approx(rep1.kinetic, abs=1e-10)


class TestBoundChecks:
    def test_slater_radial_oracle(self):
        # independent radial oracle: int e^{-2r}/(pi r^2) * 4 pi r^2 dr = 2
        oracle = quad(lambda r: 4.0 * np.exp(-2 * r), 0, 40)[0]
        assert oracle == pytest.approx(2.0, abs=1e-9)
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        psi = normalized_field(chf.sample(chf.Slater1s(), g))
        value = chf.coulomb_square_integral(psi, (0.0, 0.0, 0.0))
        assert value == pytest.approx(2.0, rel=0.005)

    def test_gaussian_value_below_bound(self, grid64):
        psi = unit_gaussian_orbital(grid64, 1.0)
        value = chf.coulomb_square_integral(psi, (0.0, 0.0, 0.0))
        # radial oracle for the same integrand
        norm2 = quad(lambda r: np.exp(-2 * r * r) * 4 * np.pi * r * r, 0, 20)[0]
        oracle = quad(lambda r: np.exp(-2 * r * r) * 4 * np.pi, 0, 30)[0] / norm2
        assert value == pytest.approx(oracle, rel=0.05)
        assert value <= chf.L2_SQUARE_BOUND

    def test_far_point_decays(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        psi = unit_gaussian_orbital(g, 4.0)
        eta = (6.0, 0.0, 0.0)
        value = chf.coulomb_square_integral(psi, eta)
        assert value == pytest.approx(1.0 / 36.0, rel=0.3)
        assert value < 0.1

    def test_report_on_full_orbital_set(self, grid64):
        psi = unit_gaussian_orbital(grid64, 1.0)
        orb = chf.OrbitalSet(orbitals=(psi,), energies=(0.0,))
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
        report = chf.check_orbital_bounds(orb, system)
        assert report.all_ok
        assert report.preconditions_met
        assert report.max_l2_square <= chf.L2_SQUARE_BOUND
        assert report.max_s_sup <= chf.S_SUP_BOUND
        assert len(report.l2_square_values) == 11  # 1 nucleus + 10 random
