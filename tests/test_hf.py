import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import erf

import convolve_hf as chf
from convolve_hf.hf import build_overlap_fields, equation_terms

from support import (
    assert_overlap_bound,
    full_grid_coulomb_square_integral,
    hydrogen_identity,
    normalized_field,
    peak_traced_bytes,
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
        s00 = build_overlap_fields(orb)[0][0].values
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
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
        fields = chf.build_fields(system, orb)
        assert_overlap_bound(fields)

    def test_disjoint_supports_give_null_field(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        a = unit_gaussian_orbital(g, 4.0, center=(-4.0, 0, 0))
        b = unit_gaussian_orbital(g, 4.0, center=(4.0, 0, 0))
        orb = chf.OrbitalSet(orbitals=(a, b), energies=(0.0, 0.0))
        s01 = build_overlap_fields(orb)[0][1]
        assert chf.norm(s01, np.inf) <= 1e-8

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
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
        fields = chf.build_fields(system, orb)
        expected_q = 4.0 * (fields.s[0][0].values + fields.s[1][1].values)
        assert np.array_equal(fields.q.values, expected_q)
        assert fields.q.values.min() >= -1e-12
        # the symmetry s[0,1] = s[1,0] is structural
        assert np.array_equal(fields.s[0][1].values, fields.s[1][0].values)


def written_out_sums(orbitals, fields, a):
    """q = 4 sum_c s[c,c] and sum_c s[a,c] psi_c over every term."""
    n = len(orbitals)
    q = 4.0 * sum(fields.s[c][c].values for c in range(n))
    exchange = sum(fields.s[a][c].values * orbitals.orbitals[c].values for c in range(n))
    return q, exchange


class TestTwoElectronSums:
    def test_all_zero_s_is_shared_not_rewritten(self):
        _, _, orb, fields = hydrogen_identity(32, 8.0)
        zero = fields.s[0][0].values
        _, _, exchange = equation_terms(0, orb, fields)
        assert np.shares_memory(fields.q.values, zero)
        assert np.shares_memory(exchange.values, zero)
        assert not fields.q.values.any() and not exchange.values.any()

    def test_one_zero_orbital_keeps_every_bit(self, grid32):
        # s[0][1], s[1][0] and s[1][1] are zero and left out of the sums;
        # the second orbital's exchange sum has no nonzero term at all
        psi = unit_gaussian_orbital(grid32)
        orb = chf.OrbitalSet(orbitals=(psi, chf.ScalarField.zeros(grid32)), energies=(-0.4, 0.0),
                             validate=False)
        system = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
        fields = chf.build_fields(system, orb)
        assert fields.s[0][0].values.any() and not fields.s[1][1].values.any()
        for a in range(2):
            q, exchange = written_out_sums(orb, fields, a)
            assert fields.q.values.tobytes() == q.tobytes()
            assert equation_terms(a, orb, fields)[2].values.tobytes() == exchange.tobytes()

    def test_nonzero_s_keeps_every_bit(self, grid64, rng):
        a = unit_gaussian_orbital(grid64, 1.0)
        b = random_smooth_orbital(grid64, rng)
        b = normalized_field(b - chf.inner(a, b) * a)
        orb = chf.OrbitalSet(orbitals=(a, b), energies=(-0.9, -0.1))
        fields = chf.build_fields(chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),)), orb)
        for index in range(2):
            q, exchange = written_out_sums(orb, fields, index)
            assert fields.q.values.tobytes() == q.tobytes()
            assert equation_terms(index, orb, fields)[2].values.tobytes() == exchange.tobytes()


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
        rep = chf.energies(orb, chf.build_fields(system, orb))
        assert rep.kinetic > 0

    def test_sign_invariance(self, grid64):
        # psi -> -psi is the only global phase of a real orbital
        psi = unit_gaussian_orbital(grid64)
        system = chf.MolecularSystem(nuclei=((2.0, (0, 0, 0)),))
        orbs = [chf.OrbitalSet(orbitals=(sign * psi,), energies=(0.0,)) for sign in (1.0, -1.0)]
        rep1, rep2 = (chf.energies(orb, chf.build_fields(system, orb)) for orb in orbs)
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

    def test_inverse_square_cell_mean_is_its_integral(self):
        # the mean of 1/|s|^2 over a unit cube centred on the singularity,
        # the fallback quadrature's value at the singular node
        mean, _ = dblquad(lambda v, u: 3.0 / (u * u + v * v + 0.25), -0.5, 0.5, -0.5, 0.5,
                          epsabs=1e-13, epsrel=1e-13)
        assert chf.hf._INV_SQUARE_CELL_MEAN == pytest.approx(mean, abs=1e-12)

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
        report = chf.check_orbital_bounds(orb, system, chf.build_fields(system, orb))
        assert report.all_ok
        assert report.preconditions_met
        assert report.max_l2_square <= chf.L2_SQUARE_BOUND
        assert report.max_s_sup <= chf.S_SUP_BOUND
        assert len(report.l2_square_values) == 11  # 1 nucleus + 10 random

    @pytest.mark.parametrize("case", ["on a node", "between nodes", "outside the box",
                                      "tiny density"])
    def test_streamed_integral_keeps_the_full_grid_bits(self, he_result_48, case):
        # the integrand is filled by x chunks, each node by the whole-grid
        # formula's operations in its order, and summed whole
        psi = he_result_48.orbitals.orbitals[0]
        grid = psi.grid
        eta = {"on a node": (0.0, 0.0, 0.0), "between nodes": (0.3, -1.1, 0.7),
               "outside the box": (20.0, 0.0, -3.0), "tiny density": (-11.0, 11.0, -11.0)}[case]
        if case == "tiny density":
            psi = unit_gaussian_orbital(grid, 4.0)
            assert psi.values[grid.nearest_node(eta)] ** 2 <= 1e-280
        want, used_fit = full_grid_coulomb_square_integral(psi, eta)
        assert used_fit == (case in ("on a node", "between nodes"))
        assert chf.coulomb_square_integral(psi, eta).hex() == want.hex()

    def test_bound_check_holds_at_most_two_grid_arrays(self, he_system, he_result_48):
        # the integrand plus the chunk buffers; the whole-grid formula held
        # about 7 grid arrays at once
        result = he_result_48
        peak = peak_traced_bytes(
            lambda: chf.check_orbital_bounds(result.orbitals, he_system, result.fields))
        assert peak <= 2 * result.orbitals.orbitals[0].values.nbytes

    @pytest.mark.parametrize("extent", [0.001, 7.3, 12.0, 123.456])
    def test_points_are_distinct_and_in_the_central_half(self, extent):
        grid = chf.GridSpec(points_per_axis=8, extent=extent)
        zero = chf.ScalarField.zeros(grid)
        orbitals = chf.OrbitalSet(orbitals=(zero,), energies=(0.0,), validate=False)
        system = chf.MolecularSystem(nuclei=((1.0, (0.0, 0.0, 0.0)),))
        report = chf.check_orbital_bounds(orbitals, system, chf.HfFields(p=zero, s=((zero,),)))
        points = np.array([eta for _, eta, _ in report.l2_square_values[1:]])
        assert points.shape == (10, 3)
        assert np.all(np.abs(points) <= 0.5 * extent)
        assert len({tuple(p) for p in points} | {(0.0, 0.0, 0.0)}) == 11

    @pytest.mark.parametrize("zeta", [1.0, 1.6875])
    @pytest.mark.parametrize("n", [48, 64])
    @pytest.mark.parametrize("offset", [0.13, 0.25, 0.5])
    def test_slater_cusp_between_nodes_reads_its_radial_value(self, zeta, n, offset):
        # zeta^3/pi e^{-2 zeta r} against 1/r^2 integrates to 2 zeta^2; the
        # subtracted profile is matched at eta, not at the nearest node
        grid = chf.GridSpec(points_per_axis=n, extent=10.0)
        eta = (offset * grid.spacing, 0.0, 0.0)
        r = np.sqrt(grid.radius_squared(eta))
        psi = chf.ScalarField(grid=grid, values=zeta**1.5 / np.sqrt(np.pi) * np.exp(-zeta * r))
        assert chf.coulomb_square_integral(psi, eta) == pytest.approx(2 * zeta**2, rel=1e-3)

    @pytest.mark.parametrize("spacing", [0.25, 1.0])
    def test_cusp_fit_stays_finite_at_its_extremes(self, spacing):
        # |psi|^2 falls from 1 at the nearest node with a log-slope of
        # kappa = 999 towards the three neighbours beyond eta, which is
        # near a cell centre (r0 = 0.998 sqrt(3) h / 2): the amplitude at eta,
        # e^{2 kappa r0}, is e^{432} at h = 0.25 and beyond the float range
        # at h = 1
        grid = chf.GridSpec(points_per_axis=16, extent=8.0 * spacing)
        eta = (0.499 * spacing,) * 3
        j0 = grid.nearest_node(eta)
        r = np.sqrt(grid.radius_squared(eta))
        dens = np.zeros(grid.shape)
        dens[j0] = 1.0
        for ax in range(3):
            jn = tuple(j + (i == ax) for i, j in enumerate(j0))
            dens[jn] = np.exp(-2.0 * 999.0 * (r[jn] - r[j0]))
        psi = chf.ScalarField(grid=grid, values=np.sqrt(dens))
        assert np.isfinite(chf.coulomb_square_integral(psi, eta))
