import numpy as np
import pytest

import convolve_hf as chf
from convolve_hf.convolution import ConvolutionPlan
from convolve_hf.errors import ResolutionError

from support import hydrogen_identity, random_smooth_orbital, record_sampled_kernels


def random_orbital_setup(rng, n=48, extent=6.0, eps=-0.4, hole_radius=None):
    """Unconverged random orbital with fully built fields.

    The crosscheck variants pass ``hole_radius`` so the orbital vanishes
    through the (one-cell) nuclear mask: the masked strong residual then
    loses no actual content, which is what the pipeline comparison is
    about.
    """
    grid = chf.GridSpec(points_per_axis=n, extent=extent)
    margin = grid.spacing if hole_radius is not None else 0.75
    system = chf.MolecularSystem(nuclei=((1.0, (0.0, 0.0, 0.0)),), regular_set_margin=margin)
    psi = random_smooth_orbital(grid, rng, envelope=4.0, hole_radius=hole_radius)
    orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(eps,))
    fields = chf.build_fields(system, orbitals)
    return grid, system, orbitals, fields


class TestSymmetryDefect:
    def test_gaussian_pair(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), g)
        h = chf.sample(chf.Gaussian(alpha=2.0, amplitude=1.0), g)
        assert chf.laplacian_convolution_symmetry_defect(f, h) <= 1e-6

    def test_impulse_partner(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid32)
        n = grid32.points_per_axis
        vals = np.zeros(grid32.shape)
        vals[n // 2, n // 2, n // 2] = 1.0 / grid32.spacing**3
        delta = chf.ScalarField(grid=grid32, values=vals)
        # an impulse is not band-limited: the local stencil transfers
        # exactly through the linear convolution, the spectral one cannot
        plan = ConvolutionPlan(grid32)
        lhs = plan.convolve_fields(chf.laplacian(f, method="finite_difference_2nd"), delta)
        rhs = plan.convolve_fields(f, chf.laplacian(delta, method="finite_difference_2nd"))
        defect = chf.norm(lhs - rhs, np.inf) / chf.norm(lhs, np.inf)
        assert defect <= 1e-8

    def test_equal_arguments_exactly_symmetric(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid32)
        assert chf.laplacian_convolution_symmetry_defect(f, f) <= 1e-15


class TestPoissonTransformed:
    def test_hydrogen_identity_small(self):
        grid, system, orbitals, fields = hydrogen_identity(120, 6.0)
        report = chf.poisson_transformed_residual(0, orbitals, fields, t=0.25)
        assert report.relative <= 0.05
        assert report.term_names == ("kernel_dt2", "potential", "exchange")

    def test_zero_orbital_gives_zero_terms(self, grid48):
        zero = chf.ScalarField.zeros(grid48)
        orbitals = chf.OrbitalSet(orbitals=(zero,), energies=(0.0,), validate=False)
        system = chf.MolecularSystem(nuclei=((1.0, (0, 0, 0)),))
        fields = chf.build_fields(system, orbitals)
        report = chf.poisson_transformed_residual(0, orbitals, fields, t=1.0)
        assert report.total_l2 == 0.0
        assert all(v == 0.0 for v in report.term_l2)
        assert report.relative == 0.0

    def test_resolution_guard(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(rng)
        with pytest.raises(ResolutionError):
            chf.poisson_transformed_residual(0, orbitals, fields, t=0.01)

    def test_crosscheck_random_orbital(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(
            rng, n=96, extent=6.0, hole_radius=0.5
        )
        # band-limited random orbitals need the spectral Laplacian: the
        # stencil's dispersion error would dominate the comparison
        transformed = chf.poisson_transformed_residual(0, orbitals, fields, t=0.25)
        report = chf.poisson_crosscheck(transformed, orbitals, fields, system, method="spectral")
        assert report.params == {"t": 0.25, "orbital": 0, "laplacian": "spectral"}
        assert report.relative <= 0.02
        assert report.convolved_strong_l2 > 0


class TestWindowTransformed:
    def test_hydrogen_identity(self):
        grid, system, orbitals, fields = hydrogen_identity(96, 6.0)
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        report = chf.window_transformed_residual(0, orbitals, fields, w)
        assert report.relative <= 0.05

    def test_consistency_with_convolved_strong_residual(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(
            rng, n=64, extent=6.0, hole_radius=0.6
        )
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        report = chf.window_transformed_residual(0, orbitals, fields, w)
        strong = chf.strong_residual(0, orbitals, fields, system,
                                     method="spectral")
        cross = ConvolutionPlan(grid).convolve_fields(strong, chf.sample(w, grid))
        scale = max(max(report.term_l2), chf.norm(cross, 2))
        rel = chf.norm(report.total_field - cross, 2) / scale
        assert rel <= 0.02

    def test_window_scaling_is_exact(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(rng, n=48)
        w1 = chf.Gaussian(alpha=1.0, amplitude=1.0)
        w3 = chf.Gaussian(alpha=1.0, amplitude=3.0)
        r1 = chf.window_transformed_residual(0, orbitals, fields, w1)
        r3 = chf.window_transformed_residual(0, orbitals, fields, w3)
        assert np.abs(r3.total_field.values - 3.0 * r1.total_field.values).max() <= (
            1e-13 * r1.total_sup
        )

    def test_unsupported_window_kind(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(rng, n=48)
        with pytest.raises(ValueError, match="window"):
            chf.window_transformed_residual(0, orbitals, fields, chf.Slater1s())

    def test_literal_form_is_logged_not_zero(self):
        grid, system, orbitals, fields = hydrogen_identity(96, 6.0)
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        consistent = chf.window_transformed_residual(0, orbitals, fields, w)
        literal = chf.window_residual_literal(0, orbitals, fields, w)
        # the printed form misses the psi_a factor and flips signs: for the
        # exact solution it stays O(1) while the consistent form vanishes
        assert literal.total_l2 > 10.0 * consistent.total_l2
        assert literal.params["literal"] is True

    def test_literal_form_samples_each_window_kernel_once(self, rng, monkeypatch):
        # its four terms share one plan: lap w for one term, w for three
        grid, system, orbitals, fields = random_orbital_setup(rng, n=32)
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        sampled = record_sampled_kernels(monkeypatch)
        chf.window_residual_literal(0, orbitals, fields, w)
        assert sampled == [w.laplacian(), w]


class TestPairedEvaluation:
    def test_pair_is_the_two_single_evaluations(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(rng, n=32)
        t, w = 3.0 * grid.spacing, chf.Gaussian(alpha=1.0, amplitude=1.0)
        poisson, window = chf.transformed_residuals(0, orbitals, fields, t, w)
        for paired, single in (
            (poisson, chf.poisson_transformed_residual(0, orbitals, fields, t)),
            (window, chf.window_transformed_residual(0, orbitals, fields, w)),
        ):
            assert paired.term_names == single.term_names
            assert paired.params == single.params
            assert paired.term_l2 == single.term_l2 and paired.term_sup == single.term_sup
            assert paired.total_field.values.tobytes() == single.total_field.values.tobytes()

    def test_zero_exchange_term_is_not_transformed(self, monkeypatch):
        # the hydrogen identity has s = 0, so its exchange term is zero: the
        # pair transforms only psi_a and the local term, and still matches
        # the singles, which do not transform the zero field either
        grid, system, orbitals, fields = hydrogen_identity(32, 6.0)
        t, w = 3.0 * grid.spacing, chf.Gaussian(alpha=1.0, amplitude=1.0)
        singles = (
            chf.poisson_transformed_residual(0, orbitals, fields, t),
            chf.window_transformed_residual(0, orbitals, fields, w),
        )
        transformed = []
        forward = ConvolutionPlan._forward

        def recorded(plan, values):
            transformed.append(values)
            return forward(plan, values)

        monkeypatch.setattr(ConvolutionPlan, "_forward", recorded)
        pair = chf.transformed_residuals(0, orbitals, fields, t, w)
        assert len(transformed) == 2 and all(v.any() for v in transformed)
        for paired, single in zip(pair, singles):
            assert paired.term_l2 == single.term_l2 and paired.term_sup == single.term_sup
            assert paired.term_l2[2] == 0.0
            assert paired.total_field.values.tobytes() == single.total_field.values.tobytes()

    def test_pair_rejects_what_the_singles_reject(self, rng):
        grid, system, orbitals, fields = random_orbital_setup(rng, n=32)
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        with pytest.raises(ResolutionError):
            chf.transformed_residuals(0, orbitals, fields, 0.01, w)
        with pytest.raises(ValueError, match="window"):
            chf.transformed_residuals(0, orbitals, fields, 1.0, chf.Slater1s())
