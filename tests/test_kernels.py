import numpy as np
import pytest

import convolve_hf as chf

from support import gaussian_overlap, integral


class TestPoissonKernel:
    def test_value_at_origin(self):
        assert chf.PoissonKernel(t=1.0)(0, 0, 0) == pytest.approx(1 / np.pi**2)

    def test_value_at_unit_radius(self):
        assert chf.PoissonKernel(t=1.0)(1, 0, 0) == pytest.approx(1 / (4 * np.pi**2))

    def test_dilation_identity(self, rng):
        for _ in range(20):
            x = rng.uniform(-3, 3, 3)
            t = rng.uniform(0.2, 4.0)
            lhs = chf.PoissonKernel(t=t)(*x)
            rhs = t**-3 * chf.PoissonKernel(t=1.0)(*(x / t))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_positive_height_required(self):
        with pytest.raises(ValueError):
            chf.PoissonKernel(t=0.0)
        with pytest.raises(ValueError):
            chf.PoissonKernel(t=-1.0)


class TestPoissonSecondDerivative:
    def test_value_at_origin(self):
        # frozen from the symbolic derivative of the kernel in t
        assert chf.PoissonDt2Kernel(t=1.0)(0, 0, 0) == pytest.approx(12 / np.pi**2)

    def test_finite_difference_oracle(self, rng):
        delta = 1e-3
        for _ in range(25):
            x = rng.uniform(-2, 2, 3)
            t = rng.uniform(0.5, 2.0)
            fd = (
                chf.PoissonKernel(t=t + delta)(*x)
                - 2 * chf.PoissonKernel(t=t)(*x)
                + chf.PoissonKernel(t=t - delta)(*x)
            ) / delta**2
            assert abs(fd - chf.PoissonDt2Kernel(t=t)(*x)) <= 1e-5

    def test_radial_symmetry(self, rng):
        kernel = chf.PoissonDt2Kernel(t=1.3)
        for _ in range(10):
            x = rng.uniform(-2, 2, 3)
            r = np.linalg.norm(x)
            assert kernel(*x) == pytest.approx(kernel(r, 0, 0), rel=1e-12)

    def test_rejects_nonpositive_height(self):
        with pytest.raises(ValueError):
            chf.PoissonDt2Kernel(t=-0.5)


class TestCoulomb:
    def test_simple_values(self):
        assert chf.CoulombKernel()(2, 0, 0) == pytest.approx(0.5)
        assert chf.CoulombKernel()(1, 1, 1) == pytest.approx(1 / np.sqrt(3))

    def test_translation(self, rng):
        for _ in range(10):
            x = rng.uniform(-3, 3, 3)
            c = rng.uniform(-1, 1, 3)
            shifted = chf.CoulombKernel(center=tuple(c))(*x)
            assert shifted == pytest.approx(chf.CoulombKernel()(*(x - c)), rel=1e-12)


class TestSample:
    def test_slater_peak_value(self, grid64):
        f = chf.sample(chf.Slater1s(), grid64)
        center = grid64.nearest_node((0, 0, 0))
        assert f.values.real[center] == pytest.approx(np.pi**-0.5)

    def test_sharp_gaussian_keeps_unit_mass(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.Gaussian(alpha=4.0), g)
        assert integral(f).real == pytest.approx(1.0, abs=1e-4)

    def test_poisson_sup_norm(self, grid64):
        f = chf.sample(chf.PoissonKernel(t=1.0), grid64)
        assert chf.norm(f, np.inf) == pytest.approx(1 / np.pi**2)

    def test_coulomb_mollified_at_center_node(self):
        g = chf.GridSpec(points_per_axis=32, extent=8.0)
        f = chf.sample(chf.CoulombKernel(), g)
        center = g.nearest_node((0, 0, 0))
        assert f.values.real[center] == pytest.approx(chf.COULOMB_CELL_MEAN / g.spacing)
        # neighbors keep pointwise values
        i, j, k = center
        assert f.values.real[i + 1, j, k] == pytest.approx(1.0 / g.spacing)

    def test_coulomb_cell_mean_is_its_closed_form(self):
        # the mean of 1/|s| over a unit cube centred on the singularity
        closed_form = 3.0 * np.log(2.0 + np.sqrt(3.0)) - np.pi / 2.0
        assert abs(chf.COULOMB_CELL_MEAN - closed_form) <= np.spacing(closed_form)


class TestEvenTemperedBasis:
    def test_exponent_progression(self):
        b0 = chf.basis_function(0, alpha0=0.1, beta=3.0)
        b2 = chf.basis_function(2, alpha0=0.1, beta=3.0)
        assert b0.alpha == pytest.approx(0.1)
        assert b2.alpha == pytest.approx(0.9)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_unit_l2_norm_on_grid(self, k):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        f = chf.sample(chf.basis_function(k, alpha0=0.5, beta=2.0), g)
        assert chf.norm(f, 2) == pytest.approx(1.0, abs=1e-6)

    def test_neighbor_overlap_formula(self):
        # closed-form Gaussian product integral as the oracle
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        alpha0, beta = 0.4, 2.5
        for k in (0, 1):
            fa = chf.sample(chf.basis_function(k, alpha0, beta), g)
            fb = chf.sample(chf.basis_function(k + 1, alpha0, beta), g)
            expected = gaussian_overlap(alpha0 * beta**k, alpha0 * beta ** (k + 1))
            assert chf.inner(fa, fb).real == pytest.approx(expected, abs=1e-6)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            chf.basis_function(0, alpha0=-0.1, beta=3.0)
        with pytest.raises(ValueError):
            chf.basis_function(0, alpha0=0.1, beta=1.0)
