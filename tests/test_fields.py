import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convolve_hf as chf
from convolve_hf.errors import GridMismatchError, SupportWarning
from convolve_hf.fields import outer_shell_mass_fraction

from support import unit_gaussian_orbital


def random_field(grid, rng, complex_values=True):
    vals = rng.standard_normal(grid.shape)
    if complex_values:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    return chf.ScalarField(grid=grid, values=vals)


class TestGridSpec:
    def test_spacing(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        assert g.spacing == pytest.approx(0.25)
        assert 0.0 in g.axis_coordinates()

    @pytest.mark.parametrize("n", [7, 6, 33])
    def test_rejects_odd_or_small_axis_counts(self, n):
        with pytest.raises(ValueError):
            chf.GridSpec(points_per_axis=n, extent=8.0)

    def test_rejects_bad_extent(self):
        with pytest.raises(ValueError):
            chf.GridSpec(points_per_axis=16, extent=-1.0)

    def test_nearest_node_roundtrip(self):
        g = chf.GridSpec(points_per_axis=16, extent=4.0)
        x = g.axis_coordinates()
        assert g.nearest_node((x[3], x[9], x[12])) == (3, 9, 12)


class TestScalarField:
    def test_rejects_nan(self, grid32):
        vals = np.zeros(grid32.shape)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            chf.ScalarField(grid=grid32, values=vals)

    def test_rejects_shape_mismatch(self, grid32):
        with pytest.raises(ValueError, match="shape"):
            chf.ScalarField(grid=grid32, values=np.zeros((4, 4, 4)))

    def test_dtype_follows_data(self, grid32, rng):
        re = rng.standard_normal(grid32.shape)
        for values, dtype in (
            (re, np.float64),
            (re.astype(np.complex128), np.float64),  # zero imaginary part
            (re + 1j * rng.standard_normal(grid32.shape), np.complex128),
        ):
            f = chf.ScalarField(grid=grid32, values=values)
            assert f.values.dtype == dtype
            assert f.is_real == (dtype == np.float64)
        assert np.array_equal(chf.ScalarField(grid=grid32, values=re + 0j).values, re)

    def test_grid_mismatch_on_algebra(self, grid32, grid64):
        with pytest.raises(GridMismatchError):
            chf.ScalarField.zeros(grid32) + chf.ScalarField.zeros(grid64)


class TestIntegrate:
    def test_zero_field(self, grid32):
        assert chf.integrate(chf.ScalarField.zeros(grid32)) == 0

    def test_unit_mass_gaussian(self):
        # analytic oracle: the density (a/pi)^(3/2) e^{-a r^2} has unit mass
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.Gaussian(alpha=1.0), g)
        assert chf.integrate(f).real == pytest.approx(1.0, abs=1e-6)

    def test_constant_field_gives_box_volume(self):
        g = chf.GridSpec(points_per_axis=16, extent=1.0)
        ones = chf.ScalarField(grid=g, values=np.ones(g.shape))
        assert chf.integrate(ones).real == pytest.approx(8.0, rel=1e-6)

    def test_linearity(self, grid32, rng):
        f, g = random_field(grid32, rng), random_field(grid32, rng)
        a, b = 1.7 - 0.3j, -2.5
        lhs = chf.integrate(f * a + g * b)
        rhs = a * chf.integrate(f) + b * chf.integrate(g)
        assert lhs == pytest.approx(rhs, rel=1e-13)


class TestNorm:
    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_zero_field(self, grid32, p):
        assert chf.norm(chf.ScalarField.zeros(grid32), p) == 0.0

    def test_unit_mass_gaussian_l1(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.Gaussian(alpha=1.0), g)
        assert chf.norm(f, 1) == pytest.approx(1.0, abs=1e-6)

    def test_sup_norm_of_constant(self, grid32):
        c = -3.25 + 1.5j
        f = chf.ScalarField(grid=grid32, values=np.full(grid32.shape, c))
        assert chf.norm(f, np.inf) == pytest.approx(abs(c))

    def test_unsupported_order_rejected(self, grid32):
        with pytest.raises(ValueError, match="unsupported"):
            chf.norm(chf.ScalarField.zeros(grid32), 3)

    def test_norm_squared_equals_inner(self, grid32, rng):
        f = random_field(grid32, rng)
        assert chf.norm(f, 2) ** 2 == pytest.approx(chf.inner(f, f).real, rel=1e-12)


class TestInner:
    def test_normalized_orbital(self, grid64):
        psi = unit_gaussian_orbital(grid64)
        assert chf.inner(psi, psi).real == pytest.approx(1.0, abs=1e-6)

    def test_zero_partner(self, grid32, rng):
        f = random_field(grid32, rng)
        assert chf.inner(f, chf.ScalarField.zeros(grid32)) == 0

    def test_hermitian_symmetry(self, grid32, rng):
        f, g = random_field(grid32, rng), random_field(grid32, rng)
        assert chf.inner(f, g) == pytest.approx(np.conj(chf.inner(g, f)), rel=1e-13)

    def test_grid_mismatch(self, grid32, grid64):
        with pytest.raises(GridMismatchError):
            chf.inner(chf.ScalarField.zeros(grid32), chf.ScalarField.zeros(grid64))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_cauchy_schwarz(self, seed):
        g = chf.GridSpec(points_per_axis=8, extent=2.0)
        r = np.random.default_rng(seed)
        f = chf.ScalarField(grid=g, values=r.standard_normal(g.shape) + 1j * r.standard_normal(g.shape))
        h = chf.ScalarField(grid=g, values=r.standard_normal(g.shape) + 1j * r.standard_normal(g.shape))
        assert abs(chf.inner(f, h)) <= chf.norm(f, 2) * chf.norm(h, 2) * (1 + 1e-12)


class TestLaplacian:
    def test_gaussian_against_symbolic_form(self):
        # d^2/dx^2 sum: lap e^{-r^2} = (4 r^2 - 6) e^{-r^2}
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        r2 = g.radius_squared()
        f = chf.ScalarField(grid=g, values=np.exp(-r2))
        exact = (4.0 * r2 - 6.0) * np.exp(-r2)
        spec = chf.laplacian(f, method="spectral")
        err = np.sqrt(((spec.values.real - exact) ** 2).sum() / (exact**2).sum())
        assert err <= 1e-3

    def test_stencil_second_order(self):
        # error ratio under h -> h/2 must sit in [3.5, 4.5]
        errs = []
        for n in (32, 64):
            g = chf.GridSpec(points_per_axis=n, extent=8.0)
            r2 = g.radius_squared()
            f = chf.ScalarField(grid=g, values=np.exp(-r2))
            exact = (4.0 * r2 - 6.0) * np.exp(-r2)
            st_lap = chf.laplacian(f, method="finite_difference_2nd")
            errs.append(np.sqrt(((st_lap.values.real - exact) ** 2).sum() * g.spacing**3))
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_constant_field_stencil(self, grid32):
        f = chf.ScalarField(grid=grid32, values=np.full(grid32.shape, 2.5))
        out = chf.laplacian(f, method="finite_difference_2nd")
        assert chf.norm(out, np.inf) == 0.0

    def test_plane_wave_is_spectral_eigenfunction(self):
        g = chf.GridSpec(points_per_axis=32, extent=4.0)
        x = g.axis_coordinates()
        wave = np.sin(2 * np.pi * x[:, None, None] / g.extent) * np.ones(g.shape)
        f = chf.ScalarField(grid=g, values=wave)
        out = chf.laplacian(f, method="spectral")
        expected = -((2 * np.pi / g.extent) ** 2) * wave
        assert np.abs(out.values.real - expected).max() <= 1e-10

    def test_unknown_method(self, grid32):
        with pytest.raises(ValueError, match="method"):
            chf.laplacian(chf.ScalarField.zeros(grid32), method="nope")

    def test_boundary_support_warning(self):
        g = chf.GridSpec(points_per_axis=16, extent=2.0)
        vals = np.zeros(g.shape)
        vals[0, :, :] = 1.0  # all mass on a boundary face
        f = chf.ScalarField(grid=g, values=vals)
        with pytest.warns(SupportWarning):
            chf.laplacian(f, method="spectral")

    def test_interior_support_no_warning(self, grid32):
        import warnings

        f = unit_gaussian_orbital(grid32)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SupportWarning)
            chf.laplacian(f, method="spectral")

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_shell_fraction_matches_uncached_formula(self, grid32, rng, complex_values):
        f = random_field(grid32, rng, complex_values)
        x = np.abs(grid32.axis_coordinates())
        edge = 0.9 * grid32.extent
        shell = (
            (x[:, None, None] >= edge) | (x[None, :, None] >= edge) | (x[None, None, :] >= edge)
        )
        dens = f.values.real**2 + f.values.imag**2
        expected = float(dens[shell].sum() / dens.sum())
        for _ in range(2):  # cold and cached mask
            assert outer_shell_mass_fraction(f) == expected
