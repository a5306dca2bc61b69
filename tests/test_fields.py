import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convolve_hf as chf
from convolve_hf.errors import GridMismatchError, SupportWarning
from convolve_hf.fields import outer_shell_mass_fraction

from support import unit_gaussian_orbital


def random_field(grid, rng):
    return chf.ScalarField(grid=grid, values=rng.standard_normal(grid.shape))


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

    def test_values_must_be_real(self, grid32, rng):
        re = rng.standard_normal(grid32.shape)
        with pytest.raises(ValueError, match="real"):
            chf.ScalarField(grid=grid32, values=re + 1j * rng.standard_normal(grid32.shape))
        # a zero imaginary part is dropped: float64, bit for bit the real part
        f = chf.ScalarField(grid=grid32, values=re + 0j)
        assert f.values.dtype == np.float64
        assert f.values.tobytes() == re.tobytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_real_inputs_stored_as_float64(self, grid32, rng, dtype):
        raw = (8 * rng.standard_normal(grid32.shape)).astype(dtype)
        f = chf.ScalarField(grid=grid32, values=raw)
        assert f.values.dtype == np.float64
        assert np.array_equal(f.values, raw.astype(np.float64))

    def test_tiny_imaginary_part_rejected(self, grid32):
        # any nonzero imaginary part counts, however small
        vals = np.zeros(grid32.shape, dtype=np.complex128)
        vals[3, 4, 5] = 1e-300j
        with pytest.raises(ValueError, match="real"):
            chf.ScalarField(grid=grid32, values=vals)

    def test_complex_scalar_product(self, grid32, rng):
        f = random_field(grid32, rng)
        with pytest.raises(ValueError, match="real"):
            f * 1j
        g = f * (2.0 + 0j)
        assert g.values.dtype == np.float64
        assert g.values.tobytes() == (f * 2.0).values.tobytes()

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
        assert chf.integrate(f) == pytest.approx(1.0, abs=1e-6)

    def test_constant_field_gives_box_volume(self):
        g = chf.GridSpec(points_per_axis=16, extent=1.0)
        ones = chf.ScalarField(grid=g, values=np.ones(g.shape))
        assert chf.integrate(ones) == pytest.approx(8.0, rel=1e-6)

    def test_linearity(self, grid32, rng):
        f, g = random_field(grid32, rng), random_field(grid32, rng)
        a, b = 1.7, -2.5
        lhs = chf.integrate(f * a + g * b)
        rhs = a * chf.integrate(f) + b * chf.integrate(g)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_returns_python_float(self, grid32, rng):
        assert type(chf.integrate(random_field(grid32, rng))) is float


class TestNorm:
    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_zero_field(self, grid32, p):
        assert chf.norm(chf.ScalarField.zeros(grid32), p) == 0.0

    def test_unit_mass_gaussian_l1(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.Gaussian(alpha=1.0), g)
        assert chf.norm(f, 1) == pytest.approx(1.0, abs=1e-6)

    def test_sup_norm_of_constant(self, grid32):
        c = -3.25
        f = chf.ScalarField(grid=grid32, values=np.full(grid32.shape, c))
        assert chf.norm(f, np.inf) == pytest.approx(abs(c))

    def test_unsupported_order_rejected(self, grid32):
        with pytest.raises(ValueError, match="unsupported"):
            chf.norm(chf.ScalarField.zeros(grid32), 3)

    def test_norm_squared_equals_inner(self, grid32, rng):
        f = random_field(grid32, rng)
        assert chf.norm(f, 2) ** 2 == pytest.approx(chf.inner(f, f), rel=1e-12)


class TestInner:
    def test_normalized_orbital(self, grid64):
        psi = unit_gaussian_orbital(grid64)
        assert chf.inner(psi, psi) == pytest.approx(1.0, abs=1e-6)

    def test_zero_partner(self, grid32, rng):
        f = random_field(grid32, rng)
        assert chf.inner(f, chf.ScalarField.zeros(grid32)) == 0

    def test_symmetry(self, grid32, rng):
        f, g = random_field(grid32, rng), random_field(grid32, rng)
        assert chf.inner(f, g) == pytest.approx(chf.inner(g, f), rel=1e-13)

    def test_returns_python_float(self, grid32, rng):
        f, g = random_field(grid32, rng), random_field(grid32, rng)
        assert type(chf.inner(f, g)) is float

    def test_grid_mismatch(self, grid32, grid64):
        with pytest.raises(GridMismatchError):
            chf.inner(chf.ScalarField.zeros(grid32), chf.ScalarField.zeros(grid64))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_cauchy_schwarz(self, seed):
        g = chf.GridSpec(points_per_axis=8, extent=2.0)
        r = np.random.default_rng(seed)
        f = chf.ScalarField(grid=g, values=r.standard_normal(g.shape))
        h = chf.ScalarField(grid=g, values=r.standard_normal(g.shape))
        assert abs(chf.inner(f, h)) <= chf.norm(f, 2) * chf.norm(h, 2) * (1 + 1e-12)


class TestLaplacian:
    def test_gaussian_against_symbolic_form(self):
        # d^2/dx^2 sum: lap e^{-r^2} = (4 r^2 - 6) e^{-r^2}
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        r2 = g.radius_squared()
        f = chf.ScalarField(grid=g, values=np.exp(-r2))
        exact = (4.0 * r2 - 6.0) * np.exp(-r2)
        spec = chf.laplacian(f, method="spectral")
        err = np.sqrt(((spec.values - exact) ** 2).sum() / (exact**2).sum())
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
            errs.append(np.sqrt(((st_lap.values - exact) ** 2).sum() * g.spacing**3))
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
        assert np.abs(out.values - expected).max() <= 1e-10

    def test_spectral_is_one_real_transform_pair(self, grid32, monkeypatch):
        import convolve_hf.fields as fields_mod

        calls = []
        spectral = fields_mod.spectral_laplacian

        def counted(values, grid):
            calls.append(values.dtype)
            return spectral(values, grid)

        monkeypatch.setattr(fields_mod, "spectral_laplacian", counted)
        out = chf.laplacian(unit_gaussian_orbital(grid32), method="spectral")
        assert calls == [np.float64]
        assert out.values.dtype == np.float64

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

    def test_shell_fraction_matches_uncached_formula(self, grid32, rng):
        f = random_field(grid32, rng)
        x = np.abs(grid32.axis_coordinates())
        edge = 0.9 * grid32.extent
        shell = (
            (x[:, None, None] >= edge) | (x[None, :, None] >= edge) | (x[None, None, :] >= edge)
        )
        dens = f.values * f.values
        expected = float(dens[shell].sum() / dens.sum())
        for _ in range(2):  # cold and cached mask
            assert outer_shell_mass_fraction(f) == expected
