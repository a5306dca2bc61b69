import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft

import convolve_hf as chf
from convolve_hf.errors import GridMismatchError, NonFiniteError, SupportWarning
from convolve_hf.fields import irfftn, outer_shell_mass_fraction, rfftn

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

    @pytest.mark.parametrize("extent", [1e-300, 1e300])
    def test_rejects_cell_volume_outside_the_float_range(self, extent):
        with pytest.raises(ValueError, match="cell volume"):
            chf.GridSpec(points_per_axis=16, extent=extent)

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
        # also an ArithmeticError, which the CLI maps to exit 1
        with pytest.raises(NonFiniteError):
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

    def test_same_bits_for_every_blas_thread_count(self):
        # a BLAS dot splits its sum by thread, so its last bits follow the
        # thread count; the quadrature of the SCF and the Gram matrix must not
        script = (
            "import numpy as np, convolve_hf as chf; "
            "g = chf.GridSpec(points_per_axis=96, extent=8.0); "
            "r = np.random.default_rng(7); "
            "f, h = (chf.ScalarField(grid=g, values=r.standard_normal(g.shape)) for _ in 'fh'); "
            "print(repr(chf.inner(f, h)))"
        )
        printed = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.add(proc.stdout.strip())
        assert len(printed) == 1, printed

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_cauchy_schwarz(self, seed):
        g = chf.GridSpec(points_per_axis=8, extent=2.0)
        r = np.random.default_rng(seed)
        f = chf.ScalarField(grid=g, values=r.standard_normal(g.shape))
        h = chf.ScalarField(grid=g, values=r.standard_normal(g.shape))
        assert abs(chf.inner(f, h)) <= chf.norm(f, 2) * chf.norm(h, 2) * (1 + 1e-12)


class TestGridTransforms:
    @pytest.mark.parametrize("n", [8, 48, 64, 96])
    def test_pair_is_scipy_fft_bit_for_bit(self, n):
        values = np.random.default_rng(n).standard_normal((n, n, n))
        spec = rfftn(values, np.empty((n, n, n // 2 + 1), np.complex128))
        assert spec.tobytes() == sfft.rfftn(values).tobytes()
        spec *= np.random.default_rng(n + 1).standard_normal(spec.shape)
        want = sfft.irfftn(spec, s=(n, n, n))
        assert irfftn(spec, np.empty((n, n, n))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [8, 48, 64, 96])
    def test_pair_writes_into_dirty_arrays(self, n):
        # the SCF reuses its spectrum and orbital arrays from step to step,
        # so what they held before must not reach the result
        values = np.random.default_rng(n).standard_normal((n, n, n))
        spec = np.full((n, n, n // 2 + 1), np.nan, np.complex128)
        assert rfftn(values, spec) is spec
        assert spec.tobytes() == sfft.rfftn(values).tobytes()
        want = sfft.irfftn(spec, s=(n, n, n))
        out = np.full((n, n, n), np.inf)
        assert irfftn(spec, out) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [16, 48])  # inline, and shared among the workers
    def test_consuming_inverse_writes_only_its_spectrum_and_out(self, rng, n):
        # the spectrum and the output sit in one byte buffer between guard
        # bands that must come through untouched, and the call allocates no
        # array of their size
        guard = 4096
        spec_bytes, out_bytes = n * n * (n // 2 + 1) * 16, n**3 * 8
        buf = np.full(3 * guard + spec_bytes + out_bytes, 0xA5, np.uint8)
        spec = buf[guard : guard + spec_bytes].view(np.complex128).reshape(n, n, n // 2 + 1)
        out_start = 2 * guard + spec_bytes
        out = buf[out_start : out_start + out_bytes].view(np.float64).reshape(n, n, n)
        rfftn(rng.standard_normal((n, n, n)), spec)
        want = sfft.irfftn(spec, s=(n, n, n))
        guards = [slice(0, guard), slice(guard + spec_bytes, out_start),
                  slice(out_start + out_bytes, None)]
        kept = [buf[g].copy() for g in guards]
        tracemalloc.start()
        try:
            assert irfftn(spec, out) is out
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.tobytes() == want.tobytes()
        assert all(np.array_equal(buf[g], k) for g, k in zip(guards, kept))
        assert peak < out_bytes // 4


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
