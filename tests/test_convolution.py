import sys
import threading
import tracemalloc
import warnings
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy.special import erf

import convolve_hf as chf
from convolve_hf import convolution, extension, verify
from convolve_hf.convolution import ConvolutionPlan, _sample_kernel_octant
from convolve_hf.errors import GridMismatchError, ResolutionWarning

from support import direct_convolution, radial_coulomb_potential


def _random(grid, rng):
    return chf.ScalarField(grid=grid, values=rng.standard_normal(grid.shape))


# every convolvable kind, as a function of the grid spacing h; heights below
# 2h take the cell-averaged sampling path
KERNELS = {
    "coulomb": lambda h: chf.CoulombKernel(),
    "poisson": lambda h: chf.PoissonKernel(t=3.0 * h),
    "poisson_under_resolved": lambda h: chf.PoissonKernel(t=0.5 * h),
    "poisson_dt2": lambda h: chf.PoissonDt2Kernel(t=3.0 * h),
    "poisson_dt2_under_resolved": lambda h: chf.PoissonDt2Kernel(t=h),
    "gaussian": lambda h: chf.Gaussian(alpha=1.0, amplitude=1.0),
    "gaussian_laplacian": lambda h: chf.GaussianLaplacian(alpha=1.0),
}


def _mirrored(octant):
    """The full (2n)^3 offset grid of an even kernel from its octant."""
    n = octant.shape[0] - 1
    idx = np.r_[0 : n + 1, n - 1 : 0 : -1]
    return octant[np.ix_(idx, idx, idx)]


def _padded_reference(values, partner_padded, start, h):
    """Explicit (2n)^3 zero-padded FFT convolution, cropped from ``start``."""
    n = values.shape[0]
    pad = np.zeros((2 * n,) * 3, dtype=complex)
    pad[:n, :n, :n] = values
    full = np.fft.ifftn(np.fft.fftn(pad) * np.fft.fftn(partner_padded))
    return full[start : start + n, start : start + n, start : start + n] * h**3


def _unblocked_spectrum(values):
    """The whole padded half-spectrum (2n, 2n, n+1) by the engine's one-axis
    passes: z, y on the n nonzero x rows, then x."""
    m = 2 * values.shape[0]
    spec = sfft.rfftn(values, s=(m,), axes=(2,))
    spec = sfft.fftn(spec, s=(m,), axes=(1,))
    return sfft.fftn(spec, s=(m,), axes=(0,))


def _unblocked(values, partner, start, h):
    """Convolution through the whole padded half-spectrum: its product with
    ``partner``, then the inverse x, y and z passes, each cropped to n
    nodes from ``start``."""
    m = 2 * values.shape[0]
    keep = slice(start, start + m // 2)
    spec = sfft.ifftn(_unblocked_spectrum(values) * partner, axes=(0,))[keep]
    spec = sfft.ifftn(spec, axes=(1,))[:, keep]
    return sfft.irfftn(spec, s=(m,), axes=(2,))[:, :, keep] * h**3


def _rel_err(out, ref):
    return np.abs(out - ref).max() / np.abs(ref).max()


def _empty_cache():
    """Context in which the process-wide spectrum cache starts empty; the
    previous cache comes back on exit."""
    return mock.patch.multiple(convolution, _spectra=OrderedDict(), _spectra_bytes=0)


@pytest.fixture
def empty_cache():
    with _empty_cache():
        yield


class TestFieldConvolution:
    def test_impulse_identity(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid32)
        n = grid32.points_per_axis
        delta = np.zeros(grid32.shape)
        delta[n // 2, n // 2, n // 2] = 1.0 / grid32.spacing**3
        out = chf.convolve(f, chf.ScalarField(grid=grid32, values=delta))
        assert np.abs(out.values - f.values).max() <= 1e-10

    def test_impulse_shift(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=2.0, amplitude=1.0), grid32)
        n = grid32.points_per_axis
        delta = np.zeros(grid32.shape)
        delta[n // 2 + 3, n // 2, n // 2] = 1.0 / grid32.spacing**3
        out = chf.convolve(f, chf.ScalarField(grid=grid32, values=delta))
        shifted = np.zeros_like(f.values)
        shifted[3:, :, :] = f.values[:-3, :, :]
        assert np.abs(out.values - shifted).max() <= 1e-10

    def test_gaussian_gaussian_closed_form(self):
        # e^{-a r^2} * e^{-b r^2} = (pi/(a+b))^{3/2} e^{-ab r^2/(a+b)}
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        f = chf.ScalarField(grid=g, values=np.exp(-g.radius_squared()))
        out = chf.convolve(f, f)
        exact = (np.pi / 2.0) ** 1.5 * np.exp(-0.5 * g.radius_squared())
        rel = np.abs(out.values - exact).max() / exact.max()
        assert rel <= 1e-4

    def test_commutativity(self, grid32, rng):
        f, g = _random(grid32, rng), _random(grid32, rng)
        d = chf.convolve(f, g) - chf.convolve(g, f)
        assert chf.norm(d, np.inf) <= 1e-12

    def test_linearity(self, grid32, rng):
        f1, f2, g = (_random(grid32, rng) for _ in range(3))
        a = -2.3
        lhs = chf.convolve(f1 * a + f2, g)
        rhs = a * chf.convolve(f1, g) + chf.convolve(f2, g)
        scale = chf.norm(lhs, np.inf)
        assert chf.norm(lhs - rhs, np.inf) <= 1e-12 * scale

    def test_young_bound(self, grid32, rng):
        for _ in range(5):
            f, g = _random(grid32, rng), _random(grid32, rng)
            assert chf.norm(chf.convolve(f, g), np.inf) <= (
                chf.norm(f, np.inf) * chf.norm(g, 1) + 1e-9
            )

    def test_matches_direct_summation(self, rng):
        # brute-force O(N^6) oracle on an 8^3 grid, inner-half supported
        g = chf.GridSpec(points_per_axis=8, extent=1.0)
        mask = np.zeros(g.shape)
        mask[2:6, 2:6, 2:6] = 1.0
        f = chf.ScalarField(grid=g, values=rng.standard_normal(g.shape) * mask)
        k = chf.ScalarField(grid=g, values=rng.standard_normal(g.shape) * mask)
        fast = chf.convolve(f, k).values
        brute = direct_convolution(f, k)
        assert np.abs(fast - brute).max() <= 1e-10
        # the verify command's own direct sum adds in the same order
        assert np.array_equal(verify._direct_convolution(f, k), brute.real)

    def test_grid_mismatch(self, grid32, grid64):
        with pytest.raises(GridMismatchError):
            chf.convolve(chf.ScalarField.zeros(grid32), chf.ScalarField.zeros(grid64))


class TestCoulombConvolve:
    def test_erf_oracle_and_radial_quadrature(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        alpha = 1.0
        f = chf.sample(chf.Gaussian(alpha=alpha), g)
        out = chf.coulomb_convolve(f).values
        r = np.sqrt(g.radius_squared())
        with np.errstate(invalid="ignore"):
            exact = np.where(r > 1e-12, erf(np.sqrt(alpha) * r) / np.where(r > 0, r, 1.0),
                             2 * np.sqrt(alpha / np.pi))
        assert np.abs(out - exact).max() / exact.max() <= 0.01
        # independent 1-D radial quadrature oracle at a few radii
        rho = lambda s: (alpha / np.pi) ** 1.5 * np.exp(-alpha * s * s)
        center = g.nearest_node((0, 0, 0))
        i0 = center[0]
        for steps in (0, 4, 12):
            expected = radial_coulomb_potential(rho, steps * g.spacing)
            assert out[i0 + steps, i0, i0] == pytest.approx(expected, rel=0.01)

    def test_zero_field(self, grid32):
        out = chf.coulomb_convolve(chf.ScalarField.zeros(grid32))
        assert chf.norm(out, np.inf) == 0.0

    def test_far_field_monopole(self):
        g = chf.GridSpec(points_per_axis=48, extent=10.0)
        f = chf.sample(chf.Gaussian(alpha=2.0), g)  # unit mass
        out = chf.coulomb_convolve(f).values
        i = g.nearest_node((5.0, 0.0, 0.0))
        assert out[i] == pytest.approx(1.0 / 5.0, rel=0.02)

    def test_nonnegative_output_for_nonnegative_input(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        out = chf.coulomb_convolve(f)
        assert out.values.min() >= -1e-12


class TestKernelConvolution:
    def test_gaussian_kernel_matches_field_path(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=2.0, amplitude=1.0), grid32)
        kern = chf.Gaussian(alpha=1.5, amplitude=0.8)
        via_kernel = chf.convolve_with_kernel(f, kern)
        via_fields = chf.convolve(f, chf.sample(kern, grid32))
        scale = chf.norm(via_kernel, np.inf)
        assert chf.norm(via_kernel - via_fields, np.inf) <= 1e-12 * scale

    def test_semigroup(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.PoissonKernel(t=0.5), g)
        out = chf.convolve_with_kernel(f, chf.PoissonKernel(t=0.5))
        target = chf.sample(chf.PoissonKernel(t=1.0), g)
        rel = chf.norm(out - target, np.inf) / chf.norm(target, np.inf)
        assert rel <= 0.02

    def test_mass_preservation_small_height(self):
        # the kernel tail ~4t/(pi R) sets the observable loss, so a small
        # height keeps the box-truncation inside the 1% budget
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        f = chf.sample(chf.Gaussian(alpha=1.0), g)  # unit mass, compact support
        with pytest.warns(ResolutionWarning):
            out = chf.convolve_with_kernel(f, chf.PoissonKernel(t=0.05))
        assert chf.integrate(out) == pytest.approx(1.0, abs=0.01)

    def test_discrete_kernel_mass_bounded_by_one(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        for t in (0.1, 0.05):
            kernel = chf.PoissonKernel(t=t)
            octant = _sample_kernel_octant(kernel, g)
            # the spectrum's DC term is the mirrored sum of the octant
            mass = ConvolutionPlan(g).kernel_spectrum(kernel)[0, 0, 0] * g.spacing**3
            assert mass == pytest.approx(1.0, abs=0.01)
            assert mass <= 1.0 + 1e-9
            assert octant.min() >= 0.0

    def test_under_resolved_warns_on_every_convolution(self, grid32, empty_cache):
        plan = ConvolutionPlan(grid32)
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        kernel = chf.PoissonKernel(t=0.5 * grid32.spacing)
        for _ in range(2):  # spectrum-cache miss, then hit
            with pytest.warns(ResolutionWarning):
                plan.convolve_with_kernel(f, kernel)

    def test_resolution_warning_names_the_caller(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        kernel = chf.PoissonKernel(t=0.5 * grid32.spacing)
        entry_points = (
            lambda: chf.convolve_with_kernel(f, kernel),
            lambda: ConvolutionPlan(grid32).convolve_with_kernel(f, kernel),
        )
        for convolve_once in entry_points:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                convolve_once()
            assert [w.category for w in caught] == [ResolutionWarning]
            assert caught[0].filename == __file__

    def test_zero_field_skips_the_engine(self, grid32, monkeypatch):
        # no transform and no warning, even for an under-resolved kernel
        monkeypatch.setattr(ConvolutionPlan, "convolve_with_kernel", None)
        zero = chf.ScalarField.zeros(grid32)
        under = chf.PoissonKernel(t=0.5 * grid32.spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = chf.convolve_with_kernel(zero, under)
            group = chf.convolve_with_kernel(zero, (under, chf.Gaussian(alpha=1.0)))
        assert not single.values.any() and single.grid == grid32
        assert len(group) == 2 and not any(g.values.any() for g in group)

    def test_under_resolved_is_t_below_two_h(self, grid32):
        floor = chf.resolution_floor(grid32)
        assert chf.under_resolved(0.99 * floor, grid32)
        assert not chf.under_resolved(floor, grid32)
        assert not chf.under_resolved(floor * (1.0 - 1e-13), grid32)  # roundoff of 2h

    def test_unsupported_kernel_kind(self, grid32):
        f = chf.ScalarField.zeros(grid32)
        with pytest.raises(ValueError, match="unsupported"):
            chf.convolve_with_kernel(f, chf.Slater1s())

    def test_off_center_kernel_rejected(self, grid32):
        f = chf.ScalarField.zeros(grid32)
        with pytest.raises(ValueError, match="centered"):
            chf.convolve_with_kernel(f, chf.Gaussian(alpha=1.0, center=(1.0, 0, 0)))


@pytest.mark.usefixtures("empty_cache")
class TestSpectrumCache:
    def test_warm_and_cold_runs_identical(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        cold = chf.coulomb_convolve(f)
        assert len(convolution._spectra) == 1
        warm = ConvolutionPlan(grid32).convolve_with_kernel(f, chf.CoulombKernel())
        assert np.array_equal(cold.values, warm.values)

    def test_cache_hit_is_shared_by_every_plan(self, grid32):
        s1 = ConvolutionPlan(grid32).kernel_spectrum(chf.CoulombKernel())
        s2 = ConvolutionPlan(grid32).kernel_spectrum(chf.CoulombKernel())
        assert s1 is s2

    def test_concurrent_misses_count_bytes_once(self, grid32, monkeypatch):
        # both threads miss the same kernel before either inserts it
        barrier = threading.Barrier(2, timeout=30)
        sample_octant = convolution._sample_kernel_octant

        def sample_in_step(kernel, grid):
            barrier.wait()
            return sample_octant(kernel, grid)

        monkeypatch.setattr(convolution, "_sample_kernel_octant", sample_in_step)
        threads = [
            threading.Thread(
                target=ConvolutionPlan(grid32).kernel_spectrum, args=(chf.CoulombKernel(),)
            )
            for _ in range(2)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        assert len(convolution._spectra) == 1
        assert convolution._spectra_bytes == sum(v.nbytes for v in convolution._spectra.values())

    def test_threads_on_two_grids_keep_the_byte_count(self, monkeypatch):
        # tiny grids keep each miss short, so the threads interleave often
        grids = (chf.GridSpec(points_per_axis=8, extent=1.0),
                 chf.GridSpec(points_per_axis=10, extent=1.0))
        budget = 3 * 11**3 * 8  # evicts while the threads insert
        monkeypatch.setattr(convolution, "_SPECTRUM_BUDGET_BYTES", budget)
        kernels = [chf.PoissonKernel(t=1.0 + 0.25 * i) for i in range(5)]
        failures = []

        def work(grid):
            try:
                for _ in range(300):
                    for kernel in kernels:
                        ConvolutionPlan(grid).kernel_spectrum(kernel)
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(g,)) for g in grids * 4]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert convolution._spectra_bytes == sum(v.nbytes for v in convolution._spectra.values())
        assert convolution._spectra_bytes <= budget

    def test_cache_eviction_is_bounded(self, grid32, monkeypatch):
        monkeypatch.setattr(convolution, "_SPECTRUM_BUDGET_BYTES", 1)
        plan = ConvolutionPlan(grid32)
        plan.kernel_spectrum(chf.PoissonKernel(t=1.0))
        plan.kernel_spectrum(chf.PoissonKernel(t=2.0))
        assert list(convolution._spectra) == [(grid32, chf.PoissonKernel(t=2.0))]

    def test_one_budget_evicts_across_grids(self, grid32, monkeypatch):
        grid16 = chf.GridSpec(points_per_axis=16, extent=4.0)
        # room for one 33^3 and one 17^3 spectrum, not for a third
        monkeypatch.setattr(convolution, "_SPECTRUM_BUDGET_BYTES", (33**3 + 17**3) * 8)
        ConvolutionPlan(grid32).kernel_spectrum(chf.CoulombKernel())
        ConvolutionPlan(grid16).kernel_spectrum(chf.CoulombKernel())
        assert len(convolution._spectra) == 2
        ConvolutionPlan(grid16).kernel_spectrum(chf.PoissonKernel(t=1.0))
        assert list(convolution._spectra) == [
            (grid16, chf.CoulombKernel()),
            (grid16, chf.PoissonKernel(t=1.0)),
        ]
        assert convolution._spectra_bytes == 2 * 17**3 * 8

    def test_cached_spectrum_is_the_real_octant(self, grid32):
        spec = ConvolutionPlan(grid32).kernel_spectrum(chf.CoulombKernel())
        assert spec.dtype == np.float64
        assert spec.nbytes == convolution._spectra_bytes == 33**3 * 8

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(sorted(KERNELS)),
    )
    def test_cold_warm_and_rerun_outputs_identical(self, seed, kind):
        g = chf.GridSpec(points_per_axis=16, extent=4.0)
        rng = np.random.default_rng(seed)
        f, partner = _random(g, rng), _random(g, rng)
        kernel = KERNELS[kind](g.spacing)
        plan = ConvolutionPlan(g)
        with _empty_cache(), warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            # a miss, then two hits of the spectrum it cached
            runs = [plan.convolve_with_kernel(f, kernel).values.tobytes() for _ in range(3)]
            assert len(convolution._spectra) == 1
        assert runs[1:] == [runs[0], runs[0]]
        pairs = [plan.convolve_fields(f, partner).values.tobytes() for _ in range(2)]
        assert pairs[0] == pairs[1]


class TestPrunedEngine:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_octant_spectrum_is_full_grid_dft(self, grid32, kind):
        kernel = KERNELS[kind](grid32.spacing)
        octant = _sample_kernel_octant(kernel, grid32)
        n = grid32.points_per_axis
        full = np.fft.rfftn(_mirrored(octant))[: n + 1, : n + 1, :]
        spec = ConvolutionPlan(grid32).kernel_spectrum(kernel)
        assert _rel_err(spec, full.real.transpose(2, 0, 1)) <= 1e-14  # kz-first

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_kernel_convolution_matches_padded_reference(self, grid32, rng, kind):
        f = _random(grid32, rng)
        kernel = KERNELS[kind](grid32.spacing)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            out = ConvolutionPlan(grid32).convolve_with_kernel(f, kernel).values
            full_kernel = _mirrored(_sample_kernel_octant(kernel, grid32))
        ref = _padded_reference(f.values, full_kernel, 0, grid32.spacing)
        assert out.dtype == np.float64
        assert _rel_err(out, ref) <= 1e-14

    def test_plane_blocks_are_the_unblocked_passes_bit_for_bit(self, grid32, rng):
        # with 8-plane blocks, the 33 kz planes make four full blocks and a partial one
        f, g = _random(grid32, rng), _random(grid32, rng)
        n, h = grid32.points_per_axis, grid32.spacing
        plan = ConvolutionPlan(grid32)
        kernels = tuple(KERNELS[kind](h) for kind in sorted(KERNELS))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            outs = plan.convolve_with_kernel(f, kernels)
        fold = np.r_[0 : n + 1, n - 1 : 0 : -1]
        for kernel, out in zip(kernels, outs):
            octant = plan.kernel_spectrum(kernel).transpose(1, 2, 0)  # [kx, ky, kz]
            ref = _unblocked(f.values, octant[np.ix_(fold, fold, np.arange(n + 1))], 0, h)
            assert out.values.tobytes() == ref.tobytes()
        ref = _unblocked(f.values, _unblocked_spectrum(g.values), n // 2, h)
        assert plan.convolve_fields(f, g).values.tobytes() == ref.tobytes()

    def test_field_convolution_matches_padded_reference(self, grid32, rng):
        f, g = _random(grid32, rng), _random(grid32, rng)
        n = grid32.points_per_axis
        g_padded = np.zeros((2 * n,) * 3, dtype=complex)
        g_padded[:n, :n, :n] = g.values
        out = ConvolutionPlan(grid32).convolve_fields(f, g).values
        ref = _padded_reference(f.values, g_padded, n // 2, grid32.spacing)
        assert out.dtype == np.float64
        assert _rel_err(out, ref) <= 1e-14


def _peak_bytes(fn):
    """Peak bytes traced by tracemalloc while ``fn()`` runs, over what was
    allocated before it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


class TestGroupedKernels:
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_group_outputs_are_the_single_kernel_outputs(self, grid32, rng, size):
        # rotating through all kinds puts every kind at every group position
        kernels = [KERNELS[kind](grid32.spacing) for kind in sorted(KERNELS)]
        f = _random(grid32, rng)
        plan = ConvolutionPlan(grid32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            singles = {k: plan.convolve_with_kernel(f, k).values for k in kernels}
            for i in range(len(kernels)):
                group = tuple(kernels[(i + j) % len(kernels)] for j in range(size))
                outs = plan.convolve_with_kernel(f, group)
                assert isinstance(outs, tuple) and len(outs) == size
                for kernel, out in zip(group, outs):
                    assert out.values.dtype == np.float64
                    assert out.values.tobytes() == singles[kernel].tobytes()

    def test_repeated_kernel_in_a_group(self, grid32, rng):
        f = _random(grid32, rng)
        poisson = KERNELS["poisson"](grid32.spacing)
        gaussian = KERNELS["gaussian"](grid32.spacing)
        single = chf.convolve_with_kernel(f, poisson).values.tobytes()
        outs = chf.convolve_with_kernel(f, (poisson, gaussian, poisson))
        assert outs[0].values.tobytes() == outs[2].values.tobytes() == single

    def test_group_leaves_spectra_and_field_unchanged(self, grid32, rng, empty_cache):
        f = _random(grid32, rng)
        field_before = f.values.tobytes()
        kernels = tuple(KERNELS[kind](grid32.spacing)
                        for kind in ("poisson", "gaussian", "coulomb"))
        plan = ConvolutionPlan(grid32)
        spectra_before = [plan.kernel_spectrum(k).tobytes() for k in kernels]
        plan.convolve_with_kernel(f, kernels)
        assert f.values.tobytes() == field_before
        assert [plan.kernel_spectrum(k).tobytes() for k in kernels] == spectra_before

    def test_extend_group_warns_once_per_under_resolved_height(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        h = grid32.spacing
        under = (0.25 * h, 0.5 * h)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chf.extend(f, (*under, 3.0 * h))
        assert [w.category for w in caught] == [ResolutionWarning] * 2
        assert all(f"t={t:g} " in str(w.message) for w, t in zip(caught, under))
        # the caller of the grouped convolution, not the engine
        assert {w.filename for w in caught} == {extension.__file__}

    def test_grouped_call_names_its_caller(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        under = chf.PoissonKernel(t=0.5 * grid32.spacing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chf.convolve_with_kernel(f, (under, chf.Gaussian(alpha=1.0)))
        assert [w.category for w in caught] == [ResolutionWarning]
        assert caught[0].filename == __file__

    def test_group_is_validated_before_any_transform(self, grid32, monkeypatch):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        monkeypatch.setattr(ConvolutionPlan, "_forward", None)  # any transform fails
        with pytest.raises(ValueError, match="unsupported"):
            chf.convolve_with_kernel(f, (chf.Gaussian(), chf.Slater1s()))
        with pytest.raises(ValueError, match="at least one kernel"):
            chf.convolve_with_kernel(f, ())

    def test_peak_memory_stays_below_the_padded_spectrum(self, empty_cache):
        # in units of one padded half-spectrum S = 16 (2n)^2 (n+1) bytes;
        # building the padded spectrum whole peaks at 1.5 S for one kernel
        # and 2.0 S for three
        grid = chf.GridSpec(points_per_axis=48, extent=10.0)
        n = grid.points_per_axis
        spectrum_bytes = 16 * (2 * n) ** 2 * (n + 1)
        f = chf.sample(chf.Gaussian(alpha=0.05, amplitude=1.0), grid)
        kernels = (chf.PoissonKernel(t=1.0), chf.PoissonDt2Kernel(t=1.0),
                   chf.Gaussian(alpha=1.0))
        plan = ConvolutionPlan(grid)
        for kernel in kernels:  # warm: measure the transforms, not sampling
            plan.kernel_spectrum(kernel)
        single = _peak_bytes(lambda: plan.convolve_with_kernel(f, kernels[0]))
        group = _peak_bytes(lambda: plan.convolve_with_kernel(f, kernels))
        assert single <= 0.9 * spectrum_bytes
        assert group <= 1.6 * spectrum_bytes
