import json
import os
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy.special import erf

import convolve_hf as chf
import convolve_hf.fields as fields_mod
from convolve_hf import convolution, extension, verify
from convolve_hf.convolution import ConvolutionPlan, _sample_kernel_octant
from convolve_hf.errors import GridMismatchError, ResolutionError, ResolutionWarning

from support import (
    direct_convolution,
    engine_digests,
    integral,
    peak_traced_bytes,
    pointwise_octant,
    radial_coulomb_potential,
    record_sampled_kernels,
    under_resolved_octant_digests,
)

TESTS = os.path.dirname(os.path.abspath(__file__))


def _random(grid, rng):
    return chf.ScalarField(grid=grid, values=rng.standard_normal(grid.shape))


# every convolvable kind, as a function of the grid spacing h; Poisson
# heights below 2h take the cell-averaged sampling path (d2t P_t below 2h is
# rejected)
KERNELS = {
    "coulomb": lambda h: chf.CoulombKernel(),
    "poisson": lambda h: chf.PoissonKernel(t=3.0 * h),
    "poisson_under_resolved": lambda h: chf.PoissonKernel(t=0.5 * h),
    "poisson_dt2": lambda h: chf.PoissonDt2Kernel(t=3.0 * h),
    "gaussian": lambda h: chf.Gaussian(alpha=1.0, amplitude=1.0),
    "gaussian_laplacian": lambda h: chf.GaussianLaplacian(alpha=1.0),
    # heights h and 1.5h cell-averaged, 2h pointwise
    "poisson_second_difference": lambda h: chf.PoissonSecondDifference(t=1.5 * h, delta=0.5 * h),
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


class TestFieldConvolution:
    def test_impulse_identity(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), grid32)
        n = grid32.points_per_axis
        delta = np.zeros(grid32.shape)
        delta[n // 2, n // 2, n // 2] = 1.0 / grid32.spacing**3
        out = ConvolutionPlan(grid32).convolve_fields(f, chf.ScalarField(grid=grid32, values=delta))
        assert np.abs(out.values - f.values).max() <= 1e-10

    def test_impulse_shift(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=2.0, amplitude=1.0), grid32)
        n = grid32.points_per_axis
        delta = np.zeros(grid32.shape)
        delta[n // 2 + 3, n // 2, n // 2] = 1.0 / grid32.spacing**3
        out = ConvolutionPlan(grid32).convolve_fields(f, chf.ScalarField(grid=grid32, values=delta))
        shifted = np.zeros_like(f.values)
        shifted[3:, :, :] = f.values[:-3, :, :]
        assert np.abs(out.values - shifted).max() <= 1e-10

    def test_gaussian_gaussian_closed_form(self):
        # e^{-a r^2} * e^{-b r^2} = (pi/(a+b))^{3/2} e^{-ab r^2/(a+b)}
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        f = chf.ScalarField(grid=g, values=np.exp(-g.radius_squared()))
        out = ConvolutionPlan(g).convolve_fields(f, f)
        exact = (np.pi / 2.0) ** 1.5 * np.exp(-0.5 * g.radius_squared())
        rel = np.abs(out.values - exact).max() / exact.max()
        assert rel <= 1e-4

    def test_commutativity(self, grid32, rng):
        f, g = _random(grid32, rng), _random(grid32, rng)
        plan = ConvolutionPlan(grid32)
        d = plan.convolve_fields(f, g) - plan.convolve_fields(g, f)
        assert chf.norm(d, np.inf) <= 1e-12

    def test_linearity(self, grid32, rng):
        f1, f2, g = (_random(grid32, rng) for _ in range(3))
        a = -2.3
        plan = ConvolutionPlan(grid32)
        lhs = plan.convolve_fields(f1 * a + f2, g)
        rhs = a * plan.convolve_fields(f1, g) + plan.convolve_fields(f2, g)
        scale = chf.norm(lhs, np.inf)
        assert chf.norm(lhs - rhs, np.inf) <= 1e-12 * scale

    def test_young_bound(self, grid32, rng):
        plan = ConvolutionPlan(grid32)
        for _ in range(5):
            f, g = _random(grid32, rng), _random(grid32, rng)
            assert chf.norm(plan.convolve_fields(f, g), np.inf) <= (
                chf.norm(f, np.inf) * chf.norm(g, 1) + 1e-9
            )

    def test_matches_direct_summation(self, rng):
        # brute-force O(N^6) oracle on an 8^3 grid, inner-half supported
        g = chf.GridSpec(points_per_axis=8, extent=1.0)
        mask = np.zeros(g.shape)
        mask[2:6, 2:6, 2:6] = 1.0
        f = chf.ScalarField(grid=g, values=rng.standard_normal(g.shape) * mask)
        k = chf.ScalarField(grid=g, values=rng.standard_normal(g.shape) * mask)
        fast = ConvolutionPlan(g).convolve_fields(f, k).values
        brute = direct_convolution(f, k)
        assert np.abs(fast - brute).max() <= 1e-10
        # the verify command's own direct sum adds in the same order
        assert np.array_equal(verify._direct_convolution(f, k), brute.real)

    def test_grid_mismatch(self, grid32, grid64):
        with pytest.raises(GridMismatchError):
            ConvolutionPlan(grid32).convolve_fields(chf.ScalarField.zeros(grid32),
                                                    chf.ScalarField.zeros(grid64))


class TestCoulombConvolve:
    def test_erf_oracle_and_radial_quadrature(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        alpha = 1.0
        f = chf.sample(chf.Gaussian(alpha=alpha), g)
        out = ConvolutionPlan(g).convolve_with_kernel(f, chf.CoulombKernel()).values
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
        out = ConvolutionPlan(grid32).convolve_with_kernel(chf.ScalarField.zeros(grid32),
                                                           chf.CoulombKernel())
        assert chf.norm(out, np.inf) == 0.0

    def test_far_field_monopole(self):
        g = chf.GridSpec(points_per_axis=48, extent=10.0)
        f = chf.sample(chf.Gaussian(alpha=2.0), g)  # unit mass
        out = ConvolutionPlan(g).convolve_with_kernel(f, chf.CoulombKernel()).values
        i = g.nearest_node((5.0, 0.0, 0.0))
        assert out[i] == pytest.approx(1.0 / 5.0, rel=0.02)

    def test_nonnegative_output_for_nonnegative_input(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        out = ConvolutionPlan(grid32).convolve_with_kernel(f, chf.CoulombKernel())
        assert out.values.min() >= -1e-12


class TestKernelConvolution:
    def test_gaussian_kernel_matches_field_path(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=2.0, amplitude=1.0), grid32)
        kern = chf.Gaussian(alpha=1.5, amplitude=0.8)
        plan = ConvolutionPlan(grid32)
        via_kernel = plan.convolve_with_kernel(f, kern)
        via_fields = plan.convolve_fields(f, chf.sample(kern, grid32))
        scale = chf.norm(via_kernel, np.inf)
        assert chf.norm(via_kernel - via_fields, np.inf) <= 1e-12 * scale

    def test_semigroup(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        f = chf.sample(chf.PoissonKernel(t=0.5), g)
        out = ConvolutionPlan(g).convolve_with_kernel(f, chf.PoissonKernel(t=0.5))
        target = chf.sample(chf.PoissonKernel(t=1.0), g)
        rel = chf.norm(out - target, np.inf) / chf.norm(target, np.inf)
        assert rel <= 0.02

    def test_mass_preservation_small_height(self):
        # the kernel tail ~4t/(pi R) sets the observable loss, so a small
        # height keeps the box-truncation inside the 1% budget
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        f = chf.sample(chf.Gaussian(alpha=1.0), g)  # unit mass, compact support
        with pytest.warns(ResolutionWarning):
            out = ConvolutionPlan(g).convolve_with_kernel(f, chf.PoissonKernel(t=0.05))
        assert integral(out) == pytest.approx(1.0, abs=0.01)

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

    def test_under_resolved_warns_on_every_convolution(self, grid32):
        plan = ConvolutionPlan(grid32)
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        kernel = chf.PoissonKernel(t=0.5 * grid32.spacing)
        for _ in range(2):  # the new plan computes the spectrum, then reuses it
            with pytest.warns(ResolutionWarning):
                plan.convolve_with_kernel(f, kernel)

    def test_resolution_warning_names_the_caller(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        kernel = chf.PoissonKernel(t=0.5 * grid32.spacing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ConvolutionPlan(grid32).convolve_with_kernel(f, kernel)
        assert [w.category for w in caught] == [ResolutionWarning]
        assert caught[0].filename == __file__

    def test_zero_field_skips_the_engine(self, grid32, monkeypatch):
        # no sampling, no transform and no warning, even for an under-resolved
        # kernel
        monkeypatch.setattr(ConvolutionPlan, "kernel_spectrum", None)
        monkeypatch.setattr(ConvolutionPlan, "_forward", None)
        zero = chf.ScalarField.zeros(grid32)
        under = chf.PoissonKernel(t=0.5 * grid32.spacing)
        plan = ConvolutionPlan(grid32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = plan.convolve_with_kernel(zero, under)
            group = plan.convolve_with_kernel(zero, (under, chf.Gaussian(alpha=1.0)))
        assert not single.values.any() and single.grid == grid32
        assert len(group) == 2 and not any(g.values.any() for g in group)

    def test_under_resolved_dt2_kernel_is_rejected(self, grid32):
        # every caller rejects t < 2h before it builds d2t P_t, so the engine
        # has no under-resolved flavour of it; zero fields are rejected too
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        under = chf.PoissonDt2Kernel(t=grid32.spacing)
        plan = ConvolutionPlan(grid32)
        for field in (f, chf.ScalarField.zeros(grid32)):
            with pytest.raises(ResolutionError, match="below the resolution floor"):
                plan.convolve_with_kernel(field, under)
            with pytest.raises(ResolutionError):
                plan.convolve_with_kernel(field, chf.Gaussian(alpha=1.0),
                                          plus=((f, under, 1.0),))
        at_floor = chf.PoissonDt2Kernel(t=chf.resolution_floor(grid32))
        assert plan.convolve_with_kernel(f, at_floor).values.any()

    def test_under_resolved_is_t_below_two_h(self, grid32):
        floor = chf.resolution_floor(grid32)
        assert chf.under_resolved(0.99 * floor, grid32)
        assert not chf.under_resolved(floor, grid32)
        assert not chf.under_resolved(floor * (1.0 - 1e-13), grid32)  # roundoff of 2h

    def test_unsupported_kernel_kind(self, grid32):
        f = chf.ScalarField.zeros(grid32)
        with pytest.raises(ValueError, match="unsupported"):
            ConvolutionPlan(grid32).convolve_with_kernel(f, chf.Slater1s())

    def test_off_center_kernel_rejected(self, grid32):
        f = chf.ScalarField.zeros(grid32)
        with pytest.raises(ValueError, match="centered"):
            ConvolutionPlan(grid32).convolve_with_kernel(
                f, chf.Gaussian(alpha=1.0, center=(1.0, 0, 0)))


class TestSpectrumCache:
    def test_warm_and_cold_runs_identical(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        plan = ConvolutionPlan(grid32)
        cold = plan.convolve_with_kernel(f, chf.CoulombKernel())
        assert list(plan._spectra) == [chf.CoulombKernel()]
        warm = plan.convolve_with_kernel(f, chf.CoulombKernel())
        assert np.array_equal(cold.values, warm.values)
        fresh = ConvolutionPlan(grid32).convolve_with_kernel(f, chf.CoulombKernel())
        assert np.array_equal(cold.values, fresh.values)

    def test_second_request_on_a_plan_returns_the_same_array(self, grid32, monkeypatch):
        sampled = record_sampled_kernels(monkeypatch)
        plan = ConvolutionPlan(grid32)
        s1 = plan.kernel_spectrum(chf.CoulombKernel())
        s2 = plan.kernel_spectrum(chf.CoulombKernel())
        assert s1 is s2 and not s1.flags.writeable
        assert sampled == [chf.CoulombKernel()]

    def test_concurrent_misses_on_a_plan_keep_one_spectrum(self, grid32, monkeypatch):
        # both threads miss the same kernel before either stores it
        barrier = threading.Barrier(2, timeout=30)
        sample_octant = convolution._sample_kernel_octant

        def sample_in_step(kernel, grid):
            barrier.wait()
            return sample_octant(kernel, grid)

        monkeypatch.setattr(convolution, "_sample_kernel_octant", sample_in_step)
        plan = ConvolutionPlan(grid32)
        returned = []
        threads = [
            threading.Thread(
                target=lambda: returned.append(plan.kernel_spectrum(chf.CoulombKernel())))
            for _ in range(2)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
        # the first array stored is the one both threads return and the plan keeps
        assert len(returned) == 2 and returned[0] is returned[1]
        assert list(plan._spectra.values()) == [returned[0]]

    def test_threads_sharing_plans_hand_out_the_kept_spectra(self):
        # eight threads miss together on each round's new plans; tiny grids
        # keep each miss short, so the threads interleave often
        grids = (chf.GridSpec(points_per_axis=8, extent=1.0),
                 chf.GridSpec(points_per_axis=10, extent=1.0))
        kernels = [chf.PoissonKernel(t=1.0 + 0.25 * i) for i in range(5)]
        plans = [[ConvolutionPlan(g) for g in grids] for _ in range(40)]
        barrier = threading.Barrier(8, timeout=60)
        returned, failures = [], []

        def work():
            try:
                for round_plans in plans:
                    barrier.wait()
                    for plan in round_plans:
                        returned.extend((plan, k, plan.kernel_spectrum(k)) for k in kernels)
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        assert len(returned) == 8 * len(plans) * len(grids) * len(kernels)
        # every caller got the one array its plan keeps for the kernel
        assert all(spec is plan._spectra[k] for plan, k, spec in returned)
        assert all(len(plan._spectra) == len(kernels) for pair in plans for plan in pair)

    def test_new_plan_recomputes_the_same_bytes(self, grid32, monkeypatch):
        sampled = record_sampled_kernels(monkeypatch)
        kernel = chf.PoissonKernel(t=0.5 * grid32.spacing)  # cell-averaged
        first = ConvolutionPlan(grid32).kernel_spectrum(kernel)
        second = ConvolutionPlan(grid32).kernel_spectrum(kernel)
        assert sampled == [kernel, kernel]
        assert second is not first and second.tobytes() == first.tobytes()

    def test_dropped_plan_frees_its_spectra(self, grid32, rng):
        plan = ConvolutionPlan(grid32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            plan.convolve_with_kernel(_random(grid32, rng), tuple(
                KERNELS[kind](grid32.spacing) for kind in sorted(KERNELS)))
        refs = [weakref.ref(spec) for spec in plan._spectra.values()]
        assert len(refs) == len(KERNELS)
        del plan
        assert [ref() for ref in refs] == [None] * len(KERNELS)

    def test_cached_spectrum_is_the_real_octant(self, grid32):
        spec = ConvolutionPlan(grid32).kernel_spectrum(chf.CoulombKernel())
        assert spec.dtype == np.float64
        assert spec.shape == (33, 33, 33) and spec.nbytes == 33**3 * 8

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            # the new plan computes the spectrum, then reuses it twice
            runs = [plan.convolve_with_kernel(f, kernel).values.tobytes() for _ in range(3)]
            assert list(plan._spectra) == [kernel]
        assert runs[1:] == [runs[0], runs[0]]
        pairs = [plan.convolve_fields(f, partner).values.tobytes() for _ in range(2)]
        assert pairs[0] == pairs[1]


class TestSamplingByDistinctRadius:
    # each kind is evaluated once per m = i^2 + j^2 + k^2, at r^2 = m h^2
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_dyadic_spacing_keeps_the_pointwise_bits(self, kind):
        grid = chf.GridSpec(points_per_axis=64, extent=10.0)  # h = 5/16: every r^2 is exact
        kernel = KERNELS[kind](grid.spacing)
        octant = _sample_kernel_octant(kernel, grid)
        assert octant.tobytes() == pointwise_octant(kernel, grid).tobytes()

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_other_spacings_move_by_roundoff(self, kind):
        # h = 5/24: m h^2 and (ih)^2 + (jh)^2 + (kh)^2 round differently; a
        # Gaussian tail exp(-a r^2) moves by a r^2 times that rounding, so
        # the bound is in units of the largest sample
        grid = chf.GridSpec(points_per_axis=96, extent=10.0)
        kernel = KERNELS[kind](grid.spacing)
        octant = _sample_kernel_octant(kernel, grid)
        ref = pointwise_octant(kernel, grid)
        assert np.abs(octant - ref).max() <= 4.0 * np.spacing(np.abs(ref).max())


class TestPrunedEngine:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_octant_spectrum_is_full_grid_dft(self, grid32, kind):
        kernel = KERNELS[kind](grid32.spacing)
        octant = _sample_kernel_octant(kernel, grid32)
        n = grid32.points_per_axis
        full = np.fft.rfftn(_mirrored(octant))[: n + 1, : n + 1, :]
        spec = ConvolutionPlan(grid32).kernel_spectrum(kernel)
        assert _rel_err(spec, full.real.transpose(2, 1, 0)) <= 1e-14  # [kz, ky, kx]

    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_spectrum_is_scipy_dctn_bit_for_bit(self, n, kind):
        grid = chf.GridSpec(points_per_axis=n, extent=8.0)
        kernel = KERNELS[kind](grid.spacing)
        ref = sfft.dctn(_sample_kernel_octant(kernel, grid), type=1).transpose(2, 1, 0)
        spec = ConvolutionPlan(grid).kernel_spectrum(kernel)  # a new plan computes it
        assert spec.tobytes() == np.ascontiguousarray(ref).tobytes()

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
            octant = plan.kernel_spectrum(kernel).transpose(2, 1, 0)  # [kx, ky, kz]
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
        plan = ConvolutionPlan(grid32)
        single = plan.convolve_with_kernel(f, poisson).values.tobytes()
        outs = plan.convolve_with_kernel(f, (poisson, gaussian, poisson))
        assert outs[0].values.tobytes() == outs[2].values.tobytes() == single

    def test_group_leaves_spectra_and_field_unchanged(self, grid32, rng):
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
            ConvolutionPlan(grid32).convolve_with_kernel(f, (under, chf.Gaussian(alpha=1.0)))
        assert [w.category for w in caught] == [ResolutionWarning]
        assert caught[0].filename == __file__

    def test_group_is_validated_before_any_transform(self, grid32, monkeypatch):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        monkeypatch.setattr(ConvolutionPlan, "_forward", None)  # any transform fails
        plan = ConvolutionPlan(grid32)
        with pytest.raises(ValueError, match="unsupported"):
            plan.convolve_with_kernel(f, (chf.Gaussian(), chf.Slater1s()))
        with pytest.raises(ValueError, match="at least one kernel"):
            plan.convolve_with_kernel(f, ())

    def test_peak_memory_stays_below_the_padded_spectrum(self):
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
        single = peak_traced_bytes(lambda: plan.convolve_with_kernel(f, kernels[0]))
        group = peak_traced_bytes(lambda: plan.convolve_with_kernel(f, kernels))
        assert single <= 0.9 * spectrum_bytes
        assert group <= 1.6 * spectrum_bytes


class TestCombinedConvolutions:
    @pytest.mark.parametrize("coefficients", [(-1.0, 1.0), (2.0, -1.0), (1.0, 2.0)])
    def test_combined_outputs_are_the_sums_of_single_convolutions(self, grid32, rng,
                                                                  coefficients):
        # every kind meets every other kind in some output, on either field
        kinds = sorted(KERNELS)
        f, g = _random(grid32, rng), _random(grid32, rng)
        h = grid32.spacing
        plan = ConvolutionPlan(grid32)
        for shift in (1, 3):
            f_kernels = tuple(KERNELS[kind](h) for kind in kinds)
            g_kernels = tuple(KERNELS[kinds[(i + shift) % len(kinds)]](h)
                              for i in range(len(kinds)))
            weights = tuple(coefficients[i % 2] for i in range(len(kinds)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ResolutionWarning)
                outs = plan.convolve_with_kernel(f, f_kernels, plus=((g, g_kernels, weights),))
                singles_f = plan.convolve_with_kernel(f, f_kernels)
                singles_g = plan.convolve_with_kernel(g, g_kernels)
            for out, a, b, weight in zip(outs, singles_f, singles_g, weights):
                ref = a.values + weight * b.values
                assert out.values.dtype == np.float64
                assert _rel_err(out.values, ref) <= 1e-13

    def test_three_fields_into_one_output(self, grid32, rng):
        f, g, k = (_random(grid32, rng) for _ in range(3))
        poisson, gaussian, coulomb = (KERNELS[kind](grid32.spacing)
                                      for kind in ("poisson", "gaussian", "coulomb"))
        plan = ConvolutionPlan(grid32)
        out = plan.convolve_with_kernel(f, poisson, plus=((g, gaussian, -1.0),
                                                          (k, coulomb, 2.0)))
        ref = (plan.convolve_with_kernel(f, poisson).values
               - plan.convolve_with_kernel(g, gaussian).values
               + 2.0 * plan.convolve_with_kernel(k, coulomb).values)
        assert _rel_err(out.values, ref) <= 1e-13

    def test_more_outputs_than_fields_and_fields_than_outputs(self, grid32, rng):
        f, g = _random(grid32, rng), _random(grid32, rng)
        kernels = tuple(KERNELS[kind](grid32.spacing) for kind in ("poisson", "gaussian"))
        plan = ConvolutionPlan(grid32)
        outs = plan.convolve_with_kernel(f, kernels, plus=((g, kernels[::-1], (1.0, -1.0)),))
        for out, a, b, weight in zip(outs, plan.convolve_with_kernel(f, kernels),
                                     plan.convolve_with_kernel(g, kernels[::-1]), (1.0, -1.0)):
            assert _rel_err(out.values, a.values + weight * b.values) <= 1e-13

    def test_all_zero_field_is_dropped_without_a_transform(self, grid32, rng, monkeypatch):
        f = _random(grid32, rng)
        zero = chf.ScalarField.zeros(grid32)
        kernels = tuple(KERNELS[kind](grid32.spacing) for kind in ("poisson", "gaussian"))
        singles = ConvolutionPlan(grid32).convolve_with_kernel(f, kernels)
        forwards = []
        forward = ConvolutionPlan._forward
        monkeypatch.setattr(ConvolutionPlan, "_forward",
                            lambda self, values: forwards.append(1) or forward(self, values))
        plan = ConvolutionPlan(grid32)
        # a zero plus field: the single-field bytes, from one forward transform
        outs = plan.convolve_with_kernel(f, kernels, plus=((zero, kernels, (-1.0, 2.0)),))
        assert len(forwards) == 1
        assert [o.values.tobytes() for o in outs] == [o.values.tobytes() for o in singles]
        # a zero first field: the plus field alone, times its coefficients
        outs = plan.convolve_with_kernel(zero, kernels, plus=((f, kernels, (-1.0, 2.0)),))
        assert len(forwards) == 2
        for out, single, weight in zip(outs, singles, (-1.0, 2.0)):
            assert np.array_equal(out.values, weight * single.values)
        # every field zero: zeros without a transform
        outs = plan.convolve_with_kernel(zero, kernels, plus=((zero, kernels, (1.0, 1.0)),))
        assert len(forwards) == 2 and not any(o.values.any() for o in outs)
        out = plan.convolve_with_kernel(zero, kernels[0], plus=((zero, kernels[1], 2.0),))
        assert len(forwards) == 2 and out.grid == grid32 and not out.values.any()

    def test_plus_is_validated(self, grid32, grid64, rng):
        f = _random(grid32, rng)
        poisson, gaussian = (KERNELS[kind](grid32.spacing) for kind in ("poisson", "gaussian"))
        plan = ConvolutionPlan(grid32)
        with pytest.raises(ValueError, match="one kernel and one coefficient per output"):
            plan.convolve_with_kernel(f, (poisson, gaussian), plus=((f, (poisson,), (1.0,)),))
        with pytest.raises(ValueError, match="one kernel and one coefficient per output"):
            plan.convolve_with_kernel(f, (poisson, gaussian),
                                      plus=((f, (poisson, gaussian), 1.0),))
        with pytest.raises(ValueError, match="unsupported"):
            plan.convolve_with_kernel(f, poisson, plus=((f, chf.Slater1s(), 1.0),))
        with pytest.raises(GridMismatchError):
            plan.convolve_with_kernel(f, poisson,
                                      plus=((chf.ScalarField.zeros(grid64), gaussian, 1.0),))

    def test_under_resolved_plus_kernel_warns_at_the_caller(self, grid32):
        f = chf.sample(chf.Gaussian(alpha=1.0), grid32)
        under = chf.PoissonKernel(t=0.5 * grid32.spacing)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ConvolutionPlan(grid32).convolve_with_kernel(f, chf.Gaussian(alpha=1.0),
                                                         plus=((f, under, -1.0),))
        assert [w.category for w in caught] == [ResolutionWarning]
        assert caught[0].filename == __file__

    def test_two_fields_two_outputs_peak_memory(self):
        # S = 16 (2n)^2 (n+1) bytes; the two z passes take S/4 each and hold
        # the outputs, and the blocks of both fields together take one
        # block's memory
        grid = chf.GridSpec(points_per_axis=48, extent=10.0)
        n = grid.points_per_axis
        spectrum_bytes = 16 * (2 * n) ** 2 * (n + 1)
        f = chf.sample(chf.Gaussian(alpha=0.05, amplitude=1.0), grid)
        g = chf.sample(chf.Gaussian(alpha=0.1, amplitude=1.0), grid)
        kernels = (chf.PoissonDt2Kernel(t=1.0), chf.GaussianLaplacian(alpha=1.0))
        partners = (chf.PoissonKernel(t=1.0), chf.Gaussian(alpha=1.0))
        plan = ConvolutionPlan(grid)
        for kernel in kernels + partners:  # warm: measure the transforms, not sampling
            plan.kernel_spectrum(kernel)
        combined = peak_traced_bytes(lambda: plan.convolve_with_kernel(
            f, kernels, plus=((g, partners, (-1.0, 1.0)),)))
        assert combined <= 0.9 * spectrum_bytes


# run in a child process pinned to one CPU: the engine's outputs there, and
# whether it made the worker pool (which lives in ``fields``) or any thread
_PINNED_CHILD = """
import json, os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from convolve_hf import fields
from support import engine_digests
digests = engine_digests(int(sys.argv[1]))
print(json.dumps([digests, fields._pool is None, threading.active_count()]))
"""

# the octants of under-resolved Poisson kernels in a child pinned to one
# CPU with one BLAS thread
_PINNED_OCTANTS = """
import json, os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from support import under_resolved_octant_digests
print(json.dumps(under_resolved_octant_digests()))
"""


class TestWorkers:
    def test_outputs_do_not_depend_on_the_workers(self):
        # every line-parallel pass writes its own lines, so reruns on the
        # pool give the same bytes as the inline path of a one-CPU process
        runs = [engine_digests(48) for _ in range(20)]
        assert all(run == runs[0] for run in runs)
        pythonpath = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(convolution.__file__)), TESTS,
                          os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _PINNED_CHILD, "48"],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": pythonpath})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [runs[0], True, 1]

    def test_cell_averages_do_not_depend_on_blas_threads(self):
        # the engine's one BLAS call, the GEMV over the Gauss-Legendre
        # weights of the cell averages, gives the default process's bytes
        pythonpath = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(convolution.__file__)), TESTS,
                          os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _PINNED_OCTANTS],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": pythonpath,
                                   "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == under_resolved_octant_digests()

    def test_two_callers_share_the_pool(self):
        # a grouped and a field convolution on N = 48 and N = 64 at once
        grids = (chf.GridSpec(points_per_axis=48, extent=10.0),
                 chf.GridSpec(points_per_axis=64, extent=10.0))
        rng = np.random.default_rng(7)
        fields = [(_random(g, rng), _random(g, rng)) for g in grids]
        kernels = (chf.CoulombKernel(), chf.Gaussian(alpha=1.0))

        def outputs(f, g):
            plan = ConvolutionPlan(f.grid)
            return [o.values.tobytes() for o in (*plan.convolve_with_kernel(f, kernels),
                                                 plan.convolve_fields(f, g))]

        serial = [outputs(f, g) for f, g in fields]
        barrier = threading.Barrier(2, timeout=30)
        results, failures = [[], []], []

        def work(i):
            try:
                barrier.wait()
                for _ in range(4):
                    results[i].append(outputs(*fields[i]))
            except Exception as exc:  # surfaced by the assertion below
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive()
        assert failures == []
        assert results == [[s] * 4 for s in serial]

    @pytest.mark.skipif(fields_mod._cpus() < 2, reason="on one CPU every pass runs inline")
    def test_worker_error_reaches_the_caller(self, grid48, rng, monkeypatch):
        f = _random(grid48, rng)
        coulomb = chf.CoulombKernel()
        expected = ConvolutionPlan(grid48).convolve_with_kernel(f, coulomb).values.tobytes()
        caller, ifft = threading.get_ident(), np.fft.ifft

        def ifft_failing_off_the_caller(*args, **kwargs):
            if threading.get_ident() != caller:
                raise MemoryError("injected in a worker")
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", ifft_failing_off_the_caller)
        with pytest.raises(MemoryError, match="injected in a worker"):
            ConvolutionPlan(grid48).convolve_with_kernel(f, coulomb)
        monkeypatch.undo()
        out = ConvolutionPlan(grid48).convolve_with_kernel(f, coulomb)
        assert out.values.tobytes() == expected  # the pool still works

    @pytest.mark.skipif(fields_mod._cpus() < 2, reason="on one CPU every pass runs inline")
    def test_callers_errstate_holds_in_every_share(self, grid48):
        # the SCF's inner step ignores overflow around its pooled phases and
        # grid transforms, and reports a diverged norm itself
        n = grid48.points_per_axis
        spec = np.empty((n, n, n // 2 + 1), complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                fields_mod.rfftn(np.full(grid48.shape, 1e308), spec)
        assert not np.isfinite(spec).all()  # the passes overflowed
