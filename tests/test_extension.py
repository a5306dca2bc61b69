import warnings

import numpy as np
import pytest

import convolve_hf as chf
from convolve_hf.errors import ResolutionWarning


def wide_gaussian(grid, alpha=0.05):
    return chf.sample(chf.Gaussian(alpha=alpha, amplitude=1.0), grid)


class TestExtend:
    def test_semigroup_slice(self):
        g = chf.GridSpec(points_per_axis=64, extent=8.0)
        base = chf.sample(chf.PoissonKernel(t=0.5), g)
        ext = chf.extend(base, (0.5,))
        target = chf.sample(chf.PoissonKernel(t=1.0), g)
        rel = chf.norm(ext.slice_at(0.5) - target, np.inf) / chf.norm(target, np.inf)
        assert rel <= 0.02

    def test_zero_base(self, grid48):
        ext = chf.extend(chf.ScalarField.zeros(grid48), (0.5, 1.0))
        assert all(chf.norm(s, np.inf) == 0.0 for s in ext.slices)

    def test_mass_preservation(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        base = chf.sample(chf.Gaussian(alpha=1.0), g)  # unit mass
        with pytest.warns(ResolutionWarning):
            ext = chf.extend(base, (0.05,))
        assert chf.integrate(ext.slice_at(0.05)).real == pytest.approx(1.0, abs=0.01)

    def test_heights_sorted_and_validated(self, grid48):
        base = wide_gaussian(grid48)
        ext = chf.extend(base, (1.0, 0.5, 0.8))
        assert ext.heights == (0.5, 0.8, 1.0)
        with pytest.raises(ValueError):
            chf.extend(base, ())

    def test_repeated_heights_rejected(self, grid48):
        base = wide_gaussian(grid48)
        with pytest.raises(ValueError, match="strictly increasing"):
            chf.extend(base, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            chf.HarmonicExtension(base=base, heights=(0.5, 0.8, 0.8), slices=(base,) * 3)

    def test_linearity(self, grid48):
        f = wide_gaussian(grid48, 0.1)
        g = chf.sample(chf.Gaussian(alpha=0.3, amplitude=0.5), grid48)
        heights = (0.6, 1.0)
        ea = chf.extend(f, heights)
        eb = chf.extend(g, heights)
        combo = chf.extend(2.5 * f + g, heights)
        for t in heights:
            expected = 2.5 * ea.slice_at(t) + eb.slice_at(t)
            scale = chf.norm(expected, np.inf)
            assert chf.norm(combo.slice_at(t) - expected, np.inf) <= 1e-12 * scale


class TestHarmonicity:
    def test_zero_base_defect_is_exactly_zero(self, grid48):
        ext = chf.extend(chf.ScalarField.zeros(grid48), (0.5, 0.6, 0.7))
        assert chf.harmonicity_residual(ext, 1) == 0.0

    def test_gaussian_defect_small(self):
        g = chf.GridSpec(points_per_axis=64, extent=7.0)
        base = chf.sample(chf.Gaussian(alpha=1.0, amplitude=1.0), g)
        ext = chf.extend(base, (0.45, 0.5, 0.55))
        assert chf.harmonicity_residual(ext, 1) <= 0.05

    def test_non_uniform_spacing_rejected(self, grid48):
        base = wide_gaussian(grid48)
        ext = chf.extend(base, (0.5, 0.7, 1.0))
        with pytest.raises(ValueError, match="uniform"):
            chf.harmonicity_residual(ext, 1)

    def test_boundary_index_rejected(self, grid48):
        base = wide_gaussian(grid48)
        ext = chf.extend(base, (0.5, 0.6, 0.7))
        with pytest.raises(IndexError):
            chf.harmonicity_residual(ext, 0)


class TestBoundaryConvergence:
    def test_ladder_decreases_and_flag(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        base = wide_gaussian(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            ext = chf.extend(base, (0.8, 0.4, 0.2, 0.1))
        ladder = chf.boundary_convergence(ext, "L2")
        assert [t for t, _ in ladder] == [0.8, 0.4, 0.2, 0.1]
        dists = [d for _, d in ladder]
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
        d = ext.l2_distances()  # increasing heights
        assert all(lo < hi for lo, hi in zip(d, d[1:]))

    def test_sup_ladder(self):
        g = chf.GridSpec(points_per_axis=48, extent=10.0)
        base = wide_gaussian(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            ext = chf.extend(base, (0.8, 0.4, 0.2))
        ladder = chf.boundary_convergence(ext, "sup")
        dists = [d for _, d in ladder]
        assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))

    def test_richardson_extrapolation_hits_base(self):
        g = chf.GridSpec(points_per_axis=64, extent=10.0)
        base = wide_gaussian(g)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            ext = chf.extend(base, (0.2, 0.1))
        u1, u2 = ext.slice_at(0.2), ext.slice_at(0.1)
        extrapolated = 2.0 * u2 - u1  # linear in t toward t = 0
        rel = chf.norm(extrapolated - base, 2) / chf.norm(base, 2)
        assert rel <= 0.01

    def test_unknown_norm_kind(self, grid48):
        ext = chf.extend(wide_gaussian(grid48), (0.6,))
        with pytest.raises(ValueError):
            chf.boundary_convergence(ext, "L7")


class TestSupBounds:
    def test_unit_base_at_height_one(self, grid48):
        base = wide_gaussian(grid48)  # sup = 1
        ext = chf.extend(base, (1.0,))
        report = chf.sup_bound_check(ext)
        assert report.precondition_met
        t, sup, bound = report.rows[0]
        assert sup <= 1.0 + 1e-9 <= bound
        assert report.paper_bound_ok and report.unit_bound_ok

    def test_large_height_stays_below_paper_bound(self, grid48):
        base = wide_gaussian(grid48)
        ext = chf.extend(base, (2.0,))
        report = chf.sup_bound_check(ext)
        assert report.paper_bound_ok
        assert report.worst_margin >= 0

    def test_zero_base(self, grid48):
        ext = chf.extend(chf.ScalarField.zeros(grid48), (0.5,))
        report = chf.sup_bound_check(ext)
        assert report.paper_bound_ok and report.unit_bound_ok

    def test_precondition_violation_reported(self, grid48):
        base = 1.5 * wide_gaussian(grid48)
        ext = chf.extend(base, (0.5,))
        report = chf.sup_bound_check(ext)
        assert not report.precondition_met
        assert any("precondition" in v for v in report.violations())

    def test_maximum_principle(self, grid48):
        base = wide_gaussian(grid48, 0.2)  # real, nonnegative
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            ext = chf.extend(base, (0.3, 0.6, 1.2))
        lo, hi = base.values.real.min(), base.values.real.max()
        for s in ext.slices:
            assert s.values.real.min() >= lo - 1e-6
            assert s.values.real.max() <= hi + 1e-6

    def test_slices_decay_toward_the_box_corners(self, grid48):
        # vanishing-at-infinity spot check: the extension of a decaying
        # base is negligible in the outer corner region
        base = wide_gaussian(grid48, 0.3)
        ext = chf.extend(base, (1.0,))
        vals = np.abs(ext.slice_at(1.0).values)
        corner = vals[:3, :3, :3].max()
        assert corner <= 1e-3 * vals.max()

    def test_slice_sup_never_exceeds_base_sup(self, grid48):
        base = wide_gaussian(grid48, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResolutionWarning)
            ext = chf.extend(base, (0.2, 0.5, 1.0, 2.0))
        for s in ext.slices:
            assert chf.norm(s, np.inf) <= chf.norm(base, np.inf) + 1e-9
