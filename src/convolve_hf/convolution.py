"""Free-space FFT convolution of grid fields and analytic kernels.

Linear (non-circular) convolution is obtained by zero-padding to double
size per axis (Hockney-style), multiplying DFTs and cropping.  Analytic
kernels are sampled on the padded offset grid, where index j encodes the
offset j*h for j <= n and (j - 2n)*h beyond, so all offsets up to +-2L
contribute; this is what makes the Coulomb far field exact for sources
supported in the box.

Kernel sampling flavors
-----------------------
Resolved kernels (Poisson height t >= 2h) are sampled pointwise: the
midpoint sum of a smooth decaying integrand is spectrally accurate.
Under-resolved Poisson kernels (t < 2h) degrade to per-cell averages
(Gauss-Legendre near the origin, a (h^2/24)-Laplacian closed-form
correction elsewhere), which keeps the discrete kernel mass bounded by
the true mass and preserves the approximate-identity inequalities at the
price of first-order smoothing.  The Coulomb kernel is pointwise with
the analytic cell mean at the singular node; away from the singularity
1/r is harmonic, so pointwise values equal cell averages to O(h^4).
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict

import numpy as np
from scipy import fft as sfft

from .errors import GridMismatchError, ResolutionError, ResolutionWarning
from .fields import GridSpec, ScalarField
from .kernels import (
    AnalyticFunction,
    CoulombKernel,
    Gaussian,
    GaussianLaplacian,
    PoissonDt2Kernel,
    PoissonKernel,
)

__all__ = [
    "ConvolutionPlan",
    "get_plan",
    "convolve",
    "coulomb_convolve",
    "convolve_with_kernel",
    "resolution_floor",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

_CONVOLVABLE = (CoulombKernel, PoissonKernel, PoissonDt2Kernel, Gaussian, GaussianLaplacian)


def resolution_floor(grid: GridSpec) -> float:
    """Smallest Poisson height the grid resolves: 2h."""
    return 2.0 * grid.spacing


def _offset_coordinates(n: int, h: float) -> np.ndarray:
    idx = np.arange(2 * n)
    return np.where(idx <= n, idx, idx - 2 * n) * h


def _offset_r2(n: int, h: float) -> np.ndarray:
    off = _offset_coordinates(n, h)
    return (
        off[:, None, None] ** 2 + off[None, :, None] ** 2 + off[None, None, :] ** 2
    )


_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _poisson_central_cell_mean(t: float, h: float) -> float:
    """Mean of P_t over the cell centered on its peak, exact in the radial
    direction (six-pyramid decomposition; each face leaves a smooth 2-D
    integral).  Valid for every t, including t << h where the kernel is a
    near-delta inside the cell."""
    a = 0.5 * h
    g = a * _GL16_NODES
    w = a * _GL16_WEIGHTS
    u = g[:, None]
    v = g[None, :]
    r = np.sqrt(a * a + u * u + v * v)
    # int_0^R P(r) r^2 dr = (1/(2 pi^2)) [arctan(R/t) - t R/(t^2+R^2)]
    radial = (np.arctan(r / t) - t * r / (t * t + r * r)) / (2.0 * np.pi**2)
    face = ((radial * a / r**3) * w[:, None] * w[None, :]).sum()
    return 6.0 * face / h**3


def _cell_average_near_origin(kernel, vals, n, h, radius):
    """Overwrite ``vals`` with 8^3 Gauss-Legendre cell averages where the
    offset lies within ``radius`` (max-norm) of the kernel center."""
    off = _offset_coordinates(n, h)
    inside = np.abs(off) <= radius
    ii = np.where(inside)[0]
    centers = np.stack(
        [c.ravel() for c in np.meshgrid(off[ii], off[ii], off[ii], indexing="ij")],
        axis=1,
    )
    g = 0.5 * h * _GL_NODES
    w = 0.5 * _GL_WEIGHTS
    gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
    sub = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    ww = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    out = np.empty(len(centers))
    block = 16384
    for i in range(0, len(centers), block):
        d = centers[i : i + block, None, :] + sub[None, :, :]
        out[i : i + block] = kernel.evaluate_r2((d**2).sum(axis=2)) @ ww
    region = np.ix_(ii, ii, ii)
    vals[region] = out.reshape(len(ii), len(ii), len(ii))


def _sample_kernel_offsets(kernel: AnalyticFunction, grid: GridSpec) -> np.ndarray:
    """Real-valued kernel samples on the padded offset grid."""
    n, h = grid.points_per_axis, grid.spacing
    r2 = _offset_r2(n, h)
    if isinstance(kernel, CoulombKernel):
        with np.errstate(divide="ignore"):
            vals = kernel.evaluate_r2(r2)
        vals[0, 0, 0] = kernel.singular_cell_mean(h)
        return vals
    if isinstance(kernel, (PoissonKernel, PoissonDt2Kernel)):
        if kernel.t >= resolution_floor(grid) * (1.0 - 1e-12):
            return kernel.evaluate_r2(r2)
        warnings.warn(
            f"Poisson height t={kernel.t:g} is below the resolution floor "
            f"2h={resolution_floor(grid):g}; using cell-averaged sampling",
            ResolutionWarning,
            stacklevel=4,
        )
        vals = kernel.evaluate_r2(r2) + (h * h / 24.0) * kernel.laplacian_r2(r2)
        _cell_average_near_origin(kernel, vals, n, h, 4.0 * max(kernel.t, h))
        if isinstance(kernel, PoissonKernel):
            vals[0, 0, 0] = _poisson_central_cell_mean(kernel.t, h)
        return vals
    # smooth non-singular kinds: plain pointwise sampling
    return np.asarray(kernel.evaluate_r2(r2), dtype=np.float64)


class ConvolutionPlan:
    """Per-grid convolution workspace with a kernel-spectrum cache.

    The cache maps an analytic kernel to the rFFT of its padded offset
    samples; hits are bit-identical to cold computations because sampling
    is deterministic.  Access is serialized by a lock, so concurrent
    convolutions of distinct fields are safe.
    """

    def __init__(self, grid: GridSpec, max_cache_bytes: int = 768_000_000):
        self.grid = grid
        n = grid.points_per_axis
        self.padded_shape = (2 * n, 2 * n, 2 * n)
        self._cache: OrderedDict[AnalyticFunction, np.ndarray] = OrderedDict()
        self._cache_bytes = 0
        self._max_cache_bytes = max_cache_bytes
        self._lock = threading.Lock()

    def kernel_spectrum(self, kernel: AnalyticFunction) -> np.ndarray:
        with self._lock:
            if kernel in self._cache:
                self._cache.move_to_end(kernel)
                return self._cache[kernel]
        spec = sfft.rfftn(_sample_kernel_offsets(kernel, self.grid))
        with self._lock:
            if kernel in self._cache:  # another thread computed it meanwhile
                self._cache.move_to_end(kernel)
                return self._cache[kernel]
            self._cache[kernel] = spec
            self._cache_bytes += spec.nbytes
            while self._cache_bytes > self._max_cache_bytes and len(self._cache) > 1:
                _, old = self._cache.popitem(last=False)
                self._cache_bytes -= old.nbytes
        return spec

    # -- low-level real transforms -------------------------------------

    def _pad(self, values: np.ndarray) -> np.ndarray:
        n = self.grid.points_per_axis
        pad = np.zeros(self.padded_shape, dtype=values.dtype)
        pad[:n, :n, :n] = values
        return pad

    def _convolve_real_with_spectrum(self, real_values, spectrum) -> np.ndarray:
        n, h = self.grid.points_per_axis, self.grid.spacing
        out = sfft.irfftn(sfft.rfftn(self._pad(real_values)) * spectrum, s=self.padded_shape)
        return out[:n, :n, :n] * h**3

    def convolve_with_kernel(self, f: ScalarField, kernel: AnalyticFunction) -> ScalarField:
        if f.grid != self.grid:
            raise GridMismatchError("field grid does not match the plan grid")
        if not isinstance(kernel, _CONVOLVABLE):
            raise ValueError(f"unsupported convolution kernel kind {type(kernel).__name__}")
        if kernel.center != (0.0, 0.0, 0.0):
            raise ValueError("convolution kernels must be centered at the origin")
        spec = self.kernel_spectrum(kernel)
        out = self._convolve_real_with_spectrum(f.values.real, spec)
        if not f.is_real:
            out = out + 1j * self._convolve_real_with_spectrum(f.values.imag, spec)
        return f.with_values(out)

    def convolve_fields(self, f: ScalarField, g: ScalarField) -> ScalarField:
        if f.grid != self.grid or g.grid != self.grid:
            raise GridMismatchError("field grids do not match the plan grid")
        n, h = self.grid.points_per_axis, self.grid.spacing
        lo, hi = n // 2, n // 2 + n
        pf, pg = self._pad(f.values), self._pad(g.values)
        if f.is_real and g.is_real:
            full = sfft.irfftn(sfft.rfftn(pf) * sfft.rfftn(pg), s=self.padded_shape)
        else:
            full = sfft.ifftn(sfft.fftn(pf) * sfft.fftn(pg))
        return f.with_values(full[lo:hi, lo:hi, lo:hi] * h**3)


_registry_lock = threading.Lock()
_plan_registry: OrderedDict[GridSpec, ConvolutionPlan] = OrderedDict()
_MAX_PLANS = 4


def get_plan(grid: GridSpec) -> ConvolutionPlan:
    """Shared plan for ``grid``; at most a few grids are kept alive."""
    with _registry_lock:
        plan = _plan_registry.get(grid)
        if plan is None:
            plan = ConvolutionPlan(grid)
            _plan_registry[grid] = plan
            while len(_plan_registry) > _MAX_PLANS:
                _plan_registry.popitem(last=False)
        else:
            _plan_registry.move_to_end(grid)
        return plan


def convolve(f: ScalarField, g: ScalarField, plan: ConvolutionPlan | None = None) -> ScalarField:
    """Linear convolution of two fields sampled on the same grid."""
    plan = plan or get_plan(f.grid)
    return plan.convolve_fields(f, g)


def convolve_with_kernel(
    f: ScalarField,
    kernel: AnalyticFunction,
    plan: ConvolutionPlan | None = None,
    strict: bool = False,
) -> ScalarField:
    """Convolve a field with an origin-centered analytic kernel.

    With ``strict=True`` an under-resolved Poisson kernel raises
    :class:`ResolutionError` instead of warning.
    """
    plan = plan or get_plan(f.grid)
    if strict and isinstance(kernel, (PoissonKernel, PoissonDt2Kernel)):
        floor = resolution_floor(f.grid)
        if kernel.t < floor * (1.0 - 1e-12):
            raise ResolutionError(
                f"Poisson height t={kernel.t:g} below resolution floor 2h={floor:g}"
            )
    return plan.convolve_with_kernel(f, kernel)


def coulomb_convolve(f: ScalarField, plan: ConvolutionPlan | None = None) -> ScalarField:
    """f * (1/|x|) by padded FFT against the mollified Coulomb kernel."""
    return convolve_with_kernel(f, CoulombKernel(), plan=plan)
