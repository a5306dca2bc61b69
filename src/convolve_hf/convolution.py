"""Free-space FFT convolution of grid fields and analytic kernels.

Linear (non-circular) convolution is obtained by zero-padding to double
size per axis (Hockney-style), multiplying DFTs and cropping.  Analytic
kernels live on the padded offset grid, where index j encodes the offset
j*h for j <= n and (j - 2n)*h beyond, so all offsets up to +-2L
contribute; this is what makes the Coulomb far field exact for sources
supported in the box.  ``convolve_with_kernel`` drops every all-zero field
before any transform; with no field left it returns zero fields, sampling
no spectrum and issuing no warning.

Octant spectra
--------------
Every convolvable kernel is radial, so its padded offset samples are even
with period 2n along each axis.  Only the (n+1)^3 octant of nonnegative
offsets j*h, j = 0..n, is sampled.  Its type-I DCT is exactly the DFT of
the full (2n)^3 offset grid at frequencies 0..n per axis, and that DFT is
real; the frequencies beyond n are its mirror images.  A cached spectrum
is therefore a real (n+1)^3 array of 8 (n+1)^3 bytes: 7.3 MB at n = 96,
where the complex rFFT of the padded grid took 57 MB.  Along one axis,
the DCT-I of x_0..x_n is the real part of the rFFT of its even extension
x_0..x_n, x_{n-1}..x_1 of length 2n; taken along x, y and z in turn, as
``scipy.fft.dctn(type=1)`` does, it gives that function's bits.

Plane-blocked transforms
------------------------
A field fills one octant of the padded box, and the padded spectrum is
never held whole.  Fields are real, so the z pass is one real transform
of the n^2 z lines, keeping the n+1 nonnegative kz frequencies in an
(n, n, n+1) array.  The x and y passes run on blocks of ``_PLANES`` kz
planes: y on the n nonzero x rows of a block zero-padded to (k, 2n, 2n),
then x on all rows.  A kernel's product with the block goes through the
inverse x and y passes, each cropped to n rows as soon as it has run,
and the (k, n, n) result is stored in the same kz planes of an
(n, n, n+1) array; one real inverse z pass of that array, cropped and
scaled by h^3, is the output.  Kernel convolutions keep nodes [:n], the
nodes of the field itself; field-field convolutions multiply the two
fields' blocks and keep the centre [n/2 : 3n/2], because the origin of
both fields sits at node n/2.  Spectra are cached kz-first, so a block's
kernel planes are one contiguous slice.

Every pass is a one-axis ``numpy.fft`` transform of the last, contiguous
axis, because numpy transforms a strided axis one line at a time.  The z
pass runs on the field as stored.  A block's planes are copied into a
zero-padded [kz, x, y] array for the y pass and its result into a
zero-padded [kz, ky, x] array for the x pass, each transformed in place,
so a block is indexed [kz, ky, kx] and meets its kernel planes through a
transposed copy.  The inverse x pass runs on the block as it is, the
inverse y pass on a transposed copy.  The lines and the order of the
axes (z, y, x forward; x, y, z inverse) are those of ``scipy.fft`` on the
whole padded spectrum, and so are the output bits.

Grouped kernels
---------------
``convolve_with_kernel`` also takes a tuple of kernels for one field (the
heights of an extension ladder, or a Poisson and a window kernel of the
transformed residuals) and returns one field per kernel.  The z pass and
each block's forward x and y passes, about half the cost of a
convolution, run once; every kernel then takes the same multiply and
inverse passes on each block, so every output is byte-identical to a
one-kernel call.  The first kernel's inverse planes overwrite the z pass
block by block (a block is built before its planes are written); each
further kernel has an (n, n, n+1) array of its own.

Combined convolutions
---------------------
By linearity a signed sum of kernel convolutions of several fields can
be added up in the spectrum before one inverse transform.  ``plus`` gives
further (field, kernels, coefficients) terms, one kernel and one
coefficient per output: output i is f * K_i + sum_j a_ij (g_j * K_ij).
Each field's z pass and block are built once; on every block, each
output adds a K^ (.) B over its terms into one product, which takes one
inverse x/y pass, and each output one inverse z pass at the end.  The
transformed-residual totals T * d2t P_t - c * P_t and T * lap w + c * w
are one such call: two forward and two inverse transforms instead of
three and six for the grouped per-term convolutions.  A single field
stays on the same path (no multiply by 1, no accumulation), so its
outputs are the grouped call's bytes; a combined output differs from the
sum of separate convolutions by roundoff.  With several fields a block
holds ``_PLANES`` // (number of fields) kz planes, so the blocks of all
fields together take about the memory of one 8-plane block.

Memory, in units of one padded half-spectrum S = 16 (2n)^2 (n+1) bytes
(57 MB at n = 96): the z pass and each kernel's planes take S/4, a block
k/(n+1) S (0.08 S at n = 96).  A single convolution peaks at 0.5 S, in
the z pass (the field zero-padded along z and its transform, S/4 each);
each further kernel of a group adds S/4.  In a combined call the outputs
overwrite the fields' z passes block by block, so two fields with two
outputs peak at 0.75 S, in the second field's z pass.  tracemalloc at
n = 96 reads 29 MB for one kernel, 43 MB for two, 57 MB for three, 43 MB
for two fields with two outputs (two grouped calls: 57 MB) and 43 MB for
``convolve_fields``, where building the padded spectrum took 86, 115 and
143 MB for one kernel, three and ``convolve_fields``.

Spectrum cache
--------------
Spectra live in one process-wide LRU keyed by (grid, kernel), under one
lock and one byte budget shared by all grids: 768 MB, about 100 spectra
at n = 96.  Hits are bit-identical to cold computations because sampling
is deterministic.  Two threads that miss the same key both compute it;
the first insertion is kept and its bytes are counted once.

Kernel sampling flavors
-----------------------
Resolved kernels (Poisson height t >= 2h) are sampled pointwise: the
midpoint sum of a smooth decaying integrand is spectrally accurate.
Under-resolved Poisson kernels (t < 2h) degrade to per-cell averages
(Gauss-Legendre near the origin, a (h^2/24)-Laplacian closed-form
correction elsewhere), which keeps the discrete kernel mass bounded by
the true mass and preserves the approximate-identity inequalities at the
price of first-order smoothing; every convolution of a nonzero field
with one warns (``under_resolved`` is the one test of t < 2h).  The
height derivative d2t P_t has no under-resolved flavour: a convolution
with it below 2h raises :class:`ResolutionError`.  The
Coulomb kernel is pointwise with the analytic cell mean at the singular
node; away from the singularity 1/r is harmonic, so pointwise values
equal cell averages to O(h^4).
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict

import numpy as np

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
    "convolve",
    "coulomb_convolve",
    "convolve_with_kernel",
    "resolution_floor",
    "under_resolved",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

_CONVOLVABLE = (CoulombKernel, PoissonKernel, PoissonDt2Kernel, Gaussian, GaussianLaplacian)


def resolution_floor(grid: GridSpec) -> float:
    """Smallest Poisson height the grid resolves: 2h."""
    return 2.0 * grid.spacing


def under_resolved(t: float, grid: GridSpec) -> bool:
    """True for a Poisson height t below the resolution floor 2h of ``grid``."""
    return t < resolution_floor(grid) * (1.0 - 1e-12)


def _under_resolved(kernel: AnalyticFunction, grid: GridSpec) -> bool:
    """True for a Poisson kernel below 2h."""
    return isinstance(kernel, PoissonKernel) and under_resolved(kernel.t, grid)


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


def _cell_average_near_origin(kernel, vals, off, h, radius):
    """Overwrite the octant ``vals`` (offsets ``off`` per axis) with 8^3
    Gauss-Legendre cell averages where every offset is within ``radius``."""
    ii = np.where(off <= radius)[0]
    centers = np.stack(
        [c.ravel() for c in np.meshgrid(off[ii], off[ii], off[ii], indexing="ij")],
        axis=1,
    )
    g = 0.5 * h * _GL_NODES
    w = 0.5 * _GL_WEIGHTS
    gx, gy, gz = np.meshgrid(g, g, g, indexing="ij")
    sub = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    ww = (w[:, None, None] * w[None, :, None] * w[None, None, :]).ravel()
    d = centers[:, None, :] + sub[None, :, :]
    out = kernel.evaluate_r2((d**2).sum(axis=2)) @ ww
    vals[np.ix_(ii, ii, ii)] = out.reshape(len(ii), len(ii), len(ii))


def _sample_kernel_octant(kernel: AnalyticFunction, grid: GridSpec) -> np.ndarray:
    """Real kernel samples at the nonnegative offsets j*h, j = 0..n, per axis."""
    n, h = grid.points_per_axis, grid.spacing
    off = np.arange(n + 1) * h
    r2 = off[:, None, None] ** 2 + off[None, :, None] ** 2 + off[None, None, :] ** 2
    if isinstance(kernel, CoulombKernel):
        vals = kernel.evaluate_r2(r2)
        vals[0, 0, 0] = kernel.singular_cell_mean(h)
        return vals
    if _under_resolved(kernel, grid):
        vals = kernel.evaluate_r2(r2) + (h * h / 24.0) * kernel.laplacian_r2(r2)
        _cell_average_near_origin(kernel, vals, off, h, 4.0 * max(kernel.t, h))
        vals[0, 0, 0] = _poisson_central_cell_mean(kernel.t, h)
        return vals
    # resolved Poisson kinds and smooth non-singular kinds: pointwise
    return np.asarray(kernel.evaluate_r2(r2), dtype=np.float64)


def _as_group(kernel) -> tuple:
    """A kernel argument as a nonempty tuple of convolvable, centered kernels."""
    kernels = kernel if isinstance(kernel, tuple) else (kernel,)
    if not kernels:
        raise ValueError("need at least one kernel")
    for k in kernels:
        if not isinstance(k, _CONVOLVABLE):
            raise ValueError(f"unsupported convolution kernel kind {type(k).__name__}")
        if k.center != (0.0, 0.0, 0.0):
            raise ValueError("convolution kernels must be centered at the origin")
    return kernels


def _terms(f, kernel, plus) -> list[tuple]:
    """(field, kernels, coefficients) per field of a kernel convolution:
    ``f`` with coefficient 1 for each kernel, then each (g, kernel(s),
    coefficient(s)) of ``plus``, validated to one kernel and one
    coefficient per output."""
    kernels = _as_group(kernel)
    terms = [(f, kernels, (1.0,) * len(kernels))]
    for g, g_kernel, coefficient in plus:
        g_kernels = _as_group(g_kernel)
        coefficients = coefficient if isinstance(coefficient, tuple) else (coefficient,)
        if not len(g_kernels) == len(coefficients) == len(kernels):
            raise ValueError("each term of plus needs one kernel and one coefficient per output")
        terms.append((g, g_kernels, tuple(float(a) for a in coefficients)))
    return terms


def _multiply_even(block: np.ndarray, planes: np.ndarray, add_to=None) -> np.ndarray:
    """``block`` times the same kz planes of an even kernel's padded
    spectrum, given by their octant ``planes`` (k, n+1, n+1), as a new
    block, or added to the block ``add_to`` and returned; all are indexed
    alike ([kz, ky, kx]), and the mirrored quadrants are views."""
    n = planes.shape[1] - 1
    lo, hi, mirror = slice(0, n + 1), slice(n + 1, None), slice(n - 1, 0, -1)
    quadrants = ((lo, lo, planes), (lo, hi, planes[:, :, mirror]),
                 (hi, lo, planes[:, mirror]), (hi, hi, planes[:, mirror, mirror]))
    if add_to is None:
        out = np.empty_like(block)
        for x, y, p in quadrants:
            np.multiply(block[:, x, y], p, out=out[:, x, y])
        return out
    for x, y, p in quadrants:  # a quadrant-sized temporary at a time
        add_to[:, x, y] += block[:, x, y] * p
    return add_to


def _sum_of_products(blocks, spectra, coefficients, kz: slice) -> np.ndarray:
    """Sum over fields of coefficient times the field's ``blocks`` entry
    times the kz planes ``kz`` of its kernel octant in ``spectra``; a
    coefficient of 1 multiplies nothing and a single term adds nothing."""
    product = None
    for block, octant, a in zip(blocks, spectra, coefficients):
        planes = _last(octant[kz], (0, 2, 1))  # [kz, ky, kx], as the blocks
        product = _multiply_even(block, planes if a == 1.0 else a * planes, product)
    return product


def _last(a: np.ndarray, axes: tuple) -> np.ndarray:
    """``a`` transposed to ``axes`` as a contiguous copy, so that the axis
    the next FFT runs on is the last one: numpy transforms a strided axis
    one line at a time."""
    return np.ascontiguousarray(a.transpose(axes))


def _padded_last(a: np.ndarray, axes: tuple, m: int) -> np.ndarray:
    """``a`` transposed to ``axes`` and zero-padded to length ``m`` along
    the last axis, as a new contiguous complex array, so that the FFT of
    its lines can run in place."""
    b = a.transpose(axes)
    out = np.zeros(b.shape[:-1] + (m,), dtype=complex)
    out[..., : b.shape[-1]] = b
    return out


def _dct1_kz_first(octant: np.ndarray) -> np.ndarray:
    """Type-I DCT of a cubic (n+1)^3 array along x, then y, then z, stored
    [kz, kx, ky].  Along an axis, the DCT-I of x_0..x_n is the real part of
    the rFFT of its even extension x_0..x_n, x_{n-1}..x_1 (length 2n).
    The three passes share one extension and one output buffer, and each
    runs on the last axis."""
    n1 = octant.shape[0]
    ext = np.empty((n1, n1, 2 * n1 - 2))
    spec = np.empty((n1, n1, n1), dtype=complex)
    values = octant
    for _ in range(3):  # x, y and z in turn become the last axis
        lines = values.transpose(1, 2, 0)
        ext[..., :n1] = lines
        ext[..., n1:] = lines[..., n1 - 2 : 0 : -1]  # not from ext: an overlap is copied first
        values = np.fft.rfft(ext, out=spec).real
    return np.ascontiguousarray(values.transpose(2, 0, 1))  # [kx, ky, kz] -> [kz, kx, ky]


_PLANES = 8  # kz frequency planes per block of the padded x and y passes, for one field


def _plane_blocks(n: int, fields: int = 1) -> list[slice]:
    """The n+1 kz frequency planes in blocks of at most ``_PLANES`` // ``fields``,
    so that the blocks of all fields of one call take about one block's memory."""
    k = max(1, _PLANES // fields)
    return [slice(k0, min(k0 + k, n + 1)) for k0 in range(0, n + 1, k)]


_SPECTRUM_BUDGET_BYTES = 768_000_000
_spectra: OrderedDict[tuple[GridSpec, AnalyticFunction], np.ndarray] = OrderedDict()
_spectra_bytes = 0
_spectra_lock = threading.Lock()


class ConvolutionPlan:
    """Zero-padded convolutions on one grid.

    A plan holds only its grid, so building one costs nothing; kernel
    spectra come from the process-wide cache, and concurrent convolutions
    of distinct fields are safe.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid

    def kernel_spectrum(self, kernel: AnalyticFunction) -> np.ndarray:
        """Read-only (n+1)^3 octant of the padded kernel's DFT: the type-I
        DCT of its octant samples, stored kz-first ([kz, kx, ky]) so that
        a block of kz planes is contiguous."""
        global _spectra_bytes
        key = (self.grid, kernel)
        with _spectra_lock:
            if key in _spectra:
                _spectra.move_to_end(key)
                return _spectra[key]
        spec = _dct1_kz_first(_sample_kernel_octant(kernel, self.grid))
        spec.flags.writeable = False
        with _spectra_lock:
            if key in _spectra:  # another thread computed it meanwhile
                _spectra.move_to_end(key)
                return _spectra[key]
            _spectra[key] = spec
            _spectra_bytes += spec.nbytes
            while _spectra_bytes > _SPECTRUM_BUDGET_BYTES and len(_spectra) > 1:
                _, old = _spectra.popitem(last=False)
                _spectra_bytes -= old.nbytes
        return spec

    # -- plane-blocked zero-padded transforms ---------------------------

    def _forward(self, values: np.ndarray) -> np.ndarray:
        """z pass of the DFT of real ``values`` zero-padded to (2n)^3: the
        n+1 nonnegative kz frequencies, shape (n, n, n+1)."""
        return np.fft.rfft(values, n=2 * self.grid.points_per_axis, axis=2)

    def _block(self, zspec: np.ndarray, kz: slice) -> np.ndarray:
        """The kz planes ``kz`` of the padded DFT, from its z pass ``zspec``:
        shape (k, 2n, 2n) indexed [kz, ky, kx].  y runs on the n nonzero x
        rows, then x on all rows, each on the last axis."""
        m = 2 * self.grid.points_per_axis
        rows = _padded_last(zspec[:, :, kz], (2, 0, 1), m)
        np.fft.fft(rows, out=rows)  # y pass: [kz, x, ky]
        block = _padded_last(rows, (0, 2, 1), m)
        return np.fft.fft(block, out=block)

    @staticmethod
    def _inverse_block(block: np.ndarray, keep: slice, out: np.ndarray, kz: slice) -> None:
        """Inverse x then y pass of a plane block [kz, ky, kx], each cropped
        to ``keep``, stored as the kz planes ``kz`` of ``out`` (n, n, n+1)."""
        x_pass = np.fft.ifft(block, out=block)[:, :, keep]  # [kz, ky, x]
        y_pass = _last(x_pass, (0, 2, 1))
        out[:, :, kz] = np.fft.ifft(y_pass, out=y_pass)[:, :, keep].transpose(1, 2, 0)

    def _inverse_z(self, planes: list[np.ndarray], keep: slice) -> np.ndarray:
        """Real inverse z pass of the first (n, n, n+1) kz-plane array of
        ``planes``, cropped to ``keep`` and scaled by h^3.  The array is
        popped, so it is freed before the output is allocated."""
        m = 2 * self.grid.points_per_axis
        out = np.fft.irfft(planes.pop(0), n=m)
        return out[:, :, keep] * self.grid.spacing**3

    def convolve_with_kernel(
        self, f: ScalarField, kernel: AnalyticFunction | tuple[AnalyticFunction, ...], *,
        plus: tuple = (), stacklevel: int = 2,
    ) -> ScalarField | tuple[ScalarField, ...]:
        """``f`` convolved with an origin-centered kernel, or with each
        kernel of a tuple (a tuple of fields then, in the same order; see
        "Grouped kernels" above).  Each (g, kernel(s), coefficient(s)) of
        ``plus`` adds coefficient times g convolved with its kernel to the
        output of the same position (see "Combined convolutions" above).
        An all-zero field is not transformed, and its kernels warn for
        nothing.  A d2t P_t kernel below 2h raises
        :class:`ResolutionError`.  ``stacklevel`` places each
        :class:`ResolutionWarning` as in ``warnings.warn``, by default at
        the caller of this method."""
        terms = _terms(f, kernel, plus)
        outputs = len(terms[0][1])
        if any(g.grid != self.grid for g, _, _ in terms):
            raise GridMismatchError("field grid does not match the plan grid")
        for _, kernels, _ in terms:
            for k in kernels:
                if isinstance(k, PoissonDt2Kernel) and under_resolved(k.t, self.grid):
                    raise ResolutionError(
                        f"d2t P_t height t={k.t:g} is below the resolution floor "
                        f"2h={resolution_floor(self.grid):g}")
        terms = [term for term in terms if term[0].values.any()]
        for _, kernels, _ in terms:
            for k in kernels:
                if _under_resolved(k, self.grid):
                    warnings.warn(
                        f"Poisson height t={k.t:g} is below the resolution floor "
                        f"2h={resolution_floor(self.grid):g}; using cell-averaged sampling",
                        ResolutionWarning,
                        stacklevel=stacklevel,
                    )
        fields = self._convolve_terms(terms, outputs) if terms else tuple(
            ScalarField.zeros(self.grid) for _ in range(outputs))
        return fields if isinstance(kernel, tuple) else fields[0]

    def _convolve_terms(self, terms: list[tuple], outputs: int) -> tuple[ScalarField, ...]:
        """The plane-block loop of :meth:`convolve_with_kernel`: output i is
        the sum over (field, kernels, coefficients) terms of coefficient i
        times the field convolved with kernel i."""
        n = self.grid.points_per_axis
        keep = slice(0, n)
        octants = [[self.kernel_spectrum(k) for k in kernels] for _, kernels, _ in terms]
        # per output: each field's kernel octant and coefficient
        sums = [([o[i] for o in octants], [c[i] for _, _, c in terms]) for i in range(outputs)]
        zspecs = [self._forward(g.values) for g, _, _ in terms]
        # the outputs overwrite the fields' z passes; each further output has its own array
        planes = zspecs[:outputs] + [np.empty_like(zspecs[0]) for _ in range(outputs - len(zspecs))]
        for kz in _plane_blocks(n, len(terms)):
            blocks = [self._block(z, kz) for z in zspecs]  # every field's, before any output
            for i, (spectra, coefficients) in enumerate(sums):
                self._inverse_block(_sum_of_products(blocks, spectra, coefficients, kz),
                                    keep, planes[i], kz)
            del blocks  # before the next blocks are built
        del zspecs  # the z passes no output took are freed here
        return tuple(terms[0][0].with_values(self._inverse_z(planes, keep))
                     for _ in range(outputs))

    def convolve_fields(self, f: ScalarField, g: ScalarField) -> ScalarField:
        if f.grid != self.grid or g.grid != self.grid:
            raise GridMismatchError("field grids do not match the plan grid")
        n = self.grid.points_per_axis
        keep = slice(n // 2, n // 2 + n)  # both origins sit at node n/2
        planes = [self._forward(f.values)]  # the product overwrites f's z pass
        zg = self._forward(g.values)
        for kz in _plane_blocks(n):
            block = self._block(planes[0], kz)
            block *= self._block(zg, kz)
            self._inverse_block(block, keep, planes[0], kz)
            del block  # before the next block is built
        del zg
        return f.with_values(self._inverse_z(planes, keep))


def convolve(f: ScalarField, g: ScalarField) -> ScalarField:
    """Linear convolution of two fields sampled on the same grid."""
    return ConvolutionPlan(f.grid).convolve_fields(f, g)


def convolve_with_kernel(
    f: ScalarField,
    kernel: AnalyticFunction | tuple[AnalyticFunction, ...],
    *,
    plus: tuple = (),
) -> ScalarField | tuple[ScalarField, ...]:
    """Convolve a field with an origin-centered analytic kernel, or with
    each kernel of a tuple from one forward transform of ``f``; ``plus``
    adds further fields' convolutions to the outputs, as in
    :meth:`ConvolutionPlan.convolve_with_kernel`.
    """
    # name our caller, not this line, in the ResolutionWarning
    return ConvolutionPlan(f.grid).convolve_with_kernel(f, kernel, plus=plus, stacklevel=3)


def coulomb_convolve(f: ScalarField) -> ScalarField:
    """f * (1/|x|) by padded FFT against the mollified Coulomb kernel."""
    return convolve_with_kernel(f, CoulombKernel())
