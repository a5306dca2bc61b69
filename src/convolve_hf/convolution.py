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
real; the frequencies beyond n are its mirror images.  A kept spectrum
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
(n, n, n+1) array.  The x and y passes run on blocks of k kz planes: y on
the n nonzero x rows of a block zero-padded to (k, 2n, 2n), then x on all
rows.  A kernel's product with the block goes through the inverse x and
y passes, each cropped to n rows as soon as it has run, and the (k, n, n)
result is stored in the same kz planes of an (n, n, n+1) array; one real
inverse z pass of that array, cropped and scaled by h^3, is the output.
Kernel convolutions keep nodes [:n], the nodes of the field itself;
field-field convolutions multiply the two fields' blocks and keep the
centre [n/2 : 3n/2], because the origin of both fields sits at node n/2.

Every pass is a one-axis ``numpy.fft`` transform of the last, contiguous
axis, because numpy transforms a strided axis one line at a time.  The z
pass runs on the field as stored.  A block's planes are copied into a
rows buffer [kz, x, y], zero-padded along y, for the y pass, and its
result into a block buffer [kz, ky, x], zero-padded along x, for the x
pass, each transformed in place.  So a block is indexed [kz, ky, kx], and
spectra are kept in that order: a block's kernel planes are one
contiguous slice.  The inverse x pass runs on the product in place, the
inverse y pass on a transposed copy in the rows buffer.  The lines and
the order of the axes (z, y, x forward; x, y, z inverse) are those of
``scipy.fft`` on the whole padded spectrum, and so are the output bits.

Workers
-------
Every pass transforms independent lines, so each is shared among worker
threads: the forward and inverse z passes by x rows, the plane blocks by
contiguous shares of the kz blocks, and each pass of a spectrum's DCT-I
by lines.  The calling thread runs the first share and a module-level
pool, created on first use, the others; numpy's transforms and copies of
large arrays release the GIL.  There is one worker per CPU the process
may run on (``os.sched_getaffinity``), the calling thread counting as
one, at most 8 // (arrays per worker), so that every block keeps a kz
plane.  On one CPU, and on grids below ``_THREADED_N`` = 48 nodes, whose
numpy calls are too short to gain over the handoffs between threads,
every pass runs inline and no pool is made.  A worker writes only its own
lines or kz planes, and every line is transformed alone, so the output
bytes do not depend on the number of workers.  A DCT-I pass reads the
previous pass's output from the buffer it writes, so all of its lines
are gathered before any of them is transformed.

A worker allocates nothing larger than pocketfft's line scratch.  The
calling thread allocates each worker's buffers once per call: rows
(k, n, 2n), one block (k, 2n, 2n) per field and, when there are several
outputs, a spare block for the products of all outputs but the last,
whose product overwrites the first field's block.  The rows also hold a
product's quadrant scratch and the inverse y pass, and the inverse z
pass runs one x row at a time in an (n, 2n) line buffer per worker.
A block holds k = 8 // (workers x arrays) planes, so the blocks of all
workers together take about the memory of one 8-plane block.  Arrays a
worker thread allocates come from its own glibc arena, which raised the
peak RSS where workers allocated their blocks; arrays the calling thread
allocates do not.

Grouped kernels
---------------
``convolve_with_kernel`` also takes a tuple of kernels for one field (the
heights of an extension ladder, P_t and its second difference in the
height for a harmonicity defect, or a Poisson and a window kernel of the
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
sum of separate convolutions by roundoff.

Memory, in units of one padded half-spectrum S = 16 (2n)^2 (n+1) bytes
(57 MB at n = 96): each field's z pass and each further output's planes
take S/4, an output S/8, and the worker buffers of a call about S/8.  A
single convolution peaks at 3S/8, both in its block loop (the z pass and
the buffers) and in its inverse z pass (the z pass and the output).
Every further output adds S/4: a call with several outputs peaks in the
first output's inverse z pass, while the planes of all outputs are held.
In a combined call the outputs overwrite the fields' z passes block by
block, so two fields with two outputs also peak at 5S/8.  tracemalloc at
n = 96 reads 22 MB for one kernel, 36 MB for two, 50 MB for three, 36 MB
for two fields with two outputs and 35 MB for ``convolve_fields``; with
per-block arrays and a whole (n, n, 2n) inverse z pass they took 29, 43,
57, 43 and 40 MB, and building the padded spectrum 86, 115 and 143 MB
for one kernel, three and ``convolve_fields``.

Spectrum ownership
------------------
A spectrum belongs to the plan that computed it: a plan keeps the
spectrum of each distinct kernel it has convolved with, 8 (n+1)^3 bytes
apiece, and they are freed with the plan.  There is no process-wide
spectrum state.  Code that reuses a kernel holds one plan: ``scf.solve``
keeps one Coulomb spectrum for all its outer iterations, and the
``expand`` ladder four spectra (d2t P_t, P_t, lap w and w; also 1/r for
the r_n of an SCF source) for all its orders.  Every convolution is a
method call on the plan that keeps its spectra, so a function that
convolves once (each height of an extension sweep) holds its plan only
for that call, and one that reuses a kernel (``build_overlap_fields``
over the orbital pairs, ``run_verify`` for its Coulomb oracle and
overlap bound) samples it once.  ``keep_only`` frees every spectrum of a
plan but the named ones: the ``residuals`` command keeps the P_t
spectrum of its transformed residuals for the crosscheck, and frees the
other three before the reports are built.  A reused spectrum is bit-identical to a
fresh one because sampling is deterministic.  Two threads that miss the
same kernel on one plan both compute it, and the plan keeps the first.

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
equal cell averages to O(h^4).  The second difference of P_t in the
height, (P_{t+d} - 2 P_t + P_{t-d}) / d^2, combines the octants of its
three heights, each sampled in its own flavour, before its one DCT-I; it
warns when t - d is below 2h.

A radial kernel's octant value at offsets (i, j, k) h depends only on
m = i^2 + j^2 + k^2 <= 3n^2.  So each kind, and the (h^2/24)-Laplacian
correction, is evaluated once per m on r^2 = m h^2 (27 649 values at
n = 96 instead of 912 673) and gathered with an index array of m; the
cell-average, central and singular overrides are then written as before.
Where h is a dyadic rational (a / 2^b, as h = 3/8 or 5/16), m h^2 is
the exact sum (ih)^2 + (jh)^2 + (kh)^2, and every sample keeps the bits
of the pointwise evaluation; elsewhere (h = 5/24) the two r^2 round
differently and a sample moves by a few ulp of the octant's largest
value.
"""

from __future__ import annotations

import os
import threading
import warnings

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
    PoissonSecondDifference,
)

__all__ = [
    "ConvolutionPlan",
    "resolution_floor",
    "under_resolved",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

_CONVOLVABLE = (CoulombKernel, PoissonKernel, PoissonDt2Kernel, PoissonSecondDifference,
                Gaussian, GaussianLaplacian)


def resolution_floor(grid: GridSpec) -> float:
    """Smallest Poisson height the grid resolves: 2h."""
    return 2.0 * grid.spacing


def under_resolved(t: float, grid: GridSpec) -> bool:
    """True for a Poisson height t below the resolution floor 2h of ``grid``."""
    return t < resolution_floor(grid) * (1.0 - 1e-12)


def _lowest_height(kernel: AnalyticFunction) -> float | None:
    """The lowest Poisson height a kernel samples: t of a Poisson kernel,
    t - delta of a second difference, None for the other kinds."""
    if isinstance(kernel, PoissonKernel):
        return kernel.t
    if isinstance(kernel, PoissonSecondDifference):
        return kernel.heights[0]
    return None


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


def _squared_offsets(n: int) -> np.ndarray:
    """i^2 + j^2 + k^2 for i, j, k = 0..n, an (n+1)^3 array of ``np.intp``,
    the index type ``np.take`` gathers with (it converts int32 indices on
    every call: 5.5 ms against 1.4 ms for the gather at n = 96 on a
    2-core host)."""
    sq = np.arange(n + 1, dtype=np.intp) ** 2
    return sq[:, None, None] + sq[None, :, None] + sq[None, None, :]


def _radial_octant(kernel: AnalyticFunction, grid: GridSpec, m: np.ndarray) -> np.ndarray:
    """Octant samples of any kind but a second difference: its values at
    r^2 = m h^2, m = 0..3n^2, gathered at the squared offsets ``m``, then
    its flavour's overrides."""
    n, h = grid.points_per_axis, grid.spacing
    r2 = np.arange(3 * n * n + 1) * (h * h)
    if isinstance(kernel, CoulombKernel):
        vals = np.take(kernel.evaluate_r2(r2), m)
        vals[0, 0, 0] = kernel.singular_cell_mean(h)
        return vals
    if isinstance(kernel, PoissonKernel) and under_resolved(kernel.t, grid):
        vals = np.take(kernel.evaluate_r2(r2) + (h * h / 24.0) * kernel.laplacian_r2(r2), m)
        off = np.arange(n + 1) * h
        _cell_average_near_origin(kernel, vals, off, h, 4.0 * max(kernel.t, h))
        vals[0, 0, 0] = _poisson_central_cell_mean(kernel.t, h)
        return vals
    # resolved Poisson kinds and smooth non-singular kinds: pointwise
    return np.take(np.asarray(kernel.evaluate_r2(r2), dtype=np.float64), m)


def _sample_kernel_octant(kernel: AnalyticFunction, grid: GridSpec) -> np.ndarray:
    """Real kernel samples at the nonnegative offsets j*h, j = 0..n, per
    axis.  A Poisson second difference combines the octants of its three
    heights, each sampled in its own flavour."""
    m = _squared_offsets(grid.points_per_axis)
    if not isinstance(kernel, PoissonSecondDifference):
        return _radial_octant(kernel, grid, m)
    lo, mid, hi = (_radial_octant(PoissonKernel(t=s), grid, m) for s in kernel.heights)
    return (hi - 2.0 * mid + lo) * (1.0 / kernel.delta**2)


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


def _quadrants(planes: np.ndarray) -> tuple:
    """(x, y, planes) for the four quadrants of a block [kz, ky, kx] that
    an even kernel's octant ``planes`` (k, n+1, n+1) covers, the mirrored
    ones as views."""
    n = planes.shape[1] - 1
    lo, hi, mirror = slice(0, n + 1), slice(n + 1, None), slice(n - 1, 0, -1)
    return ((lo, lo, planes), (lo, hi, planes[:, :, mirror]),
            (hi, lo, planes[:, mirror]), (hi, hi, planes[:, mirror, mirror]))


def _sum_of_products(blocks, spectra, coefficients, kz: slice, out, scratch) -> np.ndarray:
    """Into ``out`` (which may be the first block), the sum over fields of
    coefficient times the field's ``blocks`` entry times the kz planes
    ``kz`` of its kernel octant in ``spectra``; all are indexed [kz, ky, kx].
    A coefficient of 1 multiplies nothing and a single term adds nothing.
    ``scratch`` (the worker's rows: 2kn^2 values, more than a quadrant's
    k(n+1)^2) holds one quadrant's scaled kernel planes or product at a
    time, so nothing is allocated."""
    for j, (block, octant, a) in enumerate(zip(blocks, spectra, coefficients)):
        for x, y, planes in _quadrants(octant[kz]):
            term = scratch.reshape(-1)[: planes.size].reshape(planes.shape)
            if a != 1.0:
                planes = np.multiply(planes, a, out=term)
            if j == 0:
                np.multiply(block[:, x, y], planes, out=out[:, x, y])
            else:
                target = out[:, x, y]
                np.add(target, np.multiply(block[:, x, y], planes, out=term), out=target)
    return out


def _dct1_kz_first(octant: np.ndarray) -> np.ndarray:
    """Type-I DCT of a cubic (n+1)^3 array along x, then y, then z, stored
    [kz, ky, kx].  Along an axis, the DCT-I of x_0..x_n is the real part of
    the rFFT of its even extension x_0..x_n, x_{n-1}..x_1 (length 2n).
    The three passes share one extension and one output buffer, and each
    runs on the last axis, its lines split across the workers.  A pass
    reads the previous one's output, so every line is gathered before any
    transform writes the output buffer."""
    n1 = octant.shape[0]
    ext = np.empty((n1, n1, 2 * n1 - 2))
    spec = np.empty((n1, n1, n1), dtype=complex)
    shares = _split(n1, _workers(n1 - 1))
    values = octant

    def gather(_, s):
        lines = values.transpose(1, 2, 0)[s]
        ext[s, :, :n1] = lines
        ext[s, :, n1:] = lines[..., n1 - 2 : 0 : -1]  # not from ext: an overlap is copied first

    for _ in range(3):  # x, y and z in turn become the last axis
        _run(gather, shares)
        _run(lambda _, s: np.fft.rfft(ext[s], out=spec[s]), shares)
        values = spec.real
    out = np.empty_like(octant)  # [kx, ky, kz] -> [kz, ky, kx]
    _run(lambda _, s: np.copyto(out[s], values.transpose(2, 1, 0)[s]), shares)
    return out


_PLANES = 8  # kz frequency planes in flight in the padded x and y passes of one call


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# smallest grid whose passes are shared among threads: below it the numpy
# calls are too short to gain over the handoffs between threads (at N = 32
# a convolution took 5.8-7.8 ms inline and 8.1-9.0 ms on two threads of a
# 2-core host; at N = 48 about the same either way)
_THREADED_N = 48


def _workers(n: int, fields: int = 1) -> int:
    """Threads that share a pass on a grid of n nodes per axis, the calling
    thread counting as one: one per CPU, at most ``_PLANES`` // ``fields``,
    so that every worker's block of each of ``fields`` fields keeps at
    least one kz plane; one below ``_THREADED_N``."""
    if n < _THREADED_N:
        return 1
    return max(1, min(_cpus(), _PLANES // fields))


_pool = None
_pool_lock = threading.Lock()


def _executor():
    """The module's worker pool, created on first use (so importing the
    package starts no thread and imports no ``concurrent.futures``)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_PLANES - 1, thread_name_prefix="convolve_hf")
        return _pool


def _split(count: int, parts: int) -> list[slice]:
    """0..count-1 in at most ``parts`` contiguous, nonempty, near-equal slices."""
    parts = min(parts, count)
    bounds = [count * i // parts for i in range(parts + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _run(task, shares: list[slice]) -> None:
    """``task(w, shares[w])`` for every worker w: w = 0 on the calling
    thread, the others on the pool.  Returns when all have finished, and
    raises the first exception any of them raised.  With one share the
    task runs inline and no pool is created."""
    futures = [_executor().submit(task, w, s) for w, s in enumerate(shares) if w]
    try:
        task(0, shares[0])
    finally:
        errors = [f.exception() for f in futures]
    for error in errors:
        if error is not None:
            raise error


class ConvolutionPlan:
    """Zero-padded convolutions on one grid.

    A plan holds its grid and the spectra of the kernels it has convolved
    with (see "Spectrum ownership" above), which are freed with the plan;
    building one costs nothing.  Concurrent convolutions of distinct
    fields on one plan are safe.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._spectra: dict[AnalyticFunction, np.ndarray] = {}

    def kernel_spectrum(self, kernel: AnalyticFunction) -> np.ndarray:
        """Read-only (n+1)^3 octant of the padded kernel's DFT: the type-I
        DCT of its octant samples, stored [kz, ky, kx] as the blocks are,
        so that a block's kernel planes are one contiguous slice.  Computed
        on the plan's first request for ``kernel`` and kept by the plan."""
        spec = self._spectra.get(kernel)
        if spec is None:
            spec = _dct1_kz_first(_sample_kernel_octant(kernel, self.grid))
            spec.flags.writeable = False
            # a thread that missed meanwhile may have stored its own: keep the first
            spec = self._spectra.setdefault(kernel, spec)
        return spec

    def keep_only(self, *kernels: AnalyticFunction) -> None:
        """Free every kept spectrum but those of ``kernels``."""
        self._spectra = {k: s for k, s in self._spectra.items() if k in kernels}

    # -- plane-blocked zero-padded transforms ---------------------------

    def _forward(self, values: np.ndarray) -> np.ndarray:
        """z pass of the DFT of real ``values`` zero-padded to (2n)^3: the
        n+1 nonnegative kz frequencies, shape (n, n, n+1), split by x rows
        across the workers."""
        n = self.grid.points_per_axis
        zspec = np.empty((n, n, n + 1), dtype=complex)
        _run(lambda _, x: np.fft.rfft(values[x], n=2 * n, out=zspec[x]), _split(n, _workers(n)))
        return zspec

    @staticmethod
    def _block(zspec: np.ndarray, kz: slice, rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        """The kz planes ``kz`` of the padded DFT, from its z pass ``zspec``,
        built in ``block`` (k, 2n, 2n) indexed [kz, ky, kx]: y runs on the n
        nonzero x rows in ``rows`` (k, n, 2n), then x on all rows, each on
        the last axis."""
        n = zspec.shape[0]
        rows[..., :n] = zspec[:, :, kz].transpose(2, 0, 1)
        rows[..., n:] = 0
        np.fft.fft(rows, out=rows)  # y pass: [kz, x, ky]
        block[..., :n] = rows.transpose(0, 2, 1)
        block[..., n:] = 0
        return np.fft.fft(block, out=block)

    @staticmethod
    def _inverse_block(block: np.ndarray, keep: slice, out: np.ndarray, kz: slice,
                       rows: np.ndarray) -> None:
        """Inverse x then y pass of a plane block [kz, ky, kx], each cropped
        to ``keep``, stored as the kz planes ``kz`` of ``out`` (n, n, n+1);
        the y pass runs in ``rows`` (k, n, 2n)."""
        x_pass = np.fft.ifft(block, out=block)[:, :, keep]  # [kz, ky, x]
        np.copyto(rows, x_pass.transpose(0, 2, 1))
        out[:, :, kz] = np.fft.ifft(rows, out=rows)[:, :, keep].transpose(1, 2, 0)

    def _plane_loop(self, zspecs: list, planes: list, keep: slice, product) -> None:
        """The padded x and y passes of one call on blocks of kz planes.  On
        each block every field's block is built from its z pass in
        ``zspecs``; then, for each output i, ``product(i, blocks, kz, spare,
        scratch)`` forms its product, whose inverse passes fill the kz
        planes of ``planes[i]``.  Each worker takes a contiguous share of
        the blocks, so it reads and writes only its own kz planes, in
        buffers the calling thread allocated: rows (also the products'
        ``scratch``), one block per field, and ``spare``, a product buffer
        when there are several outputs (else None)."""
        n = self.grid.points_per_axis
        m = 2 * n
        arrays = len(zspecs) + (len(planes) > 1)  # blocks and spare per worker
        workers = _workers(n, arrays)
        k = max(1, _PLANES // (workers * arrays))
        kzs = [slice(k0, min(k0 + k, n + 1)) for k0 in range(0, n + 1, k)]
        shares = _split(len(kzs), workers)
        rows = [np.empty((k, n, m), dtype=complex) for _ in shares]
        blocks = [[np.empty((k, m, m), dtype=complex) for _ in zspecs] for _ in shares]
        spares = [np.empty((k, m, m), dtype=complex) if len(planes) > 1 else None
                  for _ in shares]

        def task(w, share):
            for kz in kzs[share]:
                k_ = kz.stop - kz.start  # the last block may be short
                block_rows = rows[w][:k_]
                built = [self._block(z, kz, block_rows, b[:k_]) for z, b in zip(zspecs, blocks[w])]
                spare = None if spares[w] is None else spares[w][:k_]
                for i, out in enumerate(planes):
                    self._inverse_block(product(i, built, kz, spare, block_rows), keep, out, kz,
                                        block_rows)

        _run(task, shares)

    def _inverse_z(self, planes: list[np.ndarray], keep: slice) -> np.ndarray:
        """Real inverse z pass of the first (n, n, n+1) kz-plane array of
        ``planes``, cropped to ``keep`` and scaled by h^3, one x row at a
        time across the workers, each in its own line buffer.  The array is
        popped, so it is freed once the output is done."""
        n = self.grid.points_per_axis
        m = 2 * n
        scale = self.grid.spacing**3
        zspec = planes.pop(0)
        out = np.empty((n, n, n))
        shares = _split(n, _workers(n))
        lines = [np.empty((n, m)) for _ in shares]

        def task(w, xs):
            for x in range(xs.start, xs.stop):
                np.fft.irfft(zspec[x], n=m, out=lines[w])
                np.multiply(lines[w][:, keep], scale, out=out[x])

        _run(task, shares)
        return out

    def convolve_with_kernel(
        self, f: ScalarField, kernel: AnalyticFunction | tuple[AnalyticFunction, ...], *,
        plus: tuple = (),
    ) -> ScalarField | tuple[ScalarField, ...]:
        """``f`` convolved with an origin-centered kernel, or with each
        kernel of a tuple (a tuple of fields then, in the same order; see
        "Grouped kernels" above).  Each (g, kernel(s), coefficient(s)) of
        ``plus`` adds coefficient times g convolved with its kernel to the
        output of the same position (see "Combined convolutions" above).
        An all-zero field is not transformed, and its kernels warn for
        nothing.  A d2t P_t kernel below 2h raises
        :class:`ResolutionError`.  Each :class:`ResolutionWarning` names
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
                t = _lowest_height(k)
                if t is not None and under_resolved(t, self.grid):
                    warnings.warn(
                        f"Poisson height t={t:g} is below the resolution floor "
                        f"2h={resolution_floor(self.grid):g}; using cell-averaged sampling",
                        ResolutionWarning,
                        stacklevel=2,
                    )
        fields = self._convolve_terms(terms, outputs) if terms else tuple(
            ScalarField.zeros(self.grid) for _ in range(outputs))
        return fields if isinstance(kernel, tuple) else fields[0]

    def _convolve_terms(self, terms: list[tuple], outputs: int) -> tuple[ScalarField, ...]:
        """The plane-block loop of :meth:`convolve_with_kernel`: output i is
        the sum over (field, kernels, coefficients) terms of coefficient i
        times the field convolved with kernel i."""
        keep = slice(0, self.grid.points_per_axis)
        octants = [[self.kernel_spectrum(k) for k in kernels] for _, kernels, _ in terms]
        # per output: each field's kernel octant and coefficient
        sums = [([o[i] for o in octants], [c[i] for _, _, c in terms]) for i in range(outputs)]
        zspecs = [self._forward(g.values) for g, _, _ in terms]
        # the outputs overwrite the fields' z passes; each further output has its own array
        planes = zspecs[:outputs] + [np.empty_like(zspecs[0]) for _ in range(outputs - len(zspecs))]

        def product(i, blocks, kz, spare, scratch):
            # the last output no longer needs the blocks: its product overwrites the first
            out = blocks[0] if i == outputs - 1 else spare
            return _sum_of_products(blocks, *sums[i], kz, out, scratch)

        self._plane_loop(zspecs, planes, keep, product)
        del zspecs  # the z passes no output took are freed here
        return tuple(terms[0][0].with_values(self._inverse_z(planes, keep))
                     for _ in range(outputs))

    def convolve_fields(self, f: ScalarField, g: ScalarField) -> ScalarField:
        """Linear convolution of two fields sampled on the plan's grid."""
        if f.grid != self.grid or g.grid != self.grid:
            raise GridMismatchError("field grids do not match the plan grid")
        n = self.grid.points_per_axis
        keep = slice(n // 2, n // 2 + n)  # both origins sit at node n/2
        planes = [self._forward(f.values)]  # the product overwrites f's z pass
        zg = self._forward(g.values)
        self._plane_loop([planes[0], zg], planes, keep,
                         lambda i, blocks, kz, spare, scratch: np.multiply(*blocks, out=blocks[0]))
        del zg
        return f.with_values(self._inverse_z(planes, keep))
