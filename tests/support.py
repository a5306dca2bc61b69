"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the library's convolution
and quadrature paths: 1-D radial quadrature via scipy, closed-form
Gaussian integrals, a direct O(N^6) convolution sum, and SciPy's LOBPCG
eigensolver.  ``apply_fock`` is the full non-local Fock operator that
the solver's local form is checked against.
"""

import hashlib
import tracemalloc

import numpy as np
from scipy import fft as sfft
from scipy.integrate import quad
from scipy.sparse import linalg as spla

import convolve_hf as chf
from convolve_hf import ConvolutionPlan, CoulombKernel, convolution, laplacian

S_SUP_BOUND = 2.0 * np.sqrt(np.pi) + 1.0


def radial_coulomb_potential(rho, r, outer=30.0):
    """Potential of a radial density at radius r by 1-D quadrature:
    V(r) = (4 pi / r) Int_0^r rho s^2 ds + 4 pi Int_r^inf rho s ds."""
    if r == 0.0:
        return 4.0 * np.pi * quad(lambda s: rho(s) * s, 0.0, outer, limit=200)[0]
    inner_part = quad(lambda s: rho(s) * s * s, 0.0, r, limit=200)[0]
    outer_part = quad(lambda s: rho(s) * s, r, outer, limit=200)[0]
    return 4.0 * np.pi * (inner_part / r + outer_part)


def gaussian_overlap(alpha, beta):
    """<phi_a, phi_b> of unit-L2 isotropic Gaussians at one center."""
    return (2.0 * np.sqrt(alpha * beta) / (alpha + beta)) ** 1.5


def direct_convolution(f, g):
    """Reference linear convolution sampled on the grid, O(N^6) sum."""
    n = f.grid.points_per_axis
    h3 = f.grid.spacing**3
    half = n // 2
    fv, gv = f.values, g.values
    out = np.zeros(f.grid.shape, dtype=np.complex128)
    for si in range(n):
        for sj in range(n):
            for sk in range(n):
                fval = fv[si, sj, sk]
                if fval == 0:
                    continue
                ilo, ihi = max(0, si - half), min(n, si - half + n)
                jlo, jhi = max(0, sj - half), min(n, sj - half + n)
                klo, khi = max(0, sk - half), min(n, sk - half + n)
                out[ilo:ihi, jlo:jhi, klo:khi] += fval * gv[
                    ilo - si + half : ihi - si + half,
                    jlo - sj + half : jhi - sj + half,
                    klo - sk + half : khi - sk + half,
                ]
    return out * h3


def integral(f):
    """Quadrature of ``f`` over the box: sum of values times h^3."""
    return float(f.values.sum() * f.grid.spacing**3)


def normalized_field(field):
    return field * (1.0 / chf.norm(field, 2))


def unit_gaussian_orbital(grid, alpha=1.0, center=(0.0, 0.0, 0.0)):
    """Normalized (unit L2) Gaussian orbital sampled on the grid."""
    return normalized_field(chf.sample(chf.Gaussian(alpha=alpha, center=center, amplitude=1.0), grid))


def random_smooth_orbital(grid, rng, corr=0.35, envelope=8.0, hole_radius=None):
    """Band-limited random field under a Gaussian envelope, L2-normalized.

    ``hole_radius`` multiplies in (1 - e^{-(r/rho)^2}), removing weight at
    the origin: crosscheck tests use it so the nuclear mask excludes no
    actual residual content.
    """
    n, h = grid.points_per_axis, grid.spacing
    noise = rng.standard_normal(grid.shape)
    spec = sfft.rfftn(noise)
    kx = sfft.fftfreq(n, d=h)
    kz = sfft.rfftfreq(n, d=h)
    k2 = kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
    spec *= np.exp(-k2 / (2.0 * corr**2))
    r2 = grid.radius_squared()
    vals = sfft.irfftn(spec, s=grid.shape) * np.exp(-r2 / envelope)
    if hole_radius is not None:
        # quartic profile: essentially zero through r ~ hole_radius/2,
        # essentially one beyond ~1.5 hole_radius
        vals = vals * (1.0 - np.exp(-((r2 / hole_radius**2) ** 2)))
    return normalized_field(chf.ScalarField(grid=grid, values=vals.astype(np.complex128)))


def lowest_eigenvalues(grid, potential, k=2, tol=1e-6):
    """The k lowest eigenvalues of -1/2 lap + potential on the periodic
    grid by SciPy's LOBPCG, ascending.  ``tol`` bounds the residual norms
    of the unit eigenvectors; an isolated eigenvalue's error is of order
    its square.  The Laplacian is spectral through ``scipy.fft`` and the
    preconditioner is 1/(|k|^2/2 + 1).  The start block is a Gaussian at
    the origin and Gaussians times seeded noise (not any solver output of
    the package), so no symmetry class of eigenvectors is left out."""
    n, shape = grid.points_per_axis, grid.shape
    kx = 2.0 * np.pi * sfft.fftfreq(n, d=grid.spacing)
    kz = 2.0 * np.pi * sfft.rfftfreq(n, d=grid.spacing)
    half_k2 = 0.5 * (kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2)

    def spectral(block, multiplier):
        cube = block.T.reshape((-1,) + shape)
        out = sfft.irfftn(sfft.rfftn(cube, axes=(1, 2, 3)) * multiplier, s=shape, axes=(1, 2, 3))
        return out.reshape(len(cube), -1).T

    def hamiltonian(block):
        return spectral(block, half_k2) + potential.reshape(-1, 1) * block

    def precondition(block):
        return spectral(block, 1.0 / (half_k2 + 1.0))

    size = potential.size
    operator, precond = (spla.LinearOperator((size, size), matvec=f, matmat=f, dtype=np.float64)
                         for f in (hamiltonian, precondition))
    gauss = np.exp(-grid.radius_squared()).reshape(-1, 1)
    noise = np.random.default_rng(0).standard_normal((size, k - 1))
    block = np.hstack([gauss, gauss * noise])
    values = spla.lobpcg(operator, block, M=precond, tol=tol, maxiter=200, largest=False)[0]
    return np.sort(values)


def apply_fock(psi, system, fields, orbitals):
    """One-particle operator with frozen fields applied to a trial field:

        -1/2 lap psi - sum_c Z_c h_c psi + 2 sum_c s[c,c] psi - K psi,

    where (K psi)(x) = sum_c [(psi_c psi) * h](x) psi_c(x).  The
    exchange recomputes the overlap convolution with the trial, which
    keeps the operator linear and Hermitian; on psi = psi_a it equals
    sum_c s[a,c] psi_c.
    """
    if fields.n != len(orbitals):
        raise ValueError("fields were built from a different orbital count")
    # p = 2 sum Z_c h_c and q = 4 sum s_cc, so nuclear + Hartree = (q - p)/2
    vals = -0.5 * laplacian(psi, method="spectral").values
    vals = vals + 0.5 * (fields.q.values - fields.p.values) * psi.values
    plan = ConvolutionPlan(psi.grid)  # one Coulomb spectrum for every orbital
    for psi_c in orbitals.orbitals:
        overlap = plan.convolve_with_kernel(psi_c * psi, CoulombKernel())
        vals = vals - overlap.values * psi_c.values
    return psi.with_values(vals)


def hydrogen_identity(n, extent, margin=0.75):
    """Analytic Slater orbital with zeroed two-electron fields: the exact
    eigenpair configuration (Z=1, eps=-1/2)."""
    grid = chf.GridSpec(points_per_axis=n, extent=extent)
    system = chf.MolecularSystem(
        nuclei=((1.0, (0.0, 0.0, 0.0)),), regular_set_margin=margin
    )
    psi = normalized_field(chf.sample(chf.Slater1s(), grid))
    orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.5,))
    zero = chf.ScalarField.zeros(grid)
    fields = chf.HfFields(p=chf.build_p(system, grid), s=((zero,),))
    return grid, system, orbitals, fields


def assert_overlap_bound(fields):
    """The hard sup bound every overlap-Coulomb field must satisfy."""
    assert fields.s_sup_max() <= S_SUP_BOUND


def peak_traced_bytes(fn):
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


def pointwise_octant(kernel, grid):
    """A kernel's octant samples with every kind evaluated at each offset's
    own r^2 = (ih)^2 + (jh)^2 + (kh)^2, i, j, k = 0..n, and the engine's
    singular, cell-average and central overrides; a Poisson second
    difference combines the octants of its three heights."""
    if isinstance(kernel, chf.PoissonSecondDifference):
        lo, mid, hi = (pointwise_octant(chf.PoissonKernel(t=s), grid) for s in kernel.heights)
        return (hi - 2.0 * mid + lo) * (1.0 / kernel.delta**2)
    n, h = grid.points_per_axis, grid.spacing
    off = np.arange(n + 1) * h
    r2 = off[:, None, None] ** 2 + off[None, :, None] ** 2 + off[None, None, :] ** 2
    if isinstance(kernel, chf.CoulombKernel):
        vals = kernel.evaluate_r2(r2)
        vals[0, 0, 0] = kernel.singular_cell_mean(h)
        return vals
    if isinstance(kernel, chf.PoissonKernel) and chf.under_resolved(kernel.t, grid):
        vals = kernel.evaluate_r2(r2) + (h * h / 24.0) * kernel.laplacian_r2(r2)
        convolution._cell_average_near_origin(kernel, vals, off, h, 4.0 * max(kernel.t, h))
        vals[0, 0, 0] = convolution._poisson_central_cell_mean(kernel.t, h)
        return vals
    return np.asarray(kernel.evaluate_r2(r2), dtype=np.float64)


def record_sampled_kernels(monkeypatch):
    """A list to which every kernel whose octant the engine samples is
    appended: one entry per spectrum computed."""
    sampled = []
    sample_octant = convolution._sample_kernel_octant

    def recording(kernel, grid):
        sampled.append(kernel)
        return sample_octant(kernel, grid)

    monkeypatch.setattr(convolution, "_sample_kernel_octant", recording)
    return sampled


def engine_digests(n):
    """SHA-256 of every output of the convolution engine's entry points on
    fixed random fields at N = n: a single, a grouped and a combined kernel
    convolution, a field convolution and a cold kernel spectrum.  A
    module-level function, so that a child process can run it too."""
    grid = chf.GridSpec(points_per_axis=n, extent=8.0)
    rng = np.random.default_rng(n)
    f, g = (chf.ScalarField(grid=grid, values=rng.standard_normal(grid.shape)) for _ in range(2))
    h = grid.spacing
    coulomb, poisson, gaussian = (chf.CoulombKernel(), chf.PoissonKernel(t=3.0 * h),
                                  chf.Gaussian(alpha=1.0))
    plan = convolution.ConvolutionPlan(grid)
    outputs = {
        "single": plan.convolve_with_kernel(f, coulomb),
        "grouped": plan.convolve_with_kernel(f, (poisson, gaussian, coulomb)),
        "combined": plan.convolve_with_kernel(
            f, (chf.PoissonDt2Kernel(t=3.0 * h), chf.GaussianLaplacian(alpha=1.0)),
            plus=((g, (poisson, gaussian), (-1.0, 2.0)),)),
        "fields": plan.convolve_fields(f, g),
    }
    # cold, cell-averaged: a fresh plan has computed no spectrum
    spectrum = convolution.ConvolutionPlan(grid).kernel_spectrum(chf.PoissonKernel(t=0.5 * h))
    arrays = {"spectrum": spectrum}
    for name, out in outputs.items():
        for i, field in enumerate(out if isinstance(out, tuple) else (out,)):
            arrays[f"{name}{i}"] = field.values
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in arrays.items()}
