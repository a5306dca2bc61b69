"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the library's convolution
and quadrature paths: 1-D radial quadrature via scipy, closed-form
Gaussian integrals, a direct O(N^6) convolution sum, SciPy's LOBPCG
eigensolver and a Roothaan-Hall solve in even-tempered Gaussians, with
the band-limited grid projection of its orbital.
``apply_fock`` is the full non-local Fock operator that the solver's local
form is checked against.
"""

import hashlib
import tracemalloc

import numpy as np
from scipy import fft as sfft
from scipy.integrate import quad
from scipy.sparse import linalg as spla
from scipy.special import erf

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


def roothaan_hall_1s2(z, alpha0):
    """Closed-shell Roothaan-Hall ground state of a one-centre 1s^2 ion of
    charge ``z`` in the 28 even-tempered Gaussians ``chf.basis_function(k,
    alpha0, 1.9)``: (E, eps, c), the total energy, the orbital energy and
    the orbital's coefficients.

    Every integral is closed form in the unit-L2 s Gaussians N e^{-a r^2};
    with p = a + b and q = c + d, S = N_a N_b (pi/p)^{3/2}, T = 3ab/p S,
    V = -Z N_a N_b 2 pi/p and (ab|cd) = N_a N_b N_c N_d 2 pi^{5/2} /
    (p q sqrt(p + q)).  Plain iteration from the core guess, F = H + 2J - K
    of the density 2 c c^T, diagonalized in the canonical orthogonal basis
    S^{-1/2}, stops when E moves by at most 1e-12."""
    size = 28
    basis = [chf.basis_function(k, alpha0, 1.9) for k in range(size)]
    a = np.array([g.alpha for g in basis])
    norms = np.array([g.amplitude for g in basis])
    p = a[:, None] + a[None, :]
    nn = norms[:, None] * norms[None, :]
    overlap = nn * (np.pi / p) ** 1.5
    core = 3.0 * a[:, None] * a[None, :] / p * overlap - z * nn * 2.0 * np.pi / p
    p4, q4 = p[:, :, None, None], p[None, None, :, :]
    eri = (nn[:, :, None, None] * nn[None, None, :, :] * 2.0 * np.pi**2.5
           / (p4 * q4 * np.sqrt(p4 + q4)))  # (ab|cd)
    # G[ab, cd] = (ab|cd) - (ac|bd)/2, so F = H + G P for the density P
    two_electron = (eri - 0.5 * eri.transpose(0, 2, 1, 3)).reshape(size * size, -1)
    w, v = np.linalg.eigh(overlap)
    x = v / np.sqrt(w)

    def lowest(fock):
        e, u = np.linalg.eigh(x.T @ fock @ x)
        return e[0], x @ u[:, 0]

    _, c = lowest(core)
    energy = np.inf
    for _ in range(100):
        density = 2.0 * np.outer(c, c)
        fock = core + (two_electron @ density.ravel()).reshape(size, size)
        last, energy = energy, 0.5 * np.einsum("ab,ab->", density, core + fock)
        eps, c = lowest(fock)
        if abs(energy - last) <= 1e-12:
            return float(energy), float(eps), c
    raise RuntimeError("Roothaan-Hall iteration did not settle in 100 steps")


def projected_roothaan_hall_orbital(grid, alpha0, coefficients):
    """The band-limited grid projection of the orbital sum_a c_a phi_a in
    the even-tempered Gaussians ``chf.basis_function(k, alpha0, 1.9)``
    (the basis of :func:`roothaan_hall_1s2`), signed so that its sum is
    positive.

    The spectrum of N e^{-a r^2} is N (pi/a)^{3/2} e^{-k^2/4a}, a function
    of |m|^2 = m1^2 + m2^2 + m3^2 at the DFT frequencies k = 2 pi m / (n h),
    so it is evaluated once per |m|^2 and gathered.  The origin sits at node
    n/2, which multiplies the spectrum by (-1)^{m1+m2+m3}; one inverse FFT
    divided by h^3 gives the values at the nodes."""
    n, h = grid.points_per_axis, grid.spacing
    basis = [chf.basis_function(k, alpha0, 1.9) for k in range(len(coefficients))]
    m = np.rint(np.fft.fftfreq(n) * n).astype(np.intp)
    m2 = m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, :] ** 2
    k2 = (2.0 * np.pi / (n * h)) ** 2 * np.arange(m2.max() + 1)
    radial = sum(c * g.amplitude * (np.pi / g.alpha) ** 1.5 * np.exp(-k2 / (4.0 * g.alpha))
                 for c, g in zip(coefficients, basis))
    sign = 1.0 - 2.0 * ((m[:, None, None] + m[None, :, None] + m[None, None, :]) % 2)
    values = np.fft.ifftn(np.take(radial, m2) * sign).real / h**3
    return chf.ScalarField(grid=grid, values=values if values.sum() > 0 else -values)


def roothaan_hall_hartree_field(grid, alpha0, coefficients):
    """The Hartree field s_RH = rho * 1/|.| of the density rho = psi^2 of
    the orbital sum_a c_a phi_a in the even-tempered Gaussians
    ``chf.basis_function(k, alpha0, 1.9)`` centred at the origin, at the
    nodes of ``grid``.

    With p = a + b, each product N_a N_b e^{-p r^2} has the potential
    N_a N_b (pi/p)^{3/2} erf(sqrt(p) r) / r, whose value at r = 0 is
    N_a N_b 2 pi / p.  The radius of a node is h sqrt(m) for an integer m,
    so the sum is evaluated once per m and gathered."""
    h = grid.spacing
    basis = [chf.basis_function(k, alpha0, 1.9) for k in range(len(coefficients))]
    a = np.array([g.alpha for g in basis])
    weights = np.array([c * g.amplitude for c, g in zip(coefficients, basis)])
    p = (a[:, None] + a[None, :]).ravel()
    w = (weights[:, None] * weights[None, :]).ravel() * (np.pi / p) ** 1.5
    m = np.rint(grid.axis_coordinates() / h).astype(np.intp)
    m2 = m[:, None, None] ** 2 + m[None, :, None] ** 2 + m[None, None, :] ** 2
    r = h * np.sqrt(np.arange(1, m2.max() + 1))
    radial = np.empty(m2.max() + 1)
    radial[0] = w @ (2.0 * np.sqrt(p / np.pi))
    radial[1:] = w @ (erf(np.sqrt(p)[:, None] * r[None, :]) / r[None, :])
    return chf.ScalarField(grid=grid, values=np.take(radial, m2))


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


def full_grid_coulomb_square_integral(psi, eta):
    """Reference for ``coulomb_square_integral``: its formula on whole-grid
    arrays, as it was before the integrand was filled by chunks.  Returns
    the integral and whether the cusp fit was used (False for the plain
    mollified sum)."""
    grid = psi.grid
    h = grid.spacing
    dens = psi.values**2
    r2 = grid.radius_squared(tuple(float(c) for c in eta))
    r = np.sqrt(r2)
    j0 = grid.nearest_node(eta)
    with np.errstate(divide="ignore"):
        w = 1.0 / r2
    w[j0] = 0.0

    A = float(dens[j0])
    kappa = None
    nmax = grid.points_per_axis - 1
    if A > 1e-280 and all(0 < i < nmax for i in j0):
        slopes = []
        r0 = float(r[j0])
        for ax in range(3):
            for step in (-1, 1):
                jn = list(j0)
                jn[ax] += step
                jn = tuple(jn)
                v, rn = float(dens[jn]), float(r[jn])
                if v > 1e-280 and rn > r0:
                    slopes.append(np.log(A / v) / (2.0 * (rn - r0)))
        if slopes:
            k = float(np.mean(slopes))
            if np.isfinite(k) and 1e-3 <= k <= 1e3:
                kappa = k
                A *= np.exp(2.0 * kappa * r0)
    if kappa is None:
        total = float((dens * w).sum() * h**3)
        total += A * chf.hf._INV_SQUARE_CELL_MEAN / (h * h) * h**3
        return total, False
    remainder = dens - A * np.exp(-2.0 * kappa * r)
    return float((remainder * w).sum() * h**3 + A * 2.0 * np.pi / kappa), True


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


def under_resolved_octant_digests():
    """SHA-256 of the octants of Poisson kernels below 2h (t = h and 1.9h)
    at N = 48 and 96 (L = 10), whose cell averages near the origin are one
    matrix-vector product.  A module-level function, so that a child
    process can run it too."""
    digests = []
    for n in (48, 96):
        grid = chf.GridSpec(points_per_axis=n, extent=10.0)
        for t in (grid.spacing, 1.9 * grid.spacing):
            octant = convolution._sample_kernel_octant(chf.PoissonKernel(t=t), grid)
            digests.append(hashlib.sha256(octant.tobytes()).hexdigest())
    return digests
