"""Shared oracles and builders for the test suite.

Oracles here are deliberately independent of the library's convolution
and quadrature paths: 1-D radial quadrature via scipy, closed-form
Gaussian integrals, and a direct O(N^6) convolution sum.
"""

import numpy as np
from scipy import fft as sfft
from scipy.integrate import quad

import convolve_hf as chf

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


def hydrogen_identity(n, extent, margin=0.75):
    """Analytic Slater orbital with zeroed two-electron fields: the exact
    eigenpair configuration (Z=1, eps=-1/2)."""
    grid = chf.GridSpec(points_per_axis=n, extent=extent)
    system = chf.MolecularSystem(
        nuclei=((1.0, (0.0, 0.0, 0.0)),), pair_count=1, regular_set_margin=margin
    )
    psi = normalized_field(chf.sample(chf.Slater1s(), grid))
    orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.5,))
    zero = chf.ScalarField.zeros(grid)
    fields = chf.HfFields(p=chf.build_p(system, grid), s=((zero,),))
    return grid, system, orbitals, fields


def assert_overlap_bound(fields):
    """The hard sup bound every overlap-Coulomb field must satisfy."""
    assert fields.s_sup_max() <= S_SUP_BOUND
