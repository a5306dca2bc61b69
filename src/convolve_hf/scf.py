"""Self-consistent field solver for one doubly occupied orbital.

The outer loop rebuilds the mean field from the density of the latest
orbital, unmixed, and the inner loop relaxes the lowest eigenpair of the
frozen one-particle operator in that field.  The loop stops on the defect
of the fixed point itself: the relative Fock residual
||F psi - eps psi|| / ||F psi|| of the new orbital with its own field,
over the whole grid.  The discrete equations are finite at every node,
since p carries the cell mean of 1/r at the nuclear node, so the stop
rule reads only the grid and the nuclei.
Each outer iteration costs one padded convolution, the inner-loop
transforms and the spectral Laplacian of that residual.  The loop works on
plain real arrays; a diverging inner relaxation raises
:class:`ScfDivergedError`.

The eigensolver is the normalized gradient flow in imaginary time
with a backward-Euler kinetic term (Bao & Du 2004, SIAM J. Sci.
Comput. 25, 1674).  With v = v_eff frozen, eps the current Rayleigh
quotient and sigma = max(0, max v), one step is

    psi <- irfftn[rfftn(psi - dt (v - eps - sigma) psi) / (1 + dt (|k|^2/2 + sigma))]

followed by renormalization.  The kinetic term is inverted exactly in
Fourier space, so the step need not shrink like h^2 and the iteration
count does not grow as h shrinks; for every dt its fixed point satisfies
H psi = eps psi for the same spectral operator.  A step costs one rfftn
and one irfftn: the norm and the kinetic part of the next eps come from
the same spectrum (Parseval), and the next eps adds <psi, v psi>.  The
last step's Parseval sum is also the kinetic energy of the outer
iteration's energy and eps, so the only Laplacian per iteration is the
residual's.

The inner steps allocate no array: each relaxation allocates two grid
arrays (-dt v and u = -dt v psi), the real gain, one complex half
spectrum and three partial sums of n floats, and every step runs in them
and in psi, one pass per quantity (u, eps, the explicit half step in
place, the gain, the Parseval power in u's buffer), with the inverse
transform written straight into psi.  Those arrays are freed before the
outer iteration's padded convolution, and so are the previous s and,
after the two energy sums, rho: no grid array stays alive that nothing
reads again.  The solver's peak memory is set by its first convolution,
while the plan takes the Coulomb kernel's spectrum (the DCT-I of its
octant): 19.4 MB traced at N = 64, where the plane blocks of a
convolution peak at 16.7 MB.

A step runs as pointwise phases by x slabs on the workers of the grid
transforms (see "Workers" in ``fields``), around one ``rfftn`` and one
``irfftn``: u and <psi, u>; the explicit half step; ``rfftn``; the gain
and the Parseval power; ``irfftn``; the renormalization.  Each reduction
(<psi, u>, the mass, the kinetic sum) is one partial sum per x plane, and
the calling thread adds the n partials, so the bytes do not depend on the
number of workers.  The calling thread allocates every array the slabs
write.  Work done once per outer iteration runs on the calling thread
alone, as whole-array numpy in place: the relaxation's setup (v_eff,
sigma, -dt v_eff and the gain), the sign fix, rho = psi^2, the two energy
sums and the Fock residual.  The sign test and the residual's two norms
are summed from one partial per x plane, the energy sums as one
``einsum`` each.  Split over the workers, this work gained nothing
measurable at N = 64, where the four per-step phases do gain.

For a single orbital the exchange acting on the occupied orbital itself
collapses onto the local field s[0,0], so the frozen operator is local:
v_eff = -sum_c Z_c h_c + s[0,0].
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .convolution import ConvolutionPlan
from .errors import ScfDivergedError
from .fields import (
    GridSpec,
    ScalarField,
    _run,
    _slabs,
    _spectral_multiplier,
    irfftn,
    rfftn,
    spectral_laplacian,
)
from .hf import HfFields, MolecularSystem, OrbitalSet, build_p
from .kernels import CoulombKernel, Gaussian, sample

__all__ = ["ScfIteration", "ScfResult", "solve"]

# Each outer iteration takes 4 inner steps.  Outer iterations for
# 12 / 6 / 4 / 3 / 2 steps (L = 12):
#
#     He N = 48      10 / 8 / 7 / 9 / 14
#     He N = 64      10 / 7 / 7 / 9 / 14
#     He N = 96      10 / 7 / 7 / 9 / 13
#     H2 N = 48, 64  10 / 7-8 / 11-12 / 15-16 / 23
#
# Energies agree with the 12-step ones to 1.2e-12.  For He, the system of
# the benchmark and of two of the three shipped SCF configs, 4 steps take
# the fewest outer iterations and the least time within run-to-run noise;
# H2 would prefer 6.  BENCH_28.json holds this sweep.
_INNER_STEPS = 4

# Step of the semi-implicit imaginary-time flow, whatever the grid.  Outer
# iterations for dt = 0.1 / 0.25 / 0.5 / 1 / 2 at 4 inner steps: He N = 64
# 38 / 15 / 7 / 9 / 10, H2 N = 48 60 / 24 / 11 / 7 / 10, at energies equal
# to 1.6e-12.  0.5 is the fastest step for He, and it keeps the explicit
# factor 1 - dt (v - eps - sigma) >= 1 + dt eps positive for eps > -2, so
# a positive orbital stays positive.
_TIME_STEP = 0.5

# Converged means the whole-grid relative Fock residual fell to this.
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ScfIteration:
    iteration: int
    energy: float
    residual: float
    epsilon: float


@dataclass(frozen=True)
class ScfResult:
    orbitals: OrbitalSet
    converged: bool
    iteration_count: int
    history: tuple[ScfIteration, ...]
    final_residual: float
    fields: HfFields
    wall_seconds: float


def solve(system: MolecularSystem, grid: GridSpec, max_iterations: int = 200) -> ScfResult:
    """Fixed-point loop for the n = 1 closed-shell ground state, at most
    ``max_iterations`` outer iterations.

    Each outer iteration freezes v_eff = -sum Z_c h_c + s, with s the
    overlap-Coulomb field of the latest density, relaxes the lowest
    eigenpair (``_INNER_STEPS`` semi-implicit imaginary-time steps, see the
    module docstring) and convolves the new density.  Converged means the
    relative Fock residual ||F psi - eps psi|| / ||F psi|| of the new
    orbital with its new field, over the whole grid, fell to
    ``_TOLERANCE``.  ``final_residual`` is the last iteration's residual,
    inf when no iteration ran.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    system.require_inside(grid)
    t_start = time.perf_counter()
    h = grid.spacing
    h3 = h**3
    shape = grid.shape

    v_nuc = -0.5 * build_p(system, grid).values  # -sum_c Z_c h_c, mollified

    # initial guess: normalized Gaussian at the charge barycenter
    psi = sample(Gaussian(alpha=1.0, center=tuple(system.charge_barycenter())), grid).values.copy()
    psi /= np.sqrt(np.einsum("ijk,ijk->", psi, psi) * h3)

    plan, coulomb = ConvolutionPlan(grid), CoulombKernel()  # one spectrum for every iteration

    def s_of(density):
        return plan.convolve_with_kernel(ScalarField(grid=grid, values=density), coulomb).values

    s = s_of(psi * psi)
    dt = _TIME_STEP
    mult = _spectral_multiplier(grid)  # -|k|^2, cached per grid
    kinetic = -0.5 * (psi * spectral_laplacian(psi, grid)).sum() * h3

    slabs = _slabs(shape[0])  # x rows per worker
    interior = slice(1, (shape[-1] + 1) // 2)  # rFFT columns that count twice

    def relax(psi, s, kinetic):
        """``_INNER_STEPS`` semi-implicit imaginary-time steps on ``psi``, in
        place, with v_eff = v_nuc + s frozen; ``kinetic`` is that of
        ``psi``.  Returns the new psi's kinetic energy, the last step's
        Parseval sum.

        Each step runs as the slab phases of the module docstring around
        ``rfftn`` and ``irfftn``, in w = -dt v_eff, u, the real gain, one
        complex half spectrum and the per-plane partial sums, with eps =
        kinetic + h^3 <psi, v_eff psi> from the partials of <psi, u>, the
        Parseval power in u's buffer, which the explicit half step has
        freed, and imag^2 in psi's, which ``rfftn`` has freed.  The arrays
        are freed on return, before the padded convolution."""
        w = np.add(v_nuc, s)
        sigma = max(0.0, float(w.max()))
        w *= -dt
        gain = np.multiply(mult, 0.5)  # 1 / (1 + dt (sigma - mult / 2))
        np.subtract(sigma, gain, out=gain)
        gain *= dt
        gain += 1.0
        np.divide(1.0, gain, out=gain)
        u = np.empty(shape)
        spec = np.empty(mult.shape, np.complex128)
        power = u.reshape(-1)[: mult.size].reshape(mult.shape)
        imag2 = psi.reshape(-1)[: mult.size].reshape(mult.shape)
        dot, mass, kin = np.empty((3, shape[0]))

        def potential(_, x):
            np.multiply(w[x], psi[x], out=u[x])
            np.einsum("ijk,ijk->i", psi[x], u[x], out=dot[x])

        def explicit(_, x):
            p = psi[x]
            p *= factor
            p += u[x]

        def gain_and_power(_, x):
            # norm and kinetic energy by Parseval on the rFFT half spectrum
            sp, pw = spec[x], power[x]
            sp *= gain[x]
            np.square(sp.real, out=pw)
            pw += np.square(sp.imag, out=imag2[x])
            pw[..., interior] *= 2.0
            pw.sum(axis=(1, 2), out=mass[x])
            np.einsum("ijk,ijk->i", mult[x], pw, out=kin[x])

        def renormalize(_, x):
            p = psi[x]
            p /= scale

        for _ in range(_INNER_STEPS):
            _run(potential, slabs)
            eps = kinetic - dot.sum() / dt * h3
            factor = 1.0 + dt * (eps + sigma)
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                _run(explicit, slabs)
                rfftn(psi, spec)
                _run(gain_and_power, slabs)
                total = mass.sum()
                kinetic = -0.5 * kin.sum() / total
            if not np.isfinite(total) or total == 0.0:
                raise ScfDivergedError("imaginary-time propagation diverged: the orbital norm "
                                      "is not a finite positive number")
            scale = np.sqrt(total * h3 / psi.size)
            irfftn(spec, psi)
            _run(renormalize, slabs)
        return kinetic

    def fock_residual(psi, s, eps):
        """Relative Fock residual ||F psi - eps psi|| / ||F psi|| of ``psi``
        with its own field; each squared norm is summed from one partial
        per x plane.  Its two grid arrays are freed on return, before the
        next padded convolution."""
        f_psi = spectral_laplacian(psi, grid)
        f_psi *= -0.5
        v = np.add(v_nuc, s)
        v *= psi
        f_psi += v
        den = np.sqrt(np.einsum("ijk,ijk->i", f_psi, f_psi).sum() * h3)
        f_psi -= np.multiply(psi, eps, out=v)
        num = np.sqrt(np.einsum("ijk,ijk->i", f_psi, f_psi).sum() * h3)
        return num / den if den > 0 else 0.0

    def density(psi):
        """rho = psi^2, after fixing the global sign of ``psi`` in place (sum
        psi >= 0, summed from one partial per x plane, for reproducible
        output)."""
        if np.sum(psi, axis=(1, 2)).sum() < 0:
            np.negative(psi, out=psi)
        return psi * psi

    history: list[ScfIteration] = []
    eps = 0.0
    residual = np.inf

    for iteration in range(1, max_iterations + 1):
        kinetic = relax(psi, s, kinetic)
        rho = density(psi)
        del s  # nothing reads it again: its memory is free for the convolution
        s = s_of(rho)

        v_nuc_1 = 2.0 * np.einsum("ijk,ijk->", rho, v_nuc) * h3
        hartree = np.einsum("ijk,ijk->", rho, s) * h3
        del rho
        energy = 2.0 * kinetic + v_nuc_1 + hartree
        eps = kinetic + 0.5 * v_nuc_1 + hartree  # Rayleigh quotient of the new field

        residual = fock_residual(psi, s, eps)
        history.append(ScfIteration(iteration, float(energy), float(residual), float(eps)))
        if residual <= _TOLERANCE:
            break

    # the fields of the returned orbital from what the loop holds: -2 v_nuc
    # is p exactly, and s is the last convolution of this psi's density
    final_fields = HfFields(p=ScalarField(grid=grid, values=-2.0 * v_nuc),
                            s=((ScalarField(grid=grid, values=s),),))
    return ScfResult(
        orbitals=OrbitalSet(orbitals=(ScalarField(grid=grid, values=psi),),
                            energies=(float(eps),)),
        converged=bool(residual <= _TOLERANCE),
        iteration_count=len(history),
        history=tuple(history),
        final_residual=float(residual),
        fields=final_fields,
        wall_seconds=time.perf_counter() - t_start,
    )
