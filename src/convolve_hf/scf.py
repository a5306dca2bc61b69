"""Self-consistent field solver for one doubly occupied orbital.

The outer loop rebuilds the mean field from the density of the latest
orbital, unmixed, and the inner loop relaxes the lowest eigenpair of the
frozen one-particle operator in that field.  The loop stops on the defect
of the fixed point itself: the masked relative Fock residual
||F psi - eps psi|| / ||F psi|| of the new orbital with its own field.
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

The inner steps allocate nothing: each relaxation allocates two grid
arrays (-dt v and u = -dt v psi), the real gain and one complex half
spectrum, and every step runs in them and in psi, one pass per quantity
(u, eps, the explicit half step in place, the gain, the Parseval power
in a buffer the forward transform has freed), with the inverse transform
written straight into psi.  Those arrays are freed before the outer
iteration's padded convolution, which sets the solver's peak memory.

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
    _spectral_multiplier,
    irfftn,
    rfftn,
    spectral_laplacian,
)
from .hf import (
    HfFields,
    MolecularSystem,
    OrbitalSet,
    build_p,
    nuclear_mask,
)
from .kernels import CoulombKernel, Gaussian, sample

__all__ = ["ScfIteration", "ScfResult", "solve"]

# Each outer iteration takes 4 inner steps.  Outer iterations for
# 12 / 6 / 4 / 3 / 2 steps (L = 12):
#
#     He N = 48      10 / 7 / 7 / 10 / 15
#     He N = 64      10 / 7 / 7 /  9 / 14
#     He N = 96      10 / 7 / 7 /  9 / 13
#     H2 N = 48, 64  10 / 8 / 12 / 15-16 / 23-24
#
# Energies agree with the 12-step ones to 1.1e-12.  For He, the system of
# the benchmark and of two of the three shipped SCF configs, 4 steps take
# the fewest outer iterations and the least time within run-to-run noise;
# H2 would prefer 6.  BENCH_25.json holds the solve times of this sweep.
_INNER_STEPS = 4

# Step of the semi-implicit imaginary-time flow, whatever the grid.  Outer
# iterations for dt = 0.1 / 0.25 / 0.5 / 1 / 2 at 4 inner steps: He N = 64
# 39 / 15 / 7 / 9 / 10, H2 N = 48 62 / 24 / 12 / 7 / 10, at energies equal
# to 7e-13.  0.5 is the fastest step for He, and it keeps the explicit
# factor 1 - dt (v - eps - sigma) >= 1 + dt eps positive for eps > -2, so
# a positive orbital stays positive.
_TIME_STEP = 0.5

# Converged means the masked relative Fock residual fell to this.
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
    masked relative Fock residual of the new orbital with its new field
    fell to ``_TOLERANCE``.  ``final_residual`` is the last iteration's
    residual, inf when no iteration ran.
    """
    if max_iterations < 0:
        raise ValueError(f"max_iterations must be nonnegative, got {max_iterations}")
    system.require_inside(grid)
    t_start = time.perf_counter()
    h = grid.spacing
    h3 = h**3
    shape = grid.shape

    v_nuc = -0.5 * build_p(system, grid).values  # -sum_c Z_c h_c, mollified

    def l2(arr):
        return np.sqrt(np.einsum("ijk,ijk->", arr, arr) * h3)

    # initial guess: normalized Gaussian at the charge barycenter
    guess = sample(Gaussian(alpha=1.0, center=tuple(system.charge_barycenter())), grid)
    psi = guess.values.copy()
    psi /= l2(psi)

    plan, coulomb = ConvolutionPlan(grid), CoulombKernel()  # one spectrum for every iteration

    def s_of(density):
        return plan.convolve_with_kernel(ScalarField(grid=grid, values=density), coulomb).values

    s = s_of(psi * psi)
    dt = _TIME_STEP
    mult = _spectral_multiplier(grid)  # -|k|^2, cached per grid
    kinetic = -0.5 * (psi * spectral_laplacian(psi, grid)).sum() * h3

    def relax(psi, s, kinetic):
        """``_INNER_STEPS`` semi-implicit imaginary-time steps on ``psi``, in
        place, with v_eff = v_nuc + s frozen; ``kinetic`` is that of
        ``psi``.  Returns the new psi's kinetic energy, the last step's
        Parseval sum.

        A call allocates two grid arrays, w = -dt v_eff and u, the real
        gain and one complex half spectrum, and each step runs in them and
        in psi, one pass per quantity: u = w psi; eps = kinetic +
        h^3 <psi, v_eff psi> from one reduction of psi against u; the
        explicit half step psi <- (1 + dt (eps + sigma)) psi + u in place;
        the forward transform of psi into the spectrum and the gain; the
        Parseval power in u's buffer, which the transform has freed, with
        imag^2 in psi's; the inverse transform straight into psi.  The
        arrays are freed on return, before the padded convolution, which
        sets the solver's peak memory."""
        w = v_nuc + s
        sigma = max(0.0, float(w.max()))
        w *= -dt
        gain = 1.0 / (1.0 + dt * (sigma - 0.5 * mult))
        u = np.empty(shape)
        spec = np.empty(mult.shape, np.complex128)
        power = u.reshape(-1)[: mult.size].reshape(mult.shape)
        imag2 = psi.reshape(-1)[: mult.size].reshape(mult.shape)
        for _ in range(_INNER_STEPS):
            np.multiply(w, psi, out=u)
            eps = kinetic - np.einsum("ijk,ijk->", psi, u) / dt * h3
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                psi *= 1.0 + dt * (eps + sigma)
                psi += u
                rfftn(psi, spec)
                spec *= gain
                # norm and kinetic energy by Parseval on the rFFT half
                # spectrum, whose interior columns count twice
                np.square(spec.real, out=power)
                power += np.square(spec.imag, out=imag2)
                power[..., 1 : (shape[-1] + 1) // 2] *= 2.0
                mass = power.sum()
                kinetic = -0.5 * np.einsum("ijk,ijk->", mult, power) / mass
            if not np.isfinite(mass) or mass == 0.0:
                raise ScfDivergedError("imaginary-time propagation diverged: the orbital norm "
                                      "is not a finite positive number")
            irfftn(spec, psi)
            psi /= np.sqrt(mass * h3 / psi.size)
        return kinetic

    keep = nuclear_mask(grid, system)
    history: list[ScfIteration] = []
    eps = 0.0
    residual = np.inf

    for iteration in range(1, max_iterations + 1):
        kinetic = relax(psi, s, kinetic)
        if psi.sum() < 0:  # fix the global sign for reproducible output
            np.negative(psi, out=psi)
        rho = psi * psi
        s = s_of(rho)

        v_nuc_1 = 2.0 * np.einsum("ijk,ijk->", rho, v_nuc) * h3
        hartree = np.einsum("ijk,ijk->", rho, s) * h3
        energy = 2.0 * kinetic + v_nuc_1 + hartree
        eps = kinetic + 0.5 * v_nuc_1 + hartree  # Rayleigh quotient of the new field

        # masked relative Fock residual of psi with its own field
        f_psi = -0.5 * spectral_laplacian(psi, grid) + (v_nuc + s) * psi
        den = l2(np.where(keep, f_psi, 0.0))
        residual = l2(np.where(keep, f_psi - eps * psi, 0.0)) / den if den > 0 else 0.0
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
