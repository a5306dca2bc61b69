"""Self-consistent field solver for one doubly occupied orbital.

The outer loop rebuilds the mean field from the current density, the
inner loop relaxes the lowest eigenpair of the frozen one-particle
operator, and linear density mixing damps the feedback.  Because the
overlap-Coulomb convolution is linear, mixing densities is implemented
by mixing the convolved fields directly, so each outer iteration costs a
single padded convolution plus the inner-loop transforms.  The loop works
on plain real arrays; a diverging inner relaxation raises
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
iteration's energy and eps, so no separate Laplacian is taken per
iteration.

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

# Each outer iteration takes 4 inner steps, the smallest count at which He
# keeps the outer count of 12 steps on every grid.  Outer iterations at
# mixing 0.6 for 12 / 6 / 4 / 3 / 2 steps:
#
#     He N = 48      11 / 11 / 11 / 12 / 14
#     He N = 64      11 / 11 / 11 / 12 / 13
#     He N = 96      11 / 11 / 11 / 12 / 13
#     H2 N = 48, 64  12 / 12-13 / 14 / 15 / 21
#
# Energies agree with the 12-step ones to 2e-12 and the final residual
# stays within 3e-7 to 2e-6.  Below 4 steps the outer count climbs and the
# solve time stops falling steadily; BENCH_9.json holds the solve times of
# this sweep.
_INNER_STEPS = 4

# Step of the semi-implicit imaginary-time flow, whatever the grid.  On He
# (L = 12, N = 48/64/96) and H2 (N = 48), dt = 0.1 needs 13-19 outer
# iterations and dt = 0.5, 1 and 2 all need 11-12, at the same energies:
# past 0.5 the linear mixing, not the inner loop, sets the count.  0.5 is
# the smallest step on that plateau, and it keeps the explicit factor
# 1 - dt (v - eps - sigma) >= 1 + dt eps positive for eps > -2, so a
# positive orbital stays positive.
_TIME_STEP = 0.5

# Share of the new overlap-Coulomb field in the mixed one.  It sets the
# outer count once the inner loop has reached the plateau above: 11-12
# outer iterations for He at N = 48/64/96.
_MIXING = 0.6

# Converged means the energy change and the L2 change of the orbital
# between outer iterations both fell below these.  At the stop the masked
# relative Fock residual is 3e-7 to 2e-6 on He and H2.
_ENERGY_TOLERANCE = 1e-7
_ORBITAL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class ScfIteration:
    iteration: int
    energy: float
    orbital_change: float
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

    Each outer iteration freezes v_eff = -sum Z_c h_c + s_mixed, relaxes
    the lowest eigenpair (``_INNER_STEPS`` semi-implicit imaginary-time
    steps, see the module docstring), then mixes the overlap-Coulomb
    field linearly.  The mixing, not the inner relaxation, sets the outer
    count, so four inner steps reach the 12-step solution in as many
    outer iterations for He (see ``_INNER_STEPS``).  Converged means
    both the energy change and the orbital change fell below their
    tolerances.
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

    s_mix = s_of(psi * psi)
    dt = _TIME_STEP
    mult = _spectral_multiplier(grid)  # -|k|^2, cached per grid
    kinetic = -0.5 * (psi * spectral_laplacian(psi, grid)).sum() * h3

    def relax(psi, s_mix, kinetic):
        """``_INNER_STEPS`` semi-implicit imaginary-time steps on ``psi``, in
        place, with v_eff = v_nuc + s_mix frozen; ``kinetic`` is that of
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
        w = v_nuc + s_mix
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

    history: list[ScfIteration] = []
    converged = False
    e_prev = None
    psi_prev = psi.copy()
    eps = 0.0
    iteration = 0

    for iteration in range(1, max_iterations + 1):
        kinetic = relax(psi, s_mix, kinetic)
        if psi.sum() < 0:  # fix the global sign for reproducible output
            np.negative(psi, out=psi)
        rho_new = psi * psi
        s_new = s_of(rho_new)

        v_nuc_1 = 2.0 * np.einsum("ijk,ijk->", rho_new, v_nuc) * h3
        hartree = np.einsum("ijk,ijk->", rho_new, s_new) * h3
        energy = 2.0 * kinetic + v_nuc_1 + hartree
        eps = kinetic + 0.5 * v_nuc_1 + hartree  # Rayleigh quotient of the new field

        psi_prev -= psi
        orbital_change = l2(psi_prev)
        np.copyto(psi_prev, psi)
        history.append(
            ScfIteration(
                iteration=iteration,
                energy=float(energy),
                orbital_change=float(orbital_change),
                epsilon=float(eps),
            )
        )

        de = abs(energy - e_prev) if e_prev is not None else np.inf
        e_prev = energy
        if de <= _ENERGY_TOLERANCE and orbital_change <= _ORBITAL_TOLERANCE:
            converged = True
            break
        s_mix = (1.0 - _MIXING) * s_mix
        s_mix += _MIXING * s_new

    psi_field = ScalarField(grid=grid, values=psi)
    if history:  # eps is the Rayleigh quotient of psi with v_nuc + s_new
        f_psi = -0.5 * spectral_laplacian(psi, grid) + (v_nuc + s_new) * psi
        keep = nuclear_mask(grid, system)
        resid = np.where(keep, f_psi - eps * psi, 0.0)
        den = l2(np.where(keep, f_psi, 0.0))
        final_residual = l2(resid) / den if den > 0 else 0.0
    else:
        final_residual = np.inf
    # the fields of the returned orbital from what the loop holds: -2 v_nuc
    # is p exactly, and s is the last convolution of this psi's density
    s_final = ScalarField(grid=grid, values=s_new if history else s_mix)
    final_fields = HfFields(p=ScalarField(grid=grid, values=-2.0 * v_nuc), s=((s_final,),))
    return ScfResult(
        orbitals=OrbitalSet(orbitals=(psi_field,), energies=(float(eps),)),
        converged=converged,
        iteration_count=len(history),
        history=tuple(history),
        final_residual=float(final_residual),
        fields=final_fields,
        wall_seconds=time.perf_counter() - t_start,
    )
