"""Self-consistent field solver for one doubly occupied orbital.

The outer loop rebuilds the mean field from the current density, the
inner loop relaxes the lowest eigenpair of the frozen one-particle
operator, and linear density mixing damps the feedback.  Because the
overlap-Coulomb convolution is linear, mixing densities is implemented
by mixing the convolved fields directly, so each outer iteration costs a
single padded convolution plus the inner-loop transforms.  The loop works
on plain real arrays; a diverging eigensolver raises
:class:`ScfDivergedError`.

The default eigensolver is the normalized gradient flow in imaginary
time with a backward-Euler kinetic term (Bao & Du 2004, SIAM J. Sci.
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

For a single orbital the exchange acting on the occupied orbital itself
collapses onto the local field s[0,0], so the frozen operator is local:
v_eff = -sum_c Z_c h_c + s[0,0].  The public ``apply_fock`` keeps the
full non-local exchange operator (linear and Hermitian) and coincides
with the local form on the occupied orbital.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import fft as sfft

from .convolution import coulomb_convolve
from .errors import ScfDivergedError
from .fields import GridSpec, ScalarField, _spectral_multiplier, laplacian, spectral_laplacian
from .hf import (
    HfFields,
    MolecularSystem,
    OrbitalSet,
    build_p,
    nuclear_mask,
)
from .kernels import Gaussian, sample

__all__ = ["ScfConfig", "ScfIteration", "ScfResult", "apply_fock", "solve"]

_INNER_STEPS = 4
_AUTO_TIME_STEP = 0.5
_CG_TOL = 1e-10


@dataclass(frozen=True)
class ScfConfig:
    """Iteration controls.

    ``time_step`` is the step of the semi-implicit imaginary-time flow;
    ``None`` (``auto`` in a config file) takes the grid-independent
    ``_AUTO_TIME_STEP`` = 0.5.  Measured on He (L = 12, N = 48/64/96)
    and H2 (N = 48), dt = 0.1 needs 13-19 outer iterations and dt = 0.5,
    1 and 2 all need 11-12, at the same energies: past 0.5 the
    linear mixing, not the inner loop, sets the count.  0.5 is the
    smallest step on that plateau, and it keeps the explicit factor
    1 - dt (v - eps - sigma) >= 1 + dt eps positive for eps > -2, so a
    positive orbital stays positive.

    Each outer iteration takes ``_INNER_STEPS`` = 4 inner steps, the
    smallest count at which He keeps the outer count of 12 steps on every
    grid.  Outer iterations (median solve seconds, 2-core host) at mixing
    0.6 for 12 / 6 / 4 / 3 / 2 steps:

        He N = 48      11 / 11 / 11 / 12 / 14   (0.96 -> 0.54 s at 4)
        He N = 64      11 / 11 / 11 / 12 / 13   (2.36 -> 1.26 s at 4)
        He N = 96      11 / 11 / 11 / 12 / 13   (9.1 -> 4.7 s at 4)
        H2 N = 48, 64  12 / 12-13 / 14 / 15 / 21

    Energies agree with the 12-step ones to 2e-12 and the final residual
    stays within 3e-7 to 2e-6.  Below 4 steps the outer count climbs and
    the time stops falling steadily: He gains at most 0.6 s (N = 96), and
    H2 at 2 steps is slower than at 4.
    """

    max_iterations: int = 200
    mixing: float = 0.6
    energy_tolerance: float = 1e-7
    orbital_tolerance: float = 1e-6
    eigensolver: str = "imaginary_time"
    time_step: float | None = None

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be nonnegative")
        if not (0.0 < self.mixing <= 1.0):
            raise ValueError(f"mixing must lie in (0, 1], got {self.mixing}")
        if self.energy_tolerance <= 0 or self.orbital_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.eigensolver not in ("imaginary_time", "inverse_iteration"):
            raise ValueError(f"unknown eigensolver {self.eigensolver!r}")
        if self.time_step is not None and self.time_step <= 0:
            raise ValueError("time_step must be positive")


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

    @property
    def energy_history(self) -> tuple[float, ...]:
        return tuple(it.energy for it in self.history)


def apply_fock(
    psi: ScalarField,
    system: MolecularSystem,
    fields: HfFields,
    orbitals: OrbitalSet,
) -> ScalarField:
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
    for psi_c in orbitals.orbitals:
        overlap = coulomb_convolve(psi_c * psi)
        vals = vals - overlap.values * psi_c.values
    return psi.with_values(vals)


def solve(system: MolecularSystem, grid: GridSpec, config: ScfConfig) -> ScfResult:
    """Fixed-point loop for the n = 1 closed-shell ground state.

    Each outer iteration freezes v_eff = -sum Z_c h_c + s_mixed, relaxes
    the lowest eigenpair (``_INNER_STEPS`` semi-implicit imaginary-time
    steps, see the module docstring, or one shifted inverse-iteration
    solve), then mixes the overlap-Coulomb field linearly.  The mixing,
    not the inner relaxation, sets the outer count, so four inner steps
    reach the 12-step solution in as many outer iterations for He (see
    :class:`ScfConfig`).  Converged means both the energy change and the
    orbital change fell below their tolerances.
    """
    if system.pair_count != 1:
        raise NotImplementedError("multi-orbital SCF is out of scope (n = 1 only)")
    system.require_inside(grid)
    t_start = time.perf_counter()
    h = grid.spacing
    h3 = h**3
    shape = grid.shape

    v_nuc = -0.5 * build_p(system, grid).values  # -sum_c Z_c h_c, mollified

    def l2(arr):
        return np.sqrt((arr * arr).sum() * h3)

    # initial guess: normalized Gaussian at the charge barycenter
    guess = sample(Gaussian(alpha=1.0, center=tuple(system.charge_barycenter())), grid)
    psi = guess.values.copy()
    psi /= l2(psi)

    def s_of(density):
        return coulomb_convolve(ScalarField(grid=grid, values=density)).values

    rho = psi * psi
    s_mix = s_of(rho)
    dt = _AUTO_TIME_STEP if config.time_step is None else config.time_step
    mult = _spectral_multiplier(grid)  # -|k|^2, cached per grid
    kinetic = -0.5 * (psi * spectral_laplacian(psi, grid)).sum() * h3

    def relax(psi, v_eff, kinetic):
        """``_INNER_STEPS`` semi-implicit imaginary-time steps; ``kinetic``
        is that of ``psi``.  Returns the new psi and its kinetic energy,
        the last step's Parseval sum.  The step's arrays are freed on
        return, before the padded convolution, which sets the solver's
        peak memory."""
        sigma = max(0.0, float(v_eff.max()))
        gain = 1.0 / (1.0 + dt * (sigma - 0.5 * mult))
        for _ in range(_INNER_STEPS):
            eps = kinetic + (psi * v_eff * psi).sum() * h3
            with np.errstate(over="ignore", invalid="ignore"):  # reported just below
                spec = sfft.rfftn(psi - dt * (v_eff - (eps + sigma)) * psi)
                spec *= gain
                # norm and kinetic energy by Parseval on the rFFT half
                # spectrum, whose interior columns count twice
                power = np.square(spec.real)
                power += np.square(spec.imag)
                power[..., 1 : (shape[-1] + 1) // 2] *= 2.0
                mass = power.sum()
                kinetic = -0.5 * (mult * power).sum() / mass
            if not np.isfinite(mass) or mass == 0.0:
                raise ScfDivergedError("imaginary-time propagation diverged; reduce time_step")
            psi = sfft.irfftn(spec, s=shape)
            psi /= np.sqrt(mass * h3 / psi.size)
        return psi, kinetic

    history: list[ScfIteration] = []
    converged = False
    e_prev = None
    psi_prev = psi.copy()
    eps = 0.0
    iteration = 0

    for iteration in range(1, config.max_iterations + 1):
        v_eff = v_nuc + s_mix

        if config.eigensolver == "imaginary_time":
            psi, kinetic = relax(psi, v_eff, kinetic)
        else:  # inverse_iteration
            from scipy.sparse import linalg as spla
            shift = kinetic + (psi * v_eff * psi).sum() * h3 - 1.0
            op = spla.LinearOperator(
                (psi.size, psi.size),
                matvec=lambda v: (
                    -0.5 * spectral_laplacian(v.reshape(shape), grid)
                    + (v_eff - shift) * v.reshape(shape)
                ).ravel(),
            )
            precond_mul = 1.0 / (-0.5 * mult + max(1.0, -shift))
            precond = spla.LinearOperator(
                (psi.size, psi.size),
                matvec=lambda v: sfft.irfftn(
                    sfft.rfftn(v.reshape(shape)) * precond_mul, s=shape
                ).ravel(),
            )
            sol, info = spla.cg(op, psi.ravel(), rtol=_CG_TOL, maxiter=400, M=precond)
            if info != 0:
                raise ScfDivergedError(f"inverse-iteration CG failed to converge (info={info})")
            psi = sol.reshape(shape)
            psi /= l2(psi)
            kinetic = -0.5 * (psi * spectral_laplacian(psi, grid)).sum() * h3

        if psi.sum() < 0:  # fix the global sign for reproducible output
            psi = -psi
        rho_new = psi * psi
        s_new = s_of(rho_new)

        v_nuc_1 = 2.0 * (rho_new * v_nuc).sum() * h3
        hartree = (rho_new * s_new).sum() * h3
        energy = 2.0 * kinetic + v_nuc_1 + hartree
        eps = kinetic + 0.5 * v_nuc_1 + hartree  # Rayleigh quotient of the new field

        orbital_change = l2(psi - psi_prev)
        psi_prev = psi.copy()
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
        s_mix = (1.0 - config.mixing) * s_mix + config.mixing * s_new
        if de <= config.energy_tolerance and orbital_change <= config.orbital_tolerance:
            converged = True
            break

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
