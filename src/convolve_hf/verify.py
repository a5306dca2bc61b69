"""Invariant suite behind the ``verify`` command.

Each check pins one verified claim to a numeric bound at the configured
scale.  Check ids are stable wire-format names (they appear in
verify_results.csv); the README states the mathematical content of each
claim.  Failures carry the offending value, never a truncated retelling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .convolution import ConvolutionPlan
from .extension import boundary_convergence, extend, harmonicity_residual, sup_bound_check
from .fields import GridSpec, ScalarField, norm
from .hf import L2_SQUARE_BOUND, S_SUP_BOUND, coulomb_square_integral
from .kernels import CoulombKernel, Gaussian, PoissonKernel, Slater1s, sample
from .residuals import laplacian_convolution_symmetry_defect

__all__ = ["CheckResult", "run_verify"]


@dataclass(frozen=True)
class CheckResult:
    check: str
    value: float
    bound: float
    passed: bool
    detail: str = ""


def _gaussian_field(grid: GridSpec, alpha: float, amplitude=None) -> ScalarField:
    return sample(Gaussian(alpha=alpha, amplitude=amplitude), grid)


def _normalized(f: ScalarField) -> ScalarField:
    return f * (1.0 / norm(f, 2))


def run_verify(config: RunConfig) -> list[CheckResult]:
    grid = config.grid()
    h = grid.spacing
    plan = ConvolutionPlan(grid)
    results: list[CheckResult] = []

    # Coulomb oracle: unit Gaussian density against erf(sqrt(a) r)/r
    alpha = 1.0
    density = _gaussian_field(grid, alpha)
    potential = plan.convolve_with_kernel(density, CoulombKernel())
    r = np.sqrt(grid.radius_squared())
    # erf once per distinct radius: the grid's symmetry repeats each many times
    radii, where = np.unique(np.sqrt(alpha) * r, return_inverse=True)
    erf = np.array([math.erf(x) for x in radii])[where].reshape(r.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = np.where(r > 1e-12, erf / np.where(r > 0, r, 1.0), 2.0 * np.sqrt(alpha / np.pi))
    rel_inf = float(np.abs(potential.values - exact).max() / np.abs(exact).max())
    results.append(CheckResult("coulomb_oracle", rel_inf, 0.01, rel_inf <= 0.01))
    center = grid.nearest_node((0, 0, 0))
    center_rel = abs(potential.values[center] - 2 * np.sqrt(alpha / np.pi)) / (
        2 * np.sqrt(alpha / np.pi)
    )
    results.append(CheckResult("coulomb_center_limit", center_rel, 0.01, center_rel <= 0.01))

    # overlap-field sup bound (hard) on a normalized sup-bounded orbital,
    # with the Coulomb spectrum of the oracle above
    psi = _normalized(_gaussian_field(grid, 0.5, amplitude=1.0))
    s_sup = norm(plan.convolve_with_kernel(psi * psi, CoulombKernel()), np.inf)
    results.append(CheckResult("eq5_s_sup_bound", s_sup, S_SUP_BOUND, s_sup <= S_SUP_BOUND))

    # weighted-L2 bound and its Slater oracle (radial value 2)
    slater = _normalized(sample(Slater1s(), grid))
    i_slater = coulomb_square_integral(slater, (0.0, 0.0, 0.0))
    i_gauss = coulomb_square_integral(psi, (0.0, 0.0, 0.0))
    worst = max(i_slater, i_gauss)
    results.append(
        CheckResult("thm1_l2_bound", worst, L2_SQUARE_BOUND, worst <= L2_SQUARE_BOUND)
    )
    slater_err = abs(i_slater - 2.0) / 2.0
    results.append(
        CheckResult("thm1_slater_oracle", slater_err, 0.005, slater_err <= 0.005,
                    detail=f"value {i_slater:.8f}")
    )

    # Laplacian-convolution symmetry on a Gaussian pair
    f = _gaussian_field(grid, 1.0, amplitude=1.0)
    g = _gaussian_field(grid, 2.0, amplitude=1.0)
    defect = laplacian_convolution_symmetry_defect(f, g)
    results.append(CheckResult("thm2_symmetry", defect, 1e-6, defect <= 1e-6))

    # interior harmonicity of a Poisson extension (resolved triple)
    t0 = max(0.5, 3.0 * h)
    delta = max(0.05, 0.5 * h)
    base = _gaussian_field(grid, 1.0, amplitude=1.0)
    _, hdef = harmonicity_residual(base, t0, delta)
    results.append(CheckResult("thm3a_harmonicity", hdef, 0.05, hdef <= 0.05,
                               detail=f"t={t0:g} delta={delta:g}"))

    # boundary convergence ladder and the two sup bounds
    wide = _gaussian_field(grid, 0.05, amplitude=1.0)
    heights = tuple(sorted(set(config.poisson_t_values) | {2.0}))
    ext = extend(wide, heights)
    distances = [d for _, d in sorted(boundary_convergence(ext))]  # increasing t
    strictly_decreasing = all(d2 < d1 for d1, d2 in zip(distances[1:], distances[:-1]))
    final_rel = distances[0] / norm(wide, 2)
    ladder_ok = strictly_decreasing and final_rel <= 0.05
    results.append(
        CheckResult("thm4c_boundary_l2", final_rel, 0.05, ladder_ok,
                    detail="strictly decreasing" if strictly_decreasing else
                    "ladder not strictly decreasing")
    )
    sup_report = sup_bound_check(ext)
    sup_ok = sup_report.precondition_met and sup_report.paper_bound_ok and sup_report.unit_bound_ok
    detail = "; ".join(sup_report.violations()) or "both bounds hold"
    results.append(
        CheckResult("thm4b_sup_bound", sup_report.worst_margin, 0.0,
                    sup_ok, detail=detail)
    )

    # semigroup of the Poisson family at a resolved height
    t_semi = max(0.5, 1.1 * 2.0 * h)
    half = sample(PoissonKernel(t=t_semi), grid)
    composed = plan.convolve_fields(half, half)
    target = sample(PoissonKernel(t=2.0 * t_semi), grid)
    semi = norm(composed - target, np.inf) / norm(target, np.inf)
    results.append(CheckResult("semigroup", semi, 0.02, semi <= 0.02,
                               detail=f"t={t_semi:g}"))

    # padded FFT equals direct summation on a tiny grid
    small = GridSpec(points_per_axis=8, extent=1.0)
    small_plan = ConvolutionPlan(small)
    rng = np.random.default_rng(42)
    inner_mask = np.zeros(small.shape)
    inner_mask[2:6, 2:6, 2:6] = 1.0
    fa = ScalarField(grid=small, values=rng.standard_normal(small.shape) * inner_mask)
    fb = ScalarField(grid=small, values=rng.standard_normal(small.shape) * inner_mask)
    fast = small_plan.convolve_fields(fa, fb).values
    brute = _direct_convolution(fa, fb)
    bferr = float(np.abs(fast - brute).max())
    results.append(CheckResult("conv_bruteforce", bferr, 1e-10, bferr <= 1e-10))

    # discrete Young bound on seeded random fields
    ga = ScalarField(grid=small, values=rng.standard_normal(small.shape))
    gb = ScalarField(grid=small, values=rng.standard_normal(small.shape))
    young = norm(small_plan.convolve_fields(ga, gb), np.inf) - norm(ga, np.inf) * norm(gb, 1)
    results.append(CheckResult("young_bound", young, 1e-9, young <= 1e-9))

    return results


def _direct_convolution(f: ScalarField, g: ScalarField) -> np.ndarray:
    """O(N^6) reference: out[o] = h^3 sum_s f[s] g[o - s + n/2], adding one
    shifted slab of g per nonzero source node, in source order."""
    n = f.grid.points_per_axis
    half = n // 2
    out = np.zeros(f.grid.shape)

    def window(s):  # output indices reached from source index s, and g's
        lo, hi = max(0, s - half), min(n, s - half + n)
        return slice(lo, hi), slice(lo - s + half, hi - s + half)

    for s in zip(*np.nonzero(f.values)):
        (oi, gi), (oj, gj), (ok, gk) = (window(int(x)) for x in s)
        out[oi, oj, ok] += f.values[s] * g.values[gi, gj, gk]
    return out * f.grid.spacing**3
