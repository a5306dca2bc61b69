"""Harmonic extension of grid fields into the upper half-space.

``extend`` convolves a boundary field with the Poisson kernel at a
ladder of heights t; each slice is one horizontal cut of the harmonic
extension.  The module verifies the extension numerically: interior
harmonicity via a height stencil, L2 boundary convergence of the
slices, and the two sup bounds (the 4/(pi t) bound and the sharper
unit-mass bound).

``harmonicity_residual`` takes the base field, a height t and a step
delta.  By linearity the stencil (u_{t+delta} - 2 u_t + u_{t-delta}) /
delta^2 is one convolution of the base with the second difference of the
kernels, formed on the sampled octants before their single transform; so
each height costs two kernel spectra and one grouped convolution with
two outputs (u_t and the stencil), not three slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import ConvolutionPlan
from .fields import ScalarField, laplacian, norm
from .kernels import PoissonKernel, PoissonSecondDifference

__all__ = [
    "HarmonicExtension",
    "extend",
    "harmonicity_residual",
    "boundary_convergence",
    "SupBoundReport",
    "sup_bound_check",
]


@dataclass(frozen=True)
class HarmonicExtension:
    """A boundary field with slices base * P_t for an increasing height ladder."""

    base: ScalarField
    heights: tuple[float, ...]
    slices: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.heights) != len(self.slices) or not self.heights:
            raise ValueError("one slice per height required")
        if any(t <= 0 for t in self.heights):
            raise ValueError("heights must be positive")
        if any(lo >= hi for lo, hi in zip(self.heights, self.heights[1:])):
            raise ValueError("heights must be strictly increasing")

    def slice_at(self, t: float) -> ScalarField:
        for ti, s in zip(self.heights, self.slices):
            if abs(ti - t) <= 1e-12 * max(1.0, abs(t)):
                return s
        raise KeyError(f"no slice stored at t={t}")


def extend(f: ScalarField, heights) -> HarmonicExtension:
    """Poisson extension of ``f`` at the given heights, all from one
    forward transform of ``f``.

    Heights below the resolution floor 2h are computed with the
    cell-averaged kernel flavor and a ResolutionWarning (the CLI flags
    such rows).
    """
    heights = tuple(float(t) for t in heights)
    if not heights:
        raise ValueError("at least one height required")
    order = np.argsort(heights)
    hs = tuple(heights[i] for i in order)
    slices = ConvolutionPlan(f.grid).convolve_with_kernel(f, tuple(PoissonKernel(t=t) for t in hs))
    return HarmonicExtension(base=f, heights=hs, slices=slices)


def harmonicity_residual(f: ScalarField, t: float, delta: float) -> tuple[ScalarField, float]:
    """The slice u_t = f * P_t and the relative defect of (lap + d2/dt2)
    at height t, ||lap u_t + D * f||_2 / ||lap u_t||_2, exactly 0 for a
    zero base.

    D is the second difference of P in the height with step ``delta``
    (never the analytic kernel derivative, which is validated elsewhere),
    so D * f is the height stencil of the slices at t - delta, t and
    t + delta.  u_t and D * f are one grouped convolution of ``f``; u_t is
    byte-identical to ``extend(f, (t,))``'s slice.  Needs delta > 0 and
    t - delta > 0.
    """
    kernels = (PoissonKernel(t=t), PoissonSecondDifference(t=t, delta=delta))
    u, dtt = ConvolutionPlan(f.grid).convolve_with_kernel(f, kernels)
    lap_u = laplacian(u)
    den = norm(lap_u, 2)
    if den == 0.0:
        return u, 0.0
    return u, norm(lap_u + dtt, 2) / den


def boundary_convergence(ext: HarmonicExtension):
    """L2 distances ||slice_t - base||_2 per height, largest t first."""
    pairs = [(t, norm(s - ext.base, 2)) for t, s in zip(ext.heights, ext.slices)]
    return sorted(pairs, key=lambda ts: -ts[0])


@dataclass(frozen=True)
class SupBoundReport:
    """Per-height sup norms against 4/(pi t) and the unit-mass bound."""

    rows: tuple[tuple[float, float, float], ...]  # (t, sup_norm, 4/(pi t))
    base_sup: float
    precondition_met: bool  # ||base||_inf <= 1

    @property
    def paper_bound_ok(self) -> bool:
        return all(s <= b + 1e-9 for _, s, b in self.rows)

    @property
    def unit_bound_ok(self) -> bool:
        return all(s <= self.base_sup + 1e-9 for _, s, _ in self.rows)

    @property
    def worst_margin(self) -> float:
        """Most negative slack of the 4/(pi t) bound (positive = satisfied)."""
        return min(b - s for _, s, b in self.rows)

    def violations(self) -> list[str]:
        out = []
        if not self.precondition_met:
            out.append(f"precondition ||base||_inf <= 1 violated: {self.base_sup:.6g}")
        for t, s, b in self.rows:
            if s > b + 1e-9:
                out.append(f"t={t:g}: sup {s:.6g} exceeds 4/(pi t) = {b:.6g}")
            if s > self.base_sup + 1e-9:
                out.append(f"t={t:g}: sup {s:.6g} exceeds base sup {self.base_sup:.6g}")
        return out


def sup_bound_check(ext: HarmonicExtension) -> SupBoundReport:
    """Check every stored slice against both sup bounds.

    Violations are reported, never suppressed; the 4/(pi t) form is
    asserted for all heights even where it is weaker than the unit bound.
    """
    base_sup = norm(ext.base, np.inf)
    rows = tuple(
        (t, norm(s, np.inf), 4.0 / (np.pi * t)) for t, s in zip(ext.heights, ext.slices)
    )
    return SupBoundReport(rows=rows, base_sup=base_sup, precondition_met=base_sup <= 1.0 + 1e-9)
