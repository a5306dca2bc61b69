"""Closed-form kernels and test functions.

All kinds are radially symmetric about a center: the Coulomb kernel
1/|x|, its shifts, the half-space Poisson kernel for three space
dimensions and its second height-derivative, Gaussians (unit-mass
densities, unit-L2 basis members, and plain-amplitude windows), and the
normalized Slater 1s orbital.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import GridSpec, ScalarField

__all__ = [
    "COULOMB_CELL_MEAN",
    "AnalyticFunction",
    "CoulombKernel",
    "PoissonKernel",
    "PoissonDt2Kernel",
    "Gaussian",
    "GaussianLaplacian",
    "Slater1s",
    "sample",
    "basis_function",
]

# Mean of 1/|s| over a unit cube centered on the singularity, computed by
# reducing the cube to six pyramids: (3/2) * Int_{[-1/2,1/2]^2} du dv /
# sqrt(u^2+v^2+1/4), evaluated with adaptive quadrature to 1e-13 and
# cross-checked by midpoint refinement.  The mean over a cell of side h
# is this constant divided by h.
COULOMB_CELL_MEAN = 2.3800773639795536


def _poisson_value(r2, t):
    return t / (np.pi**2 * (t * t + r2) ** 2)


def _poisson_dt2(r2, t):
    q = t * t + r2
    return (-12.0 * t * q + 24.0 * t**3) / (np.pi**2 * q**4)


def _require_positive(name, value):
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite real, got {value}")


@dataclass(frozen=True)
class AnalyticFunction:
    """Base for radial closed-form functions; frozen, hashable, pure."""

    center: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not np.all(np.isfinite(self.center)):
            raise ValueError(f"center must be finite, got {self.center}")

    #: kernels with a non-integrable point value at the center
    singular = False

    def evaluate_r2(self, r2: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x, y, z):
        cx, cy, cz = self.center
        r2 = (np.asarray(x) - cx) ** 2 + (np.asarray(y) - cy) ** 2 + (np.asarray(z) - cz) ** 2
        return self.evaluate_r2(r2)


@dataclass(frozen=True)
class CoulombKernel(AnalyticFunction):
    """h_c(x) = 1/|x - center|."""

    singular = True

    def evaluate_r2(self, r2):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sqrt(r2)

    def singular_cell_mean(self, h: float) -> float:
        return COULOMB_CELL_MEAN / h


@dataclass(frozen=True)
class PoissonKernel(AnalyticFunction):
    """P_t(x) = pi^-2 t (t^2 + |x|^2)^-2, the d=3 upper-half-space kernel."""

    t: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require_positive("t", self.t)

    def evaluate_r2(self, r2):
        return _poisson_value(r2, self.t)

    def laplacian_r2(self, r2):
        # harmonic in (x, t): spatial Laplacian is minus the t-second-derivative
        return -_poisson_dt2(r2, self.t)


@dataclass(frozen=True)
class PoissonDt2Kernel(AnalyticFunction):
    """Second t-derivative of P_t.

    d2/dt2 P_t = pi^-2 [ -12 t (t^2+|x|^2)^-3 + 24 t^3 (t^2+|x|^2)^-4 ],
    re-derived symbolically and cross-checked against centered finite
    differences of P_t in the test suite.
    """

    t: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require_positive("t", self.t)

    def evaluate_r2(self, r2):
        return _poisson_dt2(r2, self.t)


@dataclass(frozen=True)
class Gaussian(AnalyticFunction):
    """amplitude * exp(-alpha |x - center|^2).

    With the default ``amplitude=None`` the prefactor is (alpha/pi)^(3/2),
    the unit-mass density normalization.
    """

    alpha: float = 1.0
    amplitude: float | None = None

    def __post_init__(self):
        super().__post_init__()
        _require_positive("alpha", self.alpha)

    @property
    def prefactor(self) -> float:
        if self.amplitude is None:
            return (self.alpha / np.pi) ** 1.5
        return self.amplitude

    def evaluate_r2(self, r2):
        return self.prefactor * np.exp(-self.alpha * r2)

    def laplacian(self) -> "GaussianLaplacian":
        return GaussianLaplacian(center=self.center, alpha=self.alpha,
                                 amplitude=self.prefactor)


@dataclass(frozen=True)
class GaussianLaplacian(AnalyticFunction):
    """Closed-form Laplacian of a Gaussian: A (4 a^2 r^2 - 6 a) e^{-a r^2}."""

    alpha: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        _require_positive("alpha", self.alpha)

    def evaluate_r2(self, r2):
        a = self.alpha
        return self.amplitude * (4 * a * a * r2 - 6 * a) * np.exp(-a * r2)


@dataclass(frozen=True)
class Slater1s(AnalyticFunction):
    """Normalized hydrogenic ground state pi^(-1/2) e^{-|x - center|}."""

    def evaluate_r2(self, r2):
        return np.exp(-np.sqrt(r2)) / np.sqrt(np.pi)


def sample(f: AnalyticFunction, grid: GridSpec) -> ScalarField:
    """Pointwise node evaluation of ``f``.

    Singular kinds get the analytic cell-average value at the node
    nearest the center, provided the center lies within one cell of it.
    """
    r2 = grid.radius_squared(f.center)
    vals = f.evaluate_r2(r2)
    if f.singular:
        idx = grid.nearest_node(f.center)
        if np.sqrt(r2[idx]) < grid.spacing:
            vals = np.array(vals)
            vals[idx] = f.singular_cell_mean(grid.spacing)
    return ScalarField(grid=grid, values=vals)


def basis_function(k: int, alpha0: float, beta: float) -> Gaussian:
    """k-th member of the even-tempered family: unit-L2 Gaussian with
    exponent alpha0 * beta^k."""
    _require_positive("alpha0", alpha0)
    if not (beta > 1 and np.isfinite(beta)):
        raise ValueError(f"beta must exceed 1, got {beta}")
    a = alpha0 * beta**k
    return Gaussian(alpha=a, amplitude=(2 * a / np.pi) ** 0.75)
