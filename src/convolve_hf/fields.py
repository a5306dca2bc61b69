"""Uniform cubic grids and sampled scalar fields.

The grid covers the cube [-L, L]^3 with n nodes per axis at
x_i = -L + i*h, h = 2L/n (the origin is a node for even n).  A field's
values are stored as a C-ordered (n, n, n) array indexed ``values[i, j, k]``
for the point (x_i, y_j, z_k).  Fields are real float64: the closed-shell
Hamiltonian is real, so its orbitals and every field built from them can
be taken real.  Quadrature assigns every node the weight h^3.  The grid
transforms of the spectral Laplacian and the SCF are one ``rfftn`` /
``irfftn`` pair of one-axis ``numpy.fft`` passes; their private forms
``_rfftn_into`` / ``_irfftn_into`` write into given arrays, so the SCF's
inner steps transform in place.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import GridMismatchError, NonFiniteError, SupportWarning

__all__ = [
    "GridSpec",
    "ScalarField",
    "integrate",
    "norm",
    "inner",
    "laplacian",
    "rfftn",
    "irfftn",
    "spectral_laplacian",
    "outer_shell_mass_fraction",
]


@dataclass(frozen=True)
class GridSpec:
    """Cubic grid: ``points_per_axis`` nodes per axis on [-extent, extent]^3."""

    points_per_axis: int
    extent: float

    def __post_init__(self):
        n, L = self.points_per_axis, self.extent
        if n < 8 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 8, got {n}")
        if not (L > 0 and np.isfinite(L)):
            raise ValueError(f"extent must be a positive finite real, got {L}")
        h = 2.0 * L / n
        if not 0.0 < h * h * h < np.inf:
            raise ValueError(f"extent {L:g} gives a cell volume h^3 outside the float range")

    @property
    def spacing(self) -> float:
        return 2.0 * self.extent / self.points_per_axis

    @property
    def shape(self) -> tuple[int, int, int]:
        n = self.points_per_axis
        return (n, n, n)

    def axis_coordinates(self) -> np.ndarray:
        return -self.extent + self.spacing * np.arange(self.points_per_axis)

    def radius_squared(self, center=(0.0, 0.0, 0.0)) -> np.ndarray:
        x = self.axis_coordinates()
        cx, cy, cz = center
        return (
            (x - cx)[:, None, None] ** 2
            + (x - cy)[None, :, None] ** 2
            + (x - cz)[None, None, :] ** 2
        )

    def nearest_node(self, point) -> tuple[int, int, int]:
        n = self.points_per_axis
        idx = np.rint((np.asarray(point, dtype=float) + self.extent) / self.spacing)
        return tuple(int(np.clip(i, 0, n - 1)) for i in idx)

    def contains(self, point) -> bool:
        return bool(np.all(np.abs(np.asarray(point, dtype=float)) <= self.extent))


@dataclass(frozen=True)
class ScalarField:
    """Function sampled on a :class:`GridSpec`.

    Values are validated to be real and finite on construction and
    stored as float64 (a complex array whose imaginary part is all zero
    is accepted); all operations below return new fields, so instances
    can be shared freely across threads.
    """

    grid: GridSpec
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals):
            if vals.imag.any():
                raise ValueError("field values must be real")
            vals = vals.real
        vals = np.ascontiguousarray(vals, np.float64)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.isfinite(vals).all():
            raise NonFiniteError("field values must be finite (no NaN/Inf)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid=grid, values=np.zeros(grid.shape))

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(grid=self.grid, values=values)

    # -- field algebra ------------------------------------------------

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return self.with_values(self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _require_same_grid(self, other)
            return self.with_values(self.values * other.values)
        return self.with_values(self.values * other)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return self.with_values(-self.values)


def _require_same_grid(f: ScalarField, g: ScalarField):
    if f.grid != g.grid:
        raise GridMismatchError(f"grids differ: {f.grid} vs {g.grid}")


def integrate(f: ScalarField) -> float:
    """Quadrature of ``f`` over the box: sum of values times h^3."""
    return float(f.values.sum() * f.grid.spacing**3)


def norm(f: ScalarField, p: float = 2) -> float:
    """Discrete L_p norm for p in {1, 2, inf}."""
    if p == np.inf:
        return float(np.abs(f.values).max(initial=0.0))
    h3 = f.grid.spacing**3
    if p == 1:
        return float(np.abs(f.values).sum() * h3)
    if p == 2:
        return float(np.sqrt((f.values**2).sum() * h3))
    raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or inf")


def inner(f: ScalarField, g: ScalarField) -> float:
    """<f, g> = integral of f * g."""
    _require_same_grid(f, g)
    # not a BLAS dot, whose sum depends on the thread count
    return float(np.einsum("ijk,ijk->", f.values, g.values) * f.grid.spacing**3)


@lru_cache(maxsize=8)
def _spectral_multiplier(grid: GridSpec) -> np.ndarray:
    """-4 pi^2 |omega|^2 on the rFFT frequency grid, shared read-only."""
    h = grid.spacing
    kx = np.fft.fftfreq(grid.points_per_axis, d=h)
    kz = np.fft.rfftfreq(grid.points_per_axis, d=h)
    mult = -4.0 * np.pi**2 * (
        kx[:, None, None] ** 2 + kx[None, :, None] ** 2 + kz[None, None, :] ** 2
    )
    mult.flags.writeable = False
    return mult


def rfftn(values: np.ndarray) -> np.ndarray:
    """3-D DFT of a real (n, n, n) array, (n, n, n//2 + 1): a real
    transform along z, then complex ones along x and y, the passes of
    ``scipy.fft.rfftn``, so the result is its bits (``numpy.fft.rfftn``
    takes y before x and differs in the last bits)."""
    half = values.shape[:-1] + (values.shape[-1] // 2 + 1,)
    return _rfftn_into(values, np.empty(half, np.complex128))


def irfftn(spec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`rfftn` for a real (n, n, n) array: unscaled
    inverse transforms along x and y, then the real one along z, then one
    scaling by 1/n^3.  The passes and the single scaling are those of
    ``scipy.fft.irfftn``, so the result is its bits.  ``spec`` is left
    as it is."""
    return _irfftn_into(spec.copy(), np.empty((n, n, n)))


def _rfftn_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`rfftn` of ``values`` written into the complex (n, n, n//2 + 1)
    array ``out``, which is returned; no other array is allocated."""
    np.fft.rfft(values, out=out)
    np.fft.fft(out, axis=0, out=out)
    return np.fft.fft(out, axis=1, out=out)


def _irfftn_into(spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`irfftn` of ``spec`` written into the real (n, n, n) array
    ``out``, which is returned.  The x and y passes run in ``spec``, so it
    is overwritten; no other array is allocated."""
    np.fft.ifft(spec, axis=0, norm="forward", out=spec)
    np.fft.ifft(spec, axis=1, norm="forward", out=spec)
    np.fft.irfft(spec, n=out.shape[-1], norm="forward", out=out)
    out *= 1.0 / out.size
    return out


def spectral_laplacian(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Spectral (periodic) Laplacian of a real (n, n, n) array on ``grid``."""
    spec = rfftn(values)
    spec *= _spectral_multiplier(grid)
    return _irfftn_into(spec, np.empty(grid.shape))


def laplacian(f: ScalarField, method: str = "spectral") -> ScalarField:
    """Discrete Laplacian of ``f``.

    ``finite_difference_2nd`` is the 7-point stencil with periodic wrap;
    ``spectral`` multiplies by -4*pi^2*|omega|^2 in the Fourier domain.
    Both treat the box periodically, so callers must keep the field's
    support away from the boundary (see :func:`outer_shell_mass_fraction`).
    """
    if method == "finite_difference_2nd":
        v = f.values
        out = -6.0 * v
        for ax in range(3):
            out += np.roll(v, 1, axis=ax) + np.roll(v, -1, axis=ax)
        return f.with_values(out * (1.0 / f.grid.spacing**2))
    if method == "spectral":
        frac = outer_shell_mass_fraction(f)
        if frac > 0.01:
            warnings.warn(
                f"{frac:.1%} of the field's L2 mass lies in the outer 10% shell; "
                "the periodic spectral Laplacian may be inaccurate",
                SupportWarning,
                stacklevel=2,
            )
        return f.with_values(spectral_laplacian(f.values, f.grid))
    raise ValueError(f"unknown laplacian method {method!r}")


@lru_cache(maxsize=8)
def _outer_shell_mask(grid: GridSpec) -> np.ndarray:
    """Nodes of the outer 10% shell of the box, shared read-only."""
    x = np.abs(grid.axis_coordinates())
    edge = 0.9 * grid.extent
    shell = (
        (x[:, None, None] >= edge)
        | (x[None, :, None] >= edge)
        | (x[None, None, :] >= edge)
    )
    shell.flags.writeable = False
    return shell


def outer_shell_mass_fraction(f: ScalarField) -> float:
    """Fraction of the L2 mass in the outer 10% shell of the box."""
    dens = f.values * f.values
    total = dens.sum()
    if total == 0.0:
        return 0.0
    return float(dens[_outer_shell_mask(f.grid)].sum() / total)
