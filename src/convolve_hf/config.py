"""Plain key-value run configuration.

One ``key = value`` per line, ``#`` starts a comment, unknown keys are
rejected, and every numeric key is validated against the module
preconditions before any computation starts.  Nuclei are listed as
semicolon-separated ``Z,x,y,z`` quadruples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .fields import GridSpec
from .hf import MolecularSystem
from . import scf

__all__ = ["RunConfig", "parse_config", "load_config"]

_RESIDUAL_SOURCES = ("scf", "hydrogen_identity", "zero")


@dataclass(frozen=True)
class RunConfig:
    grid_n: int = 64
    grid_extent: float = 10.0
    nuclei: tuple = ((2.0, (0.0, 0.0, 0.0)),)
    scf_max_iter: int = 200
    poisson_t_values: tuple[float, ...] = (0.8, 0.4, 0.2, 0.1)
    window_alpha: float = 1.0
    basis_alpha0: float = 0.1
    basis_beta: float = 3.0
    basis_count: int = 6
    masking_radius_cells: float = 2.0
    output_dir: str = "out"
    residuals_source: str = "scf"
    residuals_t: float = 0.25

    def grid(self) -> GridSpec:
        return GridSpec(points_per_axis=self.grid_n, extent=self.grid_extent)

    def system(self) -> MolecularSystem:
        margin = self.masking_radius_cells * self.grid().spacing
        return MolecularSystem(nuclei=self.nuclei, regular_set_margin=margin)

    def validated(self) -> "RunConfig":
        """Trigger every module-level precondition; raise ConfigError on any."""
        for key, (attr, _) in _KEYS.items():
            value = getattr(self, attr)
            if not all(math.isfinite(x) for x in _floats_in(value)):
                raise ConfigError(f"{key}: cannot parse {str(value)!r} (not a finite number)")
        if self.grid_n < 8 or self.grid_n % 2:
            raise ConfigError(f"grid.n must be even and at least 8, got {self.grid_n}")
        if self.masking_radius_cells <= 0:
            raise ConfigError("masking.radius_cells must be positive")
        if self.masking_radius_cells > self.grid_n:
            raise ConfigError(f"masking.radius_cells must be at most grid.n = {self.grid_n}, "
                              f"got {self.masking_radius_cells:g}")
        if self.scf_max_iter < 0:
            raise ConfigError(f"scf.max_iter must be nonnegative, got {self.scf_max_iter}")
        try:
            grid = self.grid()
            system = self.system()
            system.require_inside(grid)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.residuals_source not in _RESIDUAL_SOURCES:
            raise ConfigError(f"residuals.source must be one of {_RESIDUAL_SOURCES}")
        if not all(t > 0 for t in self.poisson_t_values):
            raise ConfigError("poisson.t_values must be positive")
        for t in self.poisson_t_values:
            # extend-sweep differentiates in t with the spacing t/8
            if not _finite_positive_inverse_square(t / 8.0):
                raise ConfigError(f"poisson.t_values: {t:g} is too small or too large "
                                  f"(1/(t/8)^2 must be a finite positive number)")
        if self.window_alpha <= 0:
            raise ConfigError("window.alpha must be positive")
        if self.window_alpha * grid.spacing**2 > 100.0:
            raise ConfigError(f"window.alpha * h^2 must be at most 100 (h = {grid.spacing:g}), "
                              f"got window.alpha = {self.window_alpha:g}")
        if self.basis_alpha0 <= 0:
            raise ConfigError("basis.alpha0 must be positive")
        if self.basis_beta <= 1.0:
            raise ConfigError("basis.beta must exceed 1")
        if self.basis_count < 1:
            raise ConfigError("basis.count must be >= 1")
        # the last basis member has the largest exponent and amplitude
        try:
            a = self.basis_alpha0 * self.basis_beta ** (self.basis_count - 1)
            amplitude = (2.0 * a / math.pi) ** 0.75
        except OverflowError:
            a = amplitude = math.inf
        if not (math.isfinite(a) and math.isfinite(amplitude)):
            raise ConfigError(f"basis.alpha0 * basis.beta^(basis.count - 1) must be a finite "
                              f"exponent with a finite amplitude (2a/pi)^(3/4), got "
                              f"basis.alpha0 = {self.basis_alpha0:g}, basis.beta = "
                              f"{self.basis_beta:g}, basis.count = {self.basis_count}")
        if self.residuals_t <= 0:
            raise ConfigError("residuals.t must be positive")
        if self.residuals_t > 4.0 * self.grid_extent:
            raise ConfigError(f"residuals.t must be at most 4 * grid.extent = "
                              f"{4.0 * self.grid_extent:g} (the padded box width), "
                              f"got {self.residuals_t:g}")
        return self

    def orders(self) -> tuple[int, ...]:
        """Truncation orders of ``expand``: the even ladder up to basis.count."""
        if self.basis_count == 1:
            return (1,)
        return tuple(range(2, self.basis_count + 1, 2))


def _floats_in(value) -> list[float]:
    """The floats of a config value, nested tuples flattened."""
    if isinstance(value, tuple):
        return [x for v in value for x in _floats_in(v)]
    return [value] if isinstance(value, float) else []


def _finite_positive_inverse_square(d: float) -> bool:
    """True when 1/d^2 is a finite positive float."""
    try:
        return 0.0 < d**-2 < math.inf
    except OverflowError:
        return False


def _nuclei(raw: str):
    out = []
    for chunk in raw.split(";"):
        if chunk.strip():
            parts = chunk.split(",")
            if len(parts) != 4:
                raise ValueError(f"expected 'Z,x,y,z', got {chunk.strip()!r}")
            z, x, y, zz = (float(p) for p in parts)
            out.append((z, (x, y, zz)))
    if not out:
        raise ValueError("no nuclei given")
    return tuple(out)


def _floats(raw: str):
    return tuple(float(p) for p in raw.split(",") if p.strip())


# config key -> (RunConfig field, converter); a converter raises ValueError
_KEYS = {
    "grid.n": ("grid_n", int),
    "grid.extent": ("grid_extent", float),
    "system.nuclei": ("nuclei", _nuclei),
    "scf.max_iter": ("scf_max_iter", int),
    "poisson.t_values": ("poisson_t_values", _floats),
    "window.alpha": ("window_alpha", float),
    "basis.alpha0": ("basis_alpha0", float),
    "basis.beta": ("basis_beta", float),
    "basis.count": ("basis_count", int),
    "masking.radius_cells": ("masking_radius_cells", float),
    "output.dir": ("output_dir", str),
    "residuals.source": ("residuals_source", str),
    "residuals.t": ("residuals_t", float),
}

# keys that set nothing: each accepts only the value the program uses, and
# stays only because generated benchmark configs write it
_FIXED = {
    "system.pairs": 1,  # the SCF solves one orbital
    "scf.eigensolver": "imaginary_time",
    "scf.mixing": scf._MIXING,
    "scf.tol_energy": scf._ENERGY_TOLERANCE,
    "scf.tol_orbital": scf._ORBITAL_TOLERANCE,
    "scf.time_step": scf._TIME_STEP,  # also written auto
}


def _check_fixed(key: str, raw: str):
    """Raise ConfigError unless ``raw`` spells the one value of ``key``."""
    value = _FIXED[key]
    if key == "scf.time_step" and raw.lower() == "auto":
        return
    try:
        if type(value)(raw) == value:
            return
    except ValueError:
        pass
    spelled = f"auto or {value}" if key == "scf.time_step" else f"{value}"
    raise ConfigError(f"{key} accepts only {spelled}, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in _FIXED:
            _check_fixed(key, raw)
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, convert = _KEYS[key]
        try:
            updates[attr] = convert(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc
    return replace(RunConfig(), **updates).validated()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())
