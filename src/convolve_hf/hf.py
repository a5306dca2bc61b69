"""Closed-shell Hartree-Fock data model and field functionals.

For an orbital set {psi_a} and nuclei {(Z_c, xi_c)} the fields are

    p(x) = 2 sum_c Z_c / |x - xi_c|
    s[a,c](x) = [(psi_c psi_a) * 1/|.|](x)
    q(x) = 4 sum_c s[c,c](x)

and the strong residual of the transformed eigenvalue equation is

    R_a = lap(psi_a) + (p - q + 2 eps_a) psi_a + 2 sum_c s[a,c] psi_c,

masked inside a small radius around each nucleus where the equation is
singular.  ``equation_terms`` assembles the pointwise terms psi_a,
(p - q + 2 eps_a) psi_a and sum_c s[a,c] psi_c once; the strong residual
and both convolution-transformed residuals are built from them.
``energies`` and ``check_orbital_bounds`` take the ``HfFields`` of the
orbital set they evaluate and never convolve on their own.  Nucleus
count and orbital count are independent here even though the source
equations index both by the same letter.  Orbitals and fields are real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convolution import ConvolutionPlan
from .errors import GridMismatchError
from .fields import GridSpec, ScalarField, inner, laplacian, norm
from .kernels import CoulombKernel, sample

__all__ = [
    "S_SUP_BOUND",
    "L2_SQUARE_BOUND",
    "MolecularSystem",
    "OrbitalSet",
    "HfFields",
    "build_p",
    "build_overlap_fields",
    "build_fields",
    "nuclear_mask",
    "equation_terms",
    "strong_terms",
    "strong_residual",
    "EnergyReport",
    "energies",
    "coulomb_square_integral",
    "BoundCheckReport",
    "check_orbital_bounds",
]

#: hard sup bound on every overlap-Coulomb field: 2 sqrt(pi) + 1
S_SUP_BOUND = 2.0 * np.sqrt(np.pi) + 1.0
#: hard bound on int |psi(s)|^2 / |s - eta|^2 ds for normalized, sup-bounded psi
L2_SQUARE_BOUND = 4.0 * np.pi + 1.0

# Mean of 1/|s|^2 over a unit cube centered on the singularity,
# 3 * Int_{[-1/2,1/2]^2} du dv / (u^2+v^2+1/4); used by the fallback
# quadrature of coulomb_square_integral.
_INV_SQUARE_CELL_MEAN = 7.674124222443732

# x planes per chunk of coulomb_square_integral; its two chunk buffers
# hold 16 planes, 1/3 of a grid array at N = 48.
_CHUNK_PLANES = 8


def _kronecker(count: int, dim: int) -> np.ndarray:
    """The (count, dim) array of u_i = frac(1/2 + i a), i = 1..count: Roberts'
    closed-form low-discrepancy sequence in [0, 1)^dim, a_k = phi^-k, where
    phi^(dim + 1) = phi + 1 (the golden ratio for dim = 1)."""
    phi = 2.0
    for _ in range(64):  # a contraction onto the root
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    # in plain floats: as numpy arrays, these raised the scf peak RSS by 0.1 MB
    return np.array([[(0.5 + i * phi**-k) % 1.0 for k in range(1, dim + 1)]
                     for i in range(1, count + 1)])


@dataclass(frozen=True)
class MolecularSystem:
    """Nuclei (charge, position).

    ``regular_set_margin`` is the exclusion radius around each nucleus used
    when masking singular quantities; ``None`` defers to 2h of the grid in
    use.
    """

    nuclei: tuple[tuple[float, tuple[float, float, float]], ...]
    regular_set_margin: float | None = None

    def __post_init__(self):
        nuclei = tuple((float(z), tuple(float(c) for c in pos)) for z, pos in self.nuclei)
        object.__setattr__(self, "nuclei", nuclei)
        if len(nuclei) == 0:
            raise ValueError("at least one nucleus required")
        if any(z <= 0 for z, _ in nuclei):
            raise ValueError("all nuclear charges must be positive")
        positions = [pos for _, pos in nuclei]
        if len({pos for pos in positions}) != len(positions):
            raise ValueError("nuclei positions must be distinct")
        if self.regular_set_margin is not None and self.regular_set_margin <= 0:
            raise ValueError("regular_set_margin must be positive")

    def charge_barycenter(self) -> np.ndarray:
        zs = np.array([z for z, _ in self.nuclei])
        pos = np.array([p for _, p in self.nuclei])
        return (zs[:, None] * pos).sum(axis=0) / zs.sum()

    def margin_for(self, grid: GridSpec) -> float:
        return self.regular_set_margin or 2.0 * grid.spacing

    def require_inside(self, grid: GridSpec):
        for z, pos in self.nuclei:
            if not grid.contains(pos):
                raise ValueError(f"nucleus Z={z} at {pos} lies outside the box")


_ORTHO_TOL = 1e-6
_SUP_TOL = 1.0 + 1e-6


@dataclass(frozen=True)
class OrbitalSet:
    """n orbitals with their energies.

    Orthonormality (within 1e-6) is enforced on construction unless
    ``validate=False`` (used for deliberately degenerate inputs such as
    the zero orbital).  The unit sup bound assumed by the bound checks is
    recorded in ``sup_bounded`` rather than enforced: converged orbitals
    legitimately exceed 1 at nuclei.
    """

    orbitals: tuple[ScalarField, ...]
    energies: tuple[float, ...]
    validate: bool = True
    sup_bounded: bool = field(init=False)

    def __post_init__(self):
        orbitals = tuple(self.orbitals)
        energies = tuple(float(e) for e in self.energies)
        object.__setattr__(self, "orbitals", orbitals)
        object.__setattr__(self, "energies", energies)
        if len(orbitals) == 0 or len(orbitals) != len(energies):
            raise ValueError("need one energy per orbital")
        grid = orbitals[0].grid
        if any(o.grid != grid for o in orbitals):
            raise GridMismatchError("all orbitals must share one grid")
        if self.validate:
            for a, fa in enumerate(orbitals):
                for c in range(a, len(orbitals)):
                    ov = inner(fa, orbitals[c])
                    target = 1.0 if a == c else 0.0
                    if abs(ov - target) > _ORTHO_TOL:
                        raise ValueError(
                            f"orbitals not orthonormal: <psi_{a}, psi_{c}> = {ov:.3e}"
                        )
        object.__setattr__(
            self, "sup_bounded", all(norm(o, np.inf) <= _SUP_TOL for o in orbitals)
        )

    @property
    def grid(self) -> GridSpec:
        return self.orbitals[0].grid

    def __len__(self) -> int:
        return len(self.orbitals)


@dataclass(frozen=True)
class HfFields:
    """p and the n x n s fields of one orbital set; q = 4 sum_c s[c,c] is derived.

    The sum leaves out every all-zero s[c,c], which keeps each bit of a
    nonzero sum (x + 0.0 = x).  When every s[c,c] is zero (a source
    without two-electron terms), q is s[0][0] itself, shared read-only,
    so no zero array is written for it.
    """

    p: ScalarField
    s: tuple[tuple[ScalarField, ...], ...]
    q: ScalarField = field(init=False)

    def __post_init__(self):
        diagonal = [self.s[c][c].values for c in range(self.n) if self.s[c][c].values.any()]
        q = self.p.with_values(4.0 * sum(diagonal)) if diagonal else self.s[0][0]
        object.__setattr__(self, "q", q)

    @property
    def n(self) -> int:
        return len(self.s)

    def s_sup_max(self) -> float:
        return max(norm(self.s[a][c], np.inf) for a in range(self.n) for c in range(self.n))


def build_p(system: MolecularSystem, grid: GridSpec) -> ScalarField:
    """Nuclear field 2 sum_c Z_c h_{xi_c}, mollified at nuclear nodes."""
    system.require_inside(grid)
    total = np.zeros(grid.shape)
    for z, pos in system.nuclei:
        total = total + 2.0 * z * sample(CoulombKernel(center=pos), grid).values
    return ScalarField(grid=grid, values=total)


def build_overlap_fields(orbitals: OrbitalSet) -> tuple[tuple[ScalarField, ...], ...]:
    """The n x n matrix of s fields s[a,c] = [(psi_c psi_a) * h], on one
    plan that samples the Coulomb kernel once for all orbital pairs;
    s[a,c] = s[c,a] by construction (only the upper triangle is
    convolved)."""
    plan = ConvolutionPlan(orbitals.grid)
    n = len(orbitals)
    s = [[None] * n for _ in range(n)]
    for a in range(n):
        for c in range(a, n):
            product = orbitals.orbitals[c] * orbitals.orbitals[a]
            s[a][c] = plan.convolve_with_kernel(product, CoulombKernel())
            if c != a:
                s[c][a] = s[a][c]
    return tuple(tuple(row) for row in s)


def build_fields(system: MolecularSystem, orbitals: OrbitalSet) -> HfFields:
    """Assemble p and all s fields (see :func:`build_overlap_fields`)."""
    return HfFields(p=build_p(system, orbitals.grid), s=build_overlap_fields(orbitals))


def nuclear_mask(grid: GridSpec, system: MolecularSystem) -> np.ndarray:
    """Boolean array, True outside the excluded nuclear neighborhoods
    (radius ``system.margin_for(grid)``)."""
    margin = system.margin_for(grid)
    keep = np.ones(grid.shape, dtype=bool)
    for _, pos in system.nuclei:
        keep &= grid.radius_squared(pos) > margin**2
    return keep


def equation_terms(
    a: int, orbitals: OrbitalSet, fields: HfFields
) -> tuple[ScalarField, ScalarField, ScalarField]:
    """The pointwise terms of the eigenvalue equation for orbital ``a``:
    psi_a, (p - q + 2 eps_a) psi_a and sum_c s[a,c] psi_c.

    The exchange sum leaves out every all-zero s[a,c], which keeps each
    bit of a nonzero sum; when every s[a,c] is zero, the exchange term is
    s[a][0] itself, shared read-only, and no product is computed."""
    if fields.n != len(orbitals):
        raise ValueError("fields were built from a different orbital count")
    psi_a = orbitals.orbitals[a]
    local = (fields.p.values - fields.q.values + 2.0 * orbitals.energies[a]) * psi_a.values
    pairs = [(s_ac, psi_c) for s_ac, psi_c in zip(fields.s[a], orbitals.orbitals)
             if s_ac.values.any()]
    exchange = (psi_a.with_values(sum(s_ac.values * psi_c.values for s_ac, psi_c in pairs))
                if pairs else fields.s[a][0])
    return psi_a, psi_a.with_values(local), exchange


def strong_terms(
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    system: MolecularSystem,
    method: str = "spectral",
) -> tuple[ScalarField, ScalarField, ScalarField]:
    """lap psi_a, (p - q + 2 eps_a) psi_a and 2 sum_c s[a,c] psi_c, each
    zeroed inside the nuclear exclusion radius; they sum to the strong
    residual."""
    psi_a, local, exchange = equation_terms(a, orbitals, fields)
    keep = nuclear_mask(psi_a.grid, system)
    return tuple(
        t.with_values(np.where(keep, t.values, 0.0))
        for t in (laplacian(psi_a, method=method), local, 2.0 * exchange)
    )


def strong_residual(
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    system: MolecularSystem,
    method: str = "spectral",
) -> ScalarField:
    """Pointwise residual of the transformed eigenvalue equation for
    orbital ``a``, zeroed inside the nuclear exclusion radius."""
    lap_term, local, exchange = strong_terms(a, orbitals, fields, system, method=method)
    return lap_term + local + exchange


@dataclass(frozen=True)
class EnergyReport:
    kinetic: float
    potential: float
    total: float
    virial_ratio: float


def energies(orbitals: OrbitalSet, fields: HfFields) -> EnergyReport:
    """Closed-shell electronic energies (occupancy 2 per orbital).

    kinetic = sum_a 2 <psi_a, -1/2 lap psi_a>; the potential assembles
    nuclear attraction, Hartree and exchange from the p, q, s of
    ``fields``, which must be those of ``orbitals`` (``build_fields``, or
    the fields an SCF result carries).  The virial ratio |V| / (2 T)
    equals 1 for exact stationary solutions.
    """
    h3 = orbitals.grid.spacing**3
    kinetic = 0.0
    v_nuc = 0.0
    v_hartree = 0.0
    v_exchange = 0.0
    for a, psi in enumerate(orbitals.orbitals):
        dens = psi.values**2
        kinetic += -inner(psi, laplacian(psi, method="spectral"))
        v_nuc += -(dens * fields.p.values).sum() * h3
        v_hartree += 0.5 * (dens * fields.q.values).sum() * h3
        for c, psi_c in enumerate(orbitals.orbitals):
            pair = psi.values * psi_c.values * fields.s[a][c].values
            v_exchange += -pair.sum() * h3
    potential = v_nuc + v_hartree + v_exchange
    total = kinetic + potential
    virial = abs(potential) / (2.0 * kinetic) if kinetic > 0 else np.nan
    return EnergyReport(kinetic=kinetic, potential=potential, total=total, virial_ratio=virial)


def coulomb_square_integral(psi: ScalarField, eta) -> float:
    """int |psi(s)|^2 / |s - eta|^2 ds on the grid.

    The integrable 1/r^2 singularity is handled by subtracting a
    cusp-matched profile A e^{-2 kappa r} whose integral against 1/r^2 is
    2 pi A / kappa exactly; kappa is the radial log-slope of |psi|^2
    measured from the nodes adjacent to eta, and A is |psi|^2 at the
    nearest node, a distance r0 from eta, times e^{2 kappa r0}.  For a
    Slater-type orbital centred at eta the remainder vanishes identically.
    Falls back to a plain mollified sum when no usable local fit exists
    (tiny density, non-decaying profile, eta outside the box, or an
    amplitude beyond the float range).

    Memory: one grid array, the integrand, filled by chunks of
    ``_CHUNK_PLANES`` x planes in two chunk buffers, before one whole-array
    sum.  Each node's integrand is computed by the operations of the
    whole-grid formula, in its order, so the result keeps its bits.
    """
    grid = psi.grid
    h = grid.spacing
    n = grid.points_per_axis
    # squared offsets per axis; r^2 at (i, j, k) is (sx[i] + sy[j]) + sz[k],
    # summed in the order of GridSpec.radius_squared
    sx, sy, sz = ((grid.axis_coordinates() - float(c)) ** 2 for c in eta)
    j0 = grid.nearest_node(eta)

    def dens_r(node):
        """|psi|^2 and r at a node."""
        i, j, k = node
        return float(np.square(psi.values[node])), float(np.sqrt((sx[i] + sy[j]) + sz[k]))

    A, r0 = dens_r(j0)
    kappa = None
    nmax = n - 1
    if A > 1e-280 and all(0 < i < nmax for i in j0):
        slopes = []
        for ax in range(3):
            for step in (-1, 1):
                jn = list(j0)
                jn[ax] += step
                v, rn = dens_r(tuple(jn))
                if v > 1e-280 and rn > r0:
                    slopes.append(np.log(A / v) / (2.0 * (rn - r0)))
        if slopes:
            k = float(np.mean(slopes))
            if np.isfinite(k) and 1e-3 <= k <= 1e3:
                with np.errstate(over="ignore"):
                    peak = A * np.exp(2.0 * k * r0)  # the profile at eta, not at r0
                    if np.isfinite(peak * 2.0 * np.pi / k):
                        kappa, A = k, peak

    integrand = np.empty(grid.shape)
    r2_chunk, dens_chunk = np.empty((2, _CHUNK_PLANES, n, n))
    for start in range(0, n, _CHUNK_PLANES):
        x = slice(start, min(start + _CHUNK_PLANES, n))
        count = x.stop - x.start
        r2, d, out = r2_chunk[:count], dens_chunk[:count], integrand[x]
        np.add(sx[x, None, None], sy[None, :, None], out=r2)
        r2 += sz
        with np.errstate(divide="ignore"):
            np.divide(1.0, r2, out=out)  # the weight w = 1/r^2
        if x.start <= j0[0] < x.stop:
            out[(j0[0] - x.start,) + j0[1:]] = 0.0
        np.square(psi.values[x], out=d)
        if kappa is not None:  # remainder = dens - A e^{-2 kappa r}
            np.sqrt(r2, out=r2)
            r2 *= -2.0 * kappa
            np.exp(r2, out=r2)
            r2 *= A
            d -= r2
        out *= d

    if kappa is None:
        # plain mollified sum: cell mean of 1/r^2 at the singular node
        total = float(integrand.sum() * h**3)
        total += A * _INV_SQUARE_CELL_MEAN / (h * h) * h**3
        return total
    return float(integrand.sum() * h**3 + A * 2.0 * np.pi / kappa)


@dataclass(frozen=True)
class BoundCheckReport:
    """Observed extrema versus the two hard bounds L2_SQUARE_BOUND and
    S_SUP_BOUND."""

    max_l2_square: float
    max_s_sup: float
    l2_square_values: tuple[tuple[int, tuple[float, float, float], float], ...]
    preconditions_met: bool

    @property
    def l2_ok(self) -> bool:
        return self.max_l2_square <= L2_SQUARE_BOUND

    @property
    def s_ok(self) -> bool:
        return self.max_s_sup <= S_SUP_BOUND

    @property
    def all_ok(self) -> bool:
        return self.l2_ok and self.s_ok


def check_orbital_bounds(
    orbitals: OrbitalSet,
    system: MolecularSystem,
    fields: HfFields,
) -> BoundCheckReport:
    """Verify the overlap-field sup bound on ``fields`` (those of
    ``orbitals``) and the weighted-L2 bound at the nuclei plus 10 points
    of the central half of the box, low + (high - low) u for the first 10
    points u of the three-dimensional ``_kronecker`` sequence."""
    low, high = -0.5 * orbitals.grid.extent, 0.5 * orbitals.grid.extent
    points = [pos for _, pos in system.nuclei]
    points += [tuple(low + (high - low) * u) for u in _kronecker(10, 3)]
    normalized = all(abs(norm(o, 2) - 1.0) < 1e-3 for o in orbitals.orbitals)
    rows = []
    for a, psi in enumerate(orbitals.orbitals):
        for eta in points:
            rows.append((a, tuple(float(c) for c in eta), coulomb_square_integral(psi, eta)))
    return BoundCheckReport(
        max_l2_square=max(v for _, _, v in rows),
        max_s_sup=fields.s_sup_max(),
        l2_square_values=tuple(rows),
        preconditions_met=bool(normalized and orbitals.sup_bounded),
    )
