"""Convolution-transformed residuals of the eigenvalue equations.

Two transforms eliminate the Laplacian: convolution with the Poisson
kernel (the height derivative takes over the second derivatives) and
convolution with a smooth window w (the Laplacian moves onto w).  Both
are evaluated per-term so the reports expose which contribution
dominates.  ``poisson_crosscheck`` takes a height-transformed report and
compares it with the strong residual convolved with P_t at the report's
height: the kernel-derivative route and the grid-Laplacian route must
agree.  One helper assembles every transformed residual from one
``hf.equation_terms`` call, convolving each term field once with all its
kernels; an all-zero field is not transformed (``convolve_with_kernel``
returns zero).  A height t below 2h raises :class:`ResolutionError` on
entry, before any term is assembled.

The printed window form that drops the exchange term and the psi_a
factor in the Hartree term is kept as ``window_residual_literal``, a
record of the printed expression that no command evaluates; the asserted
form is the one consistent with convolving the strong equation with w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convolution import (
    ConvolutionPlan,
    resolution_floor,
    under_resolved,
)
from .errors import ResolutionError
from .fields import ScalarField, laplacian, norm
from .hf import HfFields, MolecularSystem, OrbitalSet, equation_terms, strong_residual
from .kernels import Gaussian, PoissonDt2Kernel, PoissonKernel

__all__ = [
    "ResidualReport",
    "laplacian_convolution_symmetry_defect",
    "poisson_transformed_residual",
    "window_transformed_residual",
    "transformed_residuals",
    "window_residual_literal",
    "CrosscheckReport",
    "poisson_crosscheck",
]


@dataclass(frozen=True)
class ResidualReport:
    """Per-term and total norms of one transformed-equation evaluation.

    ``relative`` is the total L2 norm over the largest per-term L2 norm
    (zero when all terms vanish); ``params`` records the transform
    parameter (height t, window, truncation order).
    """

    term_names: tuple[str, ...]
    term_l2: tuple[float, ...]
    term_sup: tuple[float, ...]
    total_l2: float
    total_sup: float
    relative: float
    params: dict
    total_field: ScalarField

    @classmethod
    def from_terms(cls, names, terms, params) -> "ResidualReport":
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        term_l2 = tuple(norm(t, 2) for t in terms)
        scale = max(term_l2)
        total_l2 = norm(total, 2)
        return cls(
            term_names=tuple(names),
            term_l2=term_l2,
            term_sup=tuple(norm(t, np.inf) for t in terms),
            total_l2=total_l2,
            total_sup=norm(total, np.inf),
            relative=total_l2 / scale if scale > 0 else 0.0,
            params=dict(params),
            total_field=total,
        )


def laplacian_convolution_symmetry_defect(f: ScalarField, g: ScalarField) -> float:
    """||(lap f) * g - f * (lap g)||_inf / ||(lap f) * g||_inf with the
    spectral Laplacian; the two sides agree to roundoff for band-limited
    box-supported fields."""
    plan = ConvolutionPlan(f.grid)
    lhs = plan.convolve_fields(laplacian(f), g)
    rhs = plan.convolve_fields(f, laplacian(g))
    den = norm(lhs, np.inf)
    if den == 0.0:
        return 0.0
    return norm(lhs - rhs, np.inf) / den


def require_resolved(t, grid):
    """Raise ResolutionError for a Poisson height t below 2h of ``grid``."""
    if under_resolved(t, grid):
        floor = resolution_floor(grid)
        raise ResolutionError(f"Poisson height t={t:g} below resolution floor 2h={floor:g}")


def require_gaussian_window(w):
    """Raise ValueError unless ``w`` is an origin-centered Gaussian."""
    if not isinstance(w, Gaussian):
        raise ValueError(f"unsupported window kind {type(w).__name__}; use a Gaussian")
    if w.center != (0.0, 0.0, 0.0):
        raise ValueError("window must be centered at the origin")


def _transformed_terms(a, orbitals, fields, psi_kernels, term_kernels, plan=None):
    """Per kernel pair (k_psi, k): psi_a * k_psi, local * k and exchange * k,
    one grouped convolution per term field of one equation-term assembly,
    on ``plan`` (a caller that reuses the kernels holds one) or a new plan."""
    plan = plan or ConvolutionPlan(orbitals.grid)
    psi_a, local, exchange = equation_terms(a, orbitals, fields)
    return tuple(zip(
        plan.convolve_with_kernel(psi_a, psi_kernels),
        plan.convolve_with_kernel(local, term_kernels),
        plan.convolve_with_kernel(exchange, term_kernels),
    ))


def _poisson_report(a, t, dt2, local, exchange) -> ResidualReport:
    return ResidualReport.from_terms(
        ("kernel_dt2", "potential", "exchange"),
        (dt2, -1.0 * local, -2.0 * exchange),
        {"t": t, "orbital": a},
    )


def _window_report(a, w, lap, local, exchange) -> ResidualReport:
    return ResidualReport.from_terms(
        ("kernel_lap", "potential", "exchange"),
        (lap, local, 2.0 * exchange),
        {"window_alpha": w.alpha, "window_amplitude": w.prefactor, "orbital": a},
    )


def poisson_transformed_residual(
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    t: float,
) -> ResidualReport:
    """Height-transformed residual at height t for orbital ``a``:

        psi_a * d2t P_t - [(p - q + 2 eps_a) psi_a] * P_t
                        - 2 sum_c [s[a,c] psi_c] * P_t

    The first term goes through the analytic kernel derivative; vanishes
    for exact solutions.  Heights below 2h are rejected.
    """
    require_resolved(t, orbitals.grid)
    (terms,) = _transformed_terms(a, orbitals, fields, (PoissonDt2Kernel(t=t),),
                                  (PoissonKernel(t=t),))
    return _poisson_report(a, t, *terms)


def window_transformed_residual(
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    w: Gaussian,
) -> ResidualReport:
    """Window-transformed residual (the strong equation convolved with w):

        psi_a * (lap w) + [(p - q + 2 eps_a) psi_a] * w
                        + 2 sum_c [s[a,c] psi_c] * w

    with lap w evaluated in closed form.  Scales linearly with w.
    """
    require_gaussian_window(w)
    (terms,) = _transformed_terms(a, orbitals, fields, (w.laplacian(),), (w,))
    return _window_report(a, w, *terms)


def transformed_residuals(
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    t: float,
    w: Gaussian,
    plan: ConvolutionPlan | None = None,
) -> tuple[ResidualReport, ResidualReport]:
    """:func:`poisson_transformed_residual` at height t and
    :func:`window_transformed_residual` with window w, byte-identical to
    the two calls, from one assembly of the equation terms: each term
    field is forward-transformed once for its P_t-family kernel and its
    window kernel together.  The convolutions run on ``plan`` if given,
    which afterwards keeps only the P_t spectrum, for
    :func:`poisson_crosscheck`: the other three are freed before the
    reports are assembled, as they are with the new plan of a call
    without one.
    """
    require_resolved(t, orbitals.grid)
    require_gaussian_window(w)
    poisson_terms, window_terms = _transformed_terms(
        a, orbitals, fields, (PoissonDt2Kernel(t=t), w.laplacian()), (PoissonKernel(t=t), w),
        plan,
    )
    if plan is not None:
        plan.keep_only(PoissonKernel(t=t))
    return _poisson_report(a, t, *poisson_terms), _window_report(a, w, *window_terms)


def window_residual_literal(
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    w: Gaussian,
) -> ResidualReport:
    """The literal printed window expression, for comparison only:

        psi_a * (lap w) - [(p psi_a) * w] + [q * w] - 2 eps_a [psi_a * w]

    It differs from the consistent form by two signs, a missing psi_a
    factor on the Hartree term, and the absent exchange term; it is never
    asserted against zero.
    """
    require_gaussian_window(w)
    psi_a = orbitals.orbitals[a]
    eps_a = orbitals.energies[a]
    plan = ConvolutionPlan(psi_a.grid)  # one spectrum each for lap w and w
    terms = (
        plan.convolve_with_kernel(psi_a, w.laplacian()),
        -1.0 * plan.convolve_with_kernel(psi_a.with_values(fields.p.values * psi_a.values), w),
        plan.convolve_with_kernel(fields.q, w),
        -2.0 * eps_a * plan.convolve_with_kernel(psi_a, w),
    )
    return ResidualReport.from_terms(
        ("kernel_lap", "nuclear", "hartree", "energy"),
        terms,
        {"window_alpha": w.alpha, "orbital": a, "literal": True},
    )


@dataclass(frozen=True)
class CrosscheckReport:
    """Agreement between the kernel-derivative and grid-Laplacian routes."""

    diff_l2: float
    diff_sup: float
    convolved_strong_l2: float
    convolved_strong_sup: float
    scale: float
    relative: float
    params: dict


def poisson_crosscheck(
    transformed: ResidualReport,
    orbitals: OrbitalSet,
    fields: HfFields,
    system: MolecularSystem,
    method: str = "finite_difference_2nd",
    plan: ConvolutionPlan | None = None,
) -> CrosscheckReport:
    """Compare a height-transformed residual with -(strong residual * P_t).

    ``transformed`` is the report of :func:`poisson_transformed_residual`
    (or the first of :func:`transformed_residuals`); the orbital and the
    height t are read from its params, so the two routes always compare
    the same equation.  The convolution runs on ``plan`` (which may keep
    the P_t spectrum already) or on a new plan.  The relative measure
    divides by max(largest transformed term, ||convolved strong
    residual||): for exact solutions both routes are residual-sized and a
    ratio of the two alone would be noise over noise.
    """
    a, t = transformed.params["orbital"], transformed.params["t"]
    strong = strong_residual(a, orbitals, fields, system, method=method)
    plan = plan or ConvolutionPlan(strong.grid)
    cross = -1.0 * plan.convolve_with_kernel(strong, PoissonKernel(t=t))
    diff_field = transformed.total_field - cross
    cross_l2 = norm(cross, 2)
    diff = norm(diff_field, 2)
    scale = max(max(transformed.term_l2), cross_l2)
    return CrosscheckReport(
        diff_l2=diff,
        diff_sup=norm(diff_field, np.inf),
        convolved_strong_l2=cross_l2,
        convolved_strong_sup=norm(cross, np.inf),
        scale=scale,
        relative=diff / scale if scale > 0 else 0.0,
        params={"t": t, "orbital": a, "laplacian": method},
    )
