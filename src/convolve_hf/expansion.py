"""Truncated basis expansions and their transformed residual ladders.

Orbitals are projected onto the leading members of an even-tempered
Gaussian family by least squares on the grid (normal equations through
the Gram matrix).  For each truncation order n the projection keeps the
truncated orbitals T[n,a], their fit errors and a uniform L2 bound K on
the truncations; it runs no convolution.  The residual ladders evaluate
the two transformed residuals of :mod:`convolve_hf.residuals` with
(T, r) in place of (psi, s), one order at a time: the overlap-Coulomb
fields r[n,a,c] of each truncation are built when its order is reached
(zero when every s of the source is zero), and
:class:`~convolve_hf.hf.HfFields` derives the Hartree sum
q_n = 4 sum_c r[n,c,c].  As the fit improves the residual norms must not
grow.  The two per-term ladders report every term; the combined ladder
of the ``expand`` command keeps only the norms of the two totals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .convolution import ConvolutionPlan
from .errors import IllConditionedBasisError
from .fields import ScalarField, inner, norm
from .hf import HfFields, OrbitalSet, build_overlap_fields, equation_terms
from .kernels import Gaussian, PoissonDt2Kernel, PoissonKernel, sample
from .residuals import (
    ResidualReport,
    poisson_transformed_residual,
    require_gaussian_window,
    require_resolved,
    window_transformed_residual,
)

__all__ = ["ExpansionState", "LadderTotals", "project_orbitals", "expansion_poisson_residuals",
           "expansion_window_residuals", "expansion_transformed_residuals"]

GRAM_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ExpansionState:
    """Least-squares truncations of an orbital set over a fixed basis."""

    orders: tuple[int, ...]
    truncations: dict   # order -> tuple of ScalarField per orbital
    fit_errors: dict    # order -> tuple of ||T - psi||_2 per orbital
    k_bound: float
    gram_condition: float


def project_orbitals(
    orbitals: OrbitalSet,
    basis,
    orders,
) -> ExpansionState:
    """Project every orbital onto the first n basis members for each order n.

    Solves the symmetric positive-definite normal equations per order, so
    the fit errors are non-increasing in n.  Rejects bases whose Gram
    matrix condition number exceeds 1e12.
    """
    basis = tuple(basis)
    orders = tuple(sorted(set(int(n) for n in orders)))
    if not basis or not orders:
        raise ValueError("need at least one basis function and one order")
    if max(orders) > len(basis):
        raise ValueError(f"order {max(orders)} exceeds basis size {len(basis)}")
    grid = orbitals.grid
    sampled = [sample(b, grid) for b in basis]
    m = len(basis)
    gram = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            gram[i, j] = gram[j, i] = inner(sampled[i], sampled[j])
    condition = float(np.linalg.cond(gram))
    if condition > GRAM_CONDITION_LIMIT:
        raise IllConditionedBasisError(
            f"basis Gram matrix condition number {condition:.3e} exceeds "
            f"{GRAM_CONDITION_LIMIT:.0e}"
        )
    rhs = np.array([[inner(sampled[i], psi) for psi in orbitals.orbitals] for i in range(m)])

    truncations, fit_errors = {}, {}
    for order in orders:
        lower = np.linalg.cholesky(gram[:order, :order])
        coeff = np.linalg.solve(lower.T, np.linalg.solve(lower, rhs[:order, :]))
        ts = tuple(
            ScalarField(grid=grid, values=sum(coeff[k, a] * sampled[k].values for k in range(order)))
            for a in range(len(orbitals))
        )
        truncations[order] = ts
        fit_errors[order] = tuple(norm(t - psi, 2) for t, psi in zip(ts, orbitals.orbitals))

    # uniform bound realized as the projection bound ||psi|| + max_n ||T_n - psi||
    k_bound = max(
        norm(psi, 2) + max(fit_errors[n][a] for n in orders)
        for a, psi in enumerate(orbitals.orbitals)
    )
    return ExpansionState(
        orders=orders,
        truncations=truncations,
        fit_errors=fit_errors,
        k_bound=k_bound,
        gram_condition=condition,
    )


def _truncated_inputs(state: ExpansionState, orbitals: OrbitalSet, fields: HfFields):
    """(order, truncated orbital set, truncated fields) per projected order,
    one order at a time, so that one order's r_n and q_n are alive at once
    if the caller drops each order's fields before it asks for the next.
    r_n is built from the truncations by :func:`build_overlap_fields`,
    which samples the Coulomb kernel once per order, unless every s of
    ``fields`` is zero (a source without two-electron terms): then every
    order takes ``fields`` itself, whose zero s is r_n and zero q is q_n."""
    two_electron = any(s_ac.values.any() for row in fields.s for s_ac in row)
    for n in state.orders:
        trunc = OrbitalSet(state.truncations[n], orbitals.energies, validate=False)
        yield n, trunc, (HfFields(p=fields.p, s=build_overlap_fields(trunc))
                         if two_electron else fields)


def _with_order(report: ResidualReport, order: int) -> ResidualReport:
    return replace(report, params={**report.params, "order": order})


def expansion_poisson_residuals(
    state: ExpansionState,
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    t: float,
) -> list[ResidualReport]:
    """Height-transformed residual of each truncation:

        T[n,a] * d2t P_t - [(p - q_n + 2 eps_a) T[n,a]] * P_t
                         - 2 sum_c [r[n,a,c] T[n,c]] * P_t

    that is, :func:`poisson_transformed_residual` with the expansion
    surrogates in place of the exact orbitals and fields.
    """
    require_resolved(t, orbitals.grid)
    return [_with_order(poisson_transformed_residual(a, trunc, trunc_fields, t), n)
            for n, trunc, trunc_fields in _truncated_inputs(state, orbitals, fields)]


def expansion_window_residuals(
    state: ExpansionState,
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    w: Gaussian,
) -> list[ResidualReport]:
    """Window-transformed residual ladder (lap moves onto the window):

        T[n,a] * (lap w) + [(p - q_n + 2 eps_a) T[n,a]] * w
                         + 2 sum_c [r[n,a,c] T[n,c]] * w

    that is, :func:`window_transformed_residual` on each truncation.
    Gaussian windows are integrable, so L2 norms are always reported
    alongside the sup norms.
    """
    require_gaussian_window(w)
    return [_with_order(window_transformed_residual(a, trunc, trunc_fields, w), n)
            for n, trunc, trunc_fields in _truncated_inputs(state, orbitals, fields)]


@dataclass(frozen=True)
class LadderTotals:
    """L2 and sup norms of the two transformed-residual totals at one
    truncation order; no field is kept."""

    order: int
    thm6_l2: float
    thm6_sup: float
    thm7_l2: float
    thm7_sup: float


def expansion_transformed_residuals(
    state: ExpansionState,
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    t: float,
    w: Gaussian,
) -> list[LadderTotals]:
    """The totals of both ladders, per order: with c = (p - q_n + 2 eps_a)
    T[n,a] + 2 sum_c r[n,a,c] T[n,c],

        thm6 = T[n,a] * d2t P_t - c * P_t,    thm7 = T[n,a] * (lap w) + c * w,

    from one combined convolution of T[n,a] and c (two forward and two
    inverse padded transforms).  They equal the totals of
    :func:`expansion_poisson_residuals` and :func:`expansion_window_residuals`
    up to roundoff; those keep the per-term reports.
    """
    require_resolved(t, orbitals.grid)
    require_gaussian_window(w)
    plan = ConvolutionPlan(orbitals.grid)  # one spectrum per kernel for every order
    rows = []
    for n, trunc, trunc_fields in _truncated_inputs(state, orbitals, fields):
        psi_a, local, exchange = equation_terms(a, trunc, trunc_fields)
        combined = local + 2.0 * exchange if exchange.values.any() else local
        thm6, thm7 = plan.convolve_with_kernel(
            psi_a, (PoissonDt2Kernel(t=t), w.laplacian()),
            plus=((combined, (PoissonKernel(t=t), w), (-1.0, 1.0)),),
        )
        rows.append(LadderTotals(n, norm(thm6, 2), norm(thm6, np.inf),
                                 norm(thm7, 2), norm(thm7, np.inf)))
        # this order's fields go before the next order's are built
        del trunc_fields, local, exchange, combined, thm6, thm7
    return rows
