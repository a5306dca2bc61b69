"""Truncated basis expansions and their transformed residual ladders.

Orbitals are projected onto the leading members of an even-tempered
Gaussian family by least squares on the grid (normal equations through
the Gram matrix).  For each truncation order n the expansion carries the
truncated orbitals T[n,a], the overlap-Coulomb fields r[n,a,c] built
from them, and a uniform L2 bound K on the truncations.  The residual
ladders evaluate the two transformed residuals of
:mod:`convolve_hf.residuals` with (T, r) in place of (psi, s), one order
at a time; :class:`~convolve_hf.hf.HfFields` derives the Hartree sum
q_n = 4 sum_c r[n,c,c].  As the fit improves the residual norms must not
grow.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IllConditionedBasisError
from .fields import ScalarField, inner, norm
from .hf import HfFields, OrbitalSet, build_overlap_fields
from .kernels import Gaussian, sample
from .residuals import (
    ResidualReport,
    poisson_transformed_residual,
    transformed_residuals,
    window_transformed_residual,
)

__all__ = ["ExpansionState", "project_orbitals", "expansion_poisson_residuals",
           "expansion_window_residuals", "expansion_transformed_residuals"]

GRAM_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class ExpansionState:
    """Least-squares truncations of an orbital set over a fixed basis; each
    order's Hartree field q_n is derived from r_fields by HfFields."""

    orders: tuple[int, ...]
    truncations: dict   # order -> tuple of ScalarField per orbital
    r_fields: dict      # order -> n x n tuple of ScalarField
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

    from scipy import linalg as sla  # only here, so importing the CLI skips scipy.linalg
    truncations, r_fields, fit_errors = {}, {}, {}
    for order in orders:
        cho = sla.cho_factor(gram[:order, :order])
        coeff = sla.cho_solve(cho, rhs[:order, :])
        ts = tuple(
            ScalarField(grid=grid, values=sum(coeff[k, a] * sampled[k].values for k in range(order)))
            for a in range(len(orbitals))
        )
        truncations[order] = ts
        fit_errors[order] = tuple(norm(t - psi, 2) for t, psi in zip(ts, orbitals.orbitals))
        r_fields[order] = build_overlap_fields(OrbitalSet(ts, orbitals.energies, validate=False))

    # uniform bound realized as the projection bound ||psi|| + max_n ||T_n - psi||
    k_bound = max(
        norm(psi, 2) + max(fit_errors[n][a] for n in orders)
        for a, psi in enumerate(orbitals.orbitals)
    )
    return ExpansionState(
        orders=orders,
        truncations=truncations,
        r_fields=r_fields,
        fit_errors=fit_errors,
        k_bound=k_bound,
        gram_condition=condition,
    )


def _truncated_inputs(state: ExpansionState, orbitals: OrbitalSet, fields: HfFields):
    """(order, truncated orbital set, truncated fields) per projected order,
    one order at a time, so that one derived q_n is alive at once."""
    for n in state.orders:
        yield (n, OrbitalSet(state.truncations[n], orbitals.energies, validate=False),
               HfFields(p=fields.p, s=state.r_fields[n]))


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
    return [
        _with_order(poisson_transformed_residual(a, trunc, trunc_fields, t), n)
        for n, trunc, trunc_fields in _truncated_inputs(state, orbitals, fields)
    ]


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
    return [
        _with_order(window_transformed_residual(a, trunc, trunc_fields, w), n)
        for n, trunc, trunc_fields in _truncated_inputs(state, orbitals, fields)
    ]


def expansion_transformed_residuals(
    state: ExpansionState,
    a: int,
    orbitals: OrbitalSet,
    fields: HfFields,
    t: float,
    w: Gaussian,
) -> list[tuple[ResidualReport, ResidualReport]]:
    """Both ladders at once: per order, the pair of
    :func:`expansion_poisson_residuals` and :func:`expansion_window_residuals`
    rows, each term field transformed once for both kernels
    (:func:`convolve_hf.residuals.transformed_residuals`).
    """
    return [
        tuple(_with_order(r, n) for r in transformed_residuals(a, trunc, trunc_fields, t, w))
        for n, trunc, trunc_fields in _truncated_inputs(state, orbitals, fields)
    ]
