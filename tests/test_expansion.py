import pytest

import convolve_hf as chf
from convolve_hf.errors import IllConditionedBasisError

from support import normalized_field


def gaussian_orbital_setup(n=48, extent=8.0, alpha=0.7):
    """A unit-L2 Gaussian orbital that is itself the first basis member."""
    grid = chf.GridSpec(points_per_axis=n, extent=extent)
    member = chf.basis_function(0, alpha0=alpha, beta=2.0)
    psi = normalized_field(chf.sample(member, grid))
    orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.3,))
    system = chf.MolecularSystem(nuclei=((2.0, (0.0, 0.0, 0.0)),))
    fields = chf.build_fields(system, orbitals)
    basis = [chf.basis_function(k, alpha0=alpha, beta=2.0) for k in range(3)]
    return grid, system, orbitals, fields, basis


class TestProjection:
    def test_basis_member_reproduces_exactly(self):
        grid, system, orbitals, fields, basis = gaussian_orbital_setup()
        state = chf.project_orbitals(orbitals, basis, orders=(1, 2, 3))
        # the basis is independent, so a zero fit error pins the unique
        # coefficients (1, 0, 0)
        assert state.fit_errors[3][0] <= 1e-10
        assert state.fit_errors[1][0] <= 1e-10
        t1 = state.truncations[1][0]
        assert chf.norm(t1 - orbitals.orbitals[0], 2) <= 1e-10

    def test_slater_fit_quality(self):
        # Slater orbital on six even-tempered members: sub-5% fit
        grid = chf.GridSpec(points_per_axis=64, extent=10.0)
        psi = normalized_field(chf.sample(chf.Slater1s(), grid))
        orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.5,))
        basis = [chf.basis_function(k, alpha0=0.1, beta=3.0) for k in range(6)]
        state = chf.project_orbitals(orbitals, basis, orders=(2, 4, 6))
        assert state.fit_errors[6][0] <= 0.05

    def test_fit_errors_non_increasing(self):
        grid = chf.GridSpec(points_per_axis=48, extent=10.0)
        psi = normalized_field(chf.sample(chf.Slater1s(), grid))
        orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.5,))
        basis = [chf.basis_function(k, alpha0=0.1, beta=3.0) for k in range(6)]
        state = chf.project_orbitals(orbitals, basis, orders=(1, 2, 3, 4, 5, 6))
        errs = [state.fit_errors[n][0] for n in state.orders]
        assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(errs, errs[1:]))

    def test_truncation_norms_respect_uniform_bound(self):
        grid = chf.GridSpec(points_per_axis=48, extent=10.0)
        psi = normalized_field(chf.sample(chf.Slater1s(), grid))
        orbitals = chf.OrbitalSet(orbitals=(psi,), energies=(-0.5,))
        basis = [chf.basis_function(k, alpha0=0.1, beta=3.0) for k in range(6)]
        state = chf.project_orbitals(orbitals, basis, orders=(2, 4, 6))
        for n in state.orders:
            assert chf.norm(state.truncations[n][0], 2) <= state.k_bound + 1e-12

    def test_ill_conditioned_basis_rejected(self):
        grid, system, orbitals, fields, _ = gaussian_orbital_setup(n=32)
        bad = [
            chf.basis_function(0, alpha0=1.0, beta=1.0 + 1e-9),
            chf.basis_function(1, alpha0=1.0, beta=1.0 + 1e-9),
        ]
        with pytest.raises(IllConditionedBasisError, match="condition"):
            chf.project_orbitals(orbitals, bad, orders=(2,))

    def test_order_exceeding_basis_rejected(self):
        grid, system, orbitals, fields, basis = gaussian_orbital_setup(n=32)
        with pytest.raises(ValueError, match="order"):
            chf.project_orbitals(orbitals, basis, orders=(7,))


class TestResidualLadders:
    def test_reproduction_matches_direct_pipelines(self):
        grid, system, orbitals, fields, basis = gaussian_orbital_setup()
        state = chf.project_orbitals(orbitals, basis, orders=(1,))
        t = 0.8  # resolved: 2h = 2/3 on this grid
        ladder6 = chf.expansion_poisson_residuals(state, 0, orbitals, fields, t)
        direct4 = chf.poisson_transformed_residual(0, orbitals, fields, t)
        diff = chf.norm(ladder6[0].total_field - direct4.total_field, 2)
        assert diff <= 1e-10
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        ladder7 = chf.expansion_window_residuals(state, 0, orbitals, fields, w)
        direct5 = chf.window_transformed_residual(0, orbitals, fields, w)
        diff7 = chf.norm(ladder7[0].total_field - direct5.total_field, 2)
        assert diff7 <= 1e-10

    def test_ladders_are_the_transformed_residuals_of_each_truncation(self):
        grid, system, orbitals, fields, basis = gaussian_orbital_setup(n=32)
        state = chf.project_orbitals(orbitals, basis, orders=(1, 2, 3))
        t = 1.2  # resolved: 2h = 1 on this grid
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        ladder6 = chf.expansion_poisson_residuals(state, 0, orbitals, fields, t)
        ladder7 = chf.expansion_window_residuals(state, 0, orbitals, fields, w)
        for n, r6, r7 in zip(state.orders, ladder6, ladder7):
            trunc = chf.OrbitalSet(state.truncations[n], orbitals.energies, validate=False)
            trunc_fields = chf.HfFields(fields.p, state.r_fields[n])
            assert r6.total_l2 == chf.poisson_transformed_residual(0, trunc, trunc_fields, t).total_l2
            assert r7.total_l2 == chf.window_transformed_residual(0, trunc, trunc_fields, w).total_l2
            assert r6.params["order"] == r7.params["order"] == n

    def test_paired_ladder_is_the_two_ladders(self):
        grid, system, orbitals, fields, basis = gaussian_orbital_setup(n=32)
        state = chf.project_orbitals(orbitals, basis, orders=(1, 3))
        t, w = 1.2, chf.Gaussian(alpha=1.0, amplitude=1.0)
        pairs = chf.expansion_transformed_residuals(state, 0, orbitals, fields, t, w)
        ladder6 = chf.expansion_poisson_residuals(state, 0, orbitals, fields, t)
        ladder7 = chf.expansion_window_residuals(state, 0, orbitals, fields, w)
        assert len(pairs) == len(state.orders)
        for (r6, r7), s6, s7 in zip(pairs, ladder6, ladder7):
            assert r6.params == s6.params and r7.params == s7.params
            assert r6.total_field.values.tobytes() == s6.total_field.values.tobytes()
            assert r7.total_field.values.tobytes() == s7.total_field.values.tobytes()

    def test_zero_orbital_gives_zero_ladder(self):
        grid = chf.GridSpec(points_per_axis=32, extent=8.0)
        zero = chf.ScalarField.zeros(grid)
        orbitals = chf.OrbitalSet(orbitals=(zero,), energies=(0.0,), validate=False)
        system = chf.MolecularSystem(nuclei=((1.0, (0.0, 0.0, 0.0)),))
        fields = chf.build_fields(system, orbitals)
        basis = [chf.basis_function(k, alpha0=0.5, beta=2.0) for k in range(2)]
        state = chf.project_orbitals(orbitals, basis, orders=(1, 2))
        for rep in chf.expansion_poisson_residuals(state, 0, orbitals, fields, 1.2):
            assert rep.total_l2 == 0.0
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        for rep in chf.expansion_window_residuals(state, 0, orbitals, fields, w):
            assert rep.total_l2 == 0.0

    def test_window_reports_carry_l2_and_sup(self):
        grid, system, orbitals, fields, basis = gaussian_orbital_setup(n=32)
        state = chf.project_orbitals(orbitals, basis, orders=(1, 2))
        w = chf.Gaussian(alpha=1.0, amplitude=1.0)
        reports = chf.expansion_window_residuals(state, 0, orbitals, fields, w)
        for rep in reports:
            assert rep.total_l2 >= 0 and rep.total_sup >= 0
            assert len(rep.term_l2) == 3
