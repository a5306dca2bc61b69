"""Grid-based laboratory for closed-shell Hartree-Fock equations and
their convolution transforms."""

from .convolution import (
    ConvolutionPlan,
    resolution_floor,
    under_resolved,
)
from .expansion import (
    ExpansionState,
    LadderTotals,
    expansion_poisson_residuals,
    expansion_transformed_residuals,
    expansion_window_residuals,
    project_orbitals,
)
from .extension import (
    HarmonicExtension,
    boundary_convergence,
    extend,
    harmonicity_residual,
    sup_bound_check,
)
from .fields import GridSpec, ScalarField, inner, laplacian, norm
from .hf import (
    HfFields,
    L2_SQUARE_BOUND,
    MolecularSystem,
    OrbitalSet,
    S_SUP_BOUND,
    build_fields,
    build_p,
    check_orbital_bounds,
    coulomb_square_integral,
    energies,
    nuclear_mask,
    strong_residual,
)
from .kernels import (
    COULOMB_CELL_MEAN,
    CoulombKernel,
    Gaussian,
    GaussianLaplacian,
    PoissonDt2Kernel,
    PoissonKernel,
    PoissonSecondDifference,
    Slater1s,
    basis_function,
    sample,
)
from .residuals import (
    CrosscheckReport,
    ResidualReport,
    laplacian_convolution_symmetry_defect,
    poisson_crosscheck,
    poisson_transformed_residual,
    transformed_residuals,
    window_residual_literal,
    window_transformed_residual,
)
from .scf import ScfConfig, ScfResult, solve

__version__ = "0.1.0"
