"""Exception and warning types shared across the package."""


class GridMismatchError(ValueError):
    """Two fields that must live on the same grid do not."""


class ResolutionError(ValueError):
    """A transformed residual was asked for at a Poisson height below 2h."""


class ResolutionWarning(UserWarning):
    """A kernel width is below the resolution floor 2h; results are degraded."""


class SupportWarning(UserWarning):
    """A field carries significant mass near the box boundary."""


class IllConditionedBasisError(ValueError):
    """Basis Gram matrix condition number exceeds the projection limit."""


class ScfDivergedError(ValueError):
    """The SCF eigensolver diverged or its linear solve did not converge."""


class ConfigError(ValueError):
    """A run configuration file is malformed or violates a precondition."""
