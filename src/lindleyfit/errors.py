"""Exception types shared across the package."""


class LindleyFitError(Exception):
    """Base class for all package errors."""


class DomainError(LindleyFitError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParameterError(LindleyFitError, ValueError):
    """A distribution parameter vector violates its family's constraints."""


class FamilyError(LindleyFitError, ValueError):
    """An operation was requested for a family that does not support it."""


class SurvivalUnderflowError(LindleyFitError, ArithmeticError):
    """The survival probability underflowed, so the hazard is not representable."""


class EstimationError(LindleyFitError, RuntimeError):
    """A moment-matching solve failed.

    Attributes
    ----------
    best_residual:
        The smallest relative defect of any root candidate or probe of the
        family's 1-D reduction (its domain ends and cuts), or for ``dtl`` the
        distance from the mean to its attainable interval; None if there is none.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class InfeasibleMomentsError(EstimationError, ValueError):
    """The supplied sample moments admit no valid parameter vector."""


class NoSolutionError(EstimationError):
    """No representable root: from the closed-form ``lindley1`` estimator or the ``dtl`` bisection."""


class CatalogError(LindleyFitError, ValueError):
    """A catalog file could not be loaded into a usable mass sample.

    Attributes
    ----------
    bad_rows:
        List of (row_number, reason) pairs for rejected rows, if any.
    """

    def __init__(self, message, bad_rows=None):
        super().__init__(message)
        self.bad_rows = list(bad_rows or [])


class DegenerateSampleError(LindleyFitError, ValueError):
    """The sample is too small or too uniform for the requested statistic."""
