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
    """A moment fit failed: no candidate parameter vector passes the estimation judge.

    Attributes
    ----------
    best_residual:
        The smallest relative defect of any valid candidate, or for ``dtl``'s
        unattainable mean the distance from the mean to its attainable
        interval; None if there is none.
    """

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


class InfeasibleMomentsError(EstimationError, ValueError):
    """The sample moments admit no valid parameter vector, as a closed form or a bracket shows."""


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
