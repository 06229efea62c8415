"""Exception types shared across the package."""


class FairfeasError(Exception):
    """Base class for all package errors."""


class KOutOfRange(FairfeasError):
    """k is outside [1, n]."""


class NotSorted(FairfeasError):
    """Input sequence violates the required non-increasing order."""


class TooFewGroups(FairfeasError):
    """An operation needs at least two groups."""


class DomainError(FairfeasError):
    """Argument outside the mathematical domain of the operation."""


class ZeroEpsP(FairfeasError):
    """Prevalence difference is zero; the equal-prevalence case is excluded."""


class SingularDenominator(FairfeasError):
    """The governing equation has no usable float root.

    Its slope is exactly 0, its root lies beyond the float range, or the
    residual at the rounded root exceeds the solver's tolerance.
    """


class BadPrevalence(FairfeasError):
    """Prevalence index at an excluded boundary (0 or N)."""


class OverlappingBins(FairfeasError):
    """PPV bins overlap or leave the allowed index range."""


class MissingColumn(FairfeasError):
    """A declared column is absent from the CSV header."""


class MissingValue(FairfeasError):
    """A required cell is empty; carries the 0-based row index."""

    def __init__(self, row: int, column: str):
        self.row = row
        self.column = column
        super().__init__(f"missing value in column {column!r} at row {row}")


class EmptyFile(FairfeasError):
    """CSV file has no data rows."""


class TargetTooLarge(FairfeasError):
    """Requested sample size exceeds the cohort size."""


class Infeasible(FairfeasError):
    """No allocation satisfies the selection constraints."""


class TooManyGroups(FairfeasError):
    """The exact solver is limited to selection.MAX_GROUPS groups."""
