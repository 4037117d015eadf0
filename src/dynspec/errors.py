"""Exception types shared across the library."""


class DynspecError(Exception):
    """Base class for all library-specific errors."""


class DimensionError(DynspecError):
    """Inputs have incompatible or invalid dimensions."""


class ConditioningError(DynspecError):
    """A matrix is too close to singular for the requested operation."""


class InsufficientDataError(DynspecError):
    """Not enough time levels for the requested computation."""


class FileFormatError(DynspecError):
    """A problem or report file does not match the expected schema."""


class RecoveryError(DynspecError):
    """Base class for failures of the recovery pipelines.

    When a pipeline can salvage per-source results, they are attached as
    ``partial`` (a SpectrumEstimate) so callers can still report them.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NoAnnihilator(RecoveryError):
    """No annihilating polynomial of degree <= r_max fits the data.

    ``best_residual`` is the smallest relative residual seen during the
    degree search; it distinguishes an r_max that is too small from
    genuinely degenerate data.
    """

    def __init__(self, message, best_residual, partial=None):
        super().__init__(message, partial)
        self.best_residual = best_residual


class SpanConditionViolated(RecoveryError):
    """The window length cannot reproduce the samples by a recurrence."""


class AmbiguousOrdering(RecoveryError):
    """Recovered spectral values cannot be assigned to frequencies."""


class NotSymmetricReal(RecoveryError):
    """Recovered spectrum is not real up to tolerance, so the symmetric
    decreasing ordering assumption does not apply."""


class UnderDetermined(RecoveryError):
    """A per-class node system has repeated nodes and cannot be inverted."""

    def __init__(self, message, class_id=None):
        super().__init__(message)
        self.class_id = class_id


class NotShiftSpectrum(RecoveryError):
    """A recovered root is too far from every d-th root of unity."""
