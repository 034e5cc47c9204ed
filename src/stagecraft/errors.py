"""Exception hierarchy shared across the toolkit.

The command line front end maps these onto its exit-code contract:
precondition and configuration problems exit with 2, everything else
that raises (numeric trouble, inconsistent data) exits with 3, and a
plain verification failure is reported through the result object rather
than an exception.
"""

__all__ = [
    "StagecraftError", "DomainError", "ParameterError", "ConfigError",
    "MonotoneInputError", "InversionError", "DecompositionError",
    "KLValidityError", "SimulationError", "ChoiceRejectedError",
    "InteractionRejectedError", "NonContractionError", "BudgetError",
    "CertificateInvalidError", "EnvelopeError",
]


class StagecraftError(Exception):
    """Base class for all toolkit errors."""


class DomainError(StagecraftError):
    """Input outside the nonnegative domain of a comparison function."""


class ParameterError(StagecraftError):
    """Malformed parameter: bad coefficient, bad grid, violated precondition."""


class ConfigError(ParameterError):
    """Experiment configuration is missing keys or holds invalid values."""


class MonotoneInputError(ParameterError):
    """Table data rejected because it is not strictly monotone."""


class InversionError(StagecraftError):
    """Bracket expansion failed; the function never reaches the target value."""


class DecompositionError(StagecraftError):
    """A separable envelope failed to dominate the bound it was built from."""


class KLValidityError(StagecraftError):
    """Grid data violates the two-argument decay-bound shape requirements."""


class SimulationError(StagecraftError):
    """Trajectory rollout produced a non-finite state."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ChoiceRejectedError(StagecraftError):
    """A user-chosen stage-cost component failed its domination check."""


class InteractionRejectedError(StagecraftError):
    """An interaction term violated its declared bound at the sampled check."""


class NonContractionError(StagecraftError):
    """A decay bound never drops below the requested threshold within the cap."""


class BudgetError(StagecraftError):
    """A settle-horizon computation exceeded the step cap."""


class CertificateInvalidError(StagecraftError):
    """Certificate data is inconsistent with the guarantees it claims."""


class EnvelopeError(StagecraftError):
    """A monotone envelope could not be constructed from the given points."""
