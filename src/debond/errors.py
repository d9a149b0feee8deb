"""Exception hierarchy shared by all debond modules."""


class DebondError(Exception):
    """Base class for every error raised by this package."""


class DomainError(DebondError):
    """A function was evaluated outside its domain (extrapolation is forbidden)."""


class RangeError(DebondError):
    """A monotone map was inverted at a value outside its range."""


class InvalidToughness(DebondError):
    """Toughness must be strictly positive."""


class SpeedOutOfRange(DebondError):
    """A forward front speed that rounds to 1, or a prescribed speed outside (0, 1)."""


class IncompatibleTarget(DebondError):
    """Target state fails the passive/active terminal compatibility conditions."""


class IncompatibleData(DebondError):
    """Initial data and control fail the well-posedness compatibility conditions."""


class DeadEnd(DebondError):
    """No admissible front speed exists at some node of the backward march."""


class C1SwitchViolation(DebondError):
    """A C1 branch policy demanded a speed jump away from a coincidence point."""


class InfeasibleTime(DebondError):
    """The control-time inequality fails; the target cannot be reached by time T."""


class HorizonExceeded(InfeasibleTime):
    """The initial branch did not terminate before the configured time cap."""


class NoTermination(InfeasibleTime):
    """The horizon is too short for a final branch: T <= ellbar0."""


class ConstraintViolated(DebondError):
    """Static-branch size constraint on the target data fails."""

    def __init__(self, message, excess=None):
        super().__init__(message)
        self.excess = excess


class ContinuityFailure(DebondError):
    """An assembled C1 quantity has a jump above tolerance (internal assertion)."""


class AmbiguityNote(UserWarning):
    """Both passive and active terminal classifications match (boundary case)."""
