"""Exception hierarchy shared by all plifs modules."""


class PlifsError(Exception):
    """Base class for all errors raised by this package."""


class NonContractive(PlifsError):
    """A slope has absolute value >= 1, so the map is not a contraction."""


class BudgetExceeded(PlifsError):
    """An enumeration would exceed the configured budget of items."""

    def __init__(self, needed: int, budget: int, what: str = "cylinder intervals"):
        super().__init__(f"{what}: {needed} needed, budget is {budget}")
        self.needed = needed
        self.budget = budget


class DegenerateAttractor(PlifsError):
    """Every cylinder interval has zero length; the attractor is a point."""


class ConvergenceFailure(PlifsError):
    """An iterative computation did not converge within its cap."""


class NotStronglyConnected(PlifsError):
    """The directed graph is not strongly connected."""


class UnverifiedCode(PlifsError):
    """A supplied breaking-point code failed verification."""


class NonPeriodicCode(PlifsError):
    """A construction step needs a purely periodic code but only an
    eventually periodic one is available."""


class AmbiguousContainment(PlifsError):
    """Interval evidence cannot certify a set containment either way."""


class IoscViolated(PlifsError):
    """First-level cylinder intervals are not pairwise disjoint."""


class BadFixedPointOrder(PlifsError):
    """Fixed points given to the family builder are not strictly ordered
    inside (0, 1)."""


class RootMismatch(PlifsError):
    """No determinant root coincides with the spectral crossing."""


class EmptyGraph(PlifsError):
    """A graph construction produced no usable nodes or edges."""


class InsufficientScales(PlifsError):
    """Box counting needs at least 4 scales spanning two decades."""


class NotApplicable(PlifsError):
    """A dimension method does not apply to the given system."""

    def __init__(self, reason: str, method: str):
        super().__init__(f"{reason}; {method} method not applicable")
        self.reason = reason


class ParseError(PlifsError):
    """A system description file is malformed; ``line_no`` is None when
    the fault is the whole file's, not one line's."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
