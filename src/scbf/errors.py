"""Exception types shared across the toolkit."""


class ScbfError(Exception):
    """Base class for all toolkit errors."""


class OutOfDomain(ScbfError):
    """A queried state lies outside the grid box (in a non-periodic dimension)."""


class DegenerateSet(ScbfError):
    """A safe-set description admits no interior grid node."""


class StabilityViolation(ScbfError):
    """The explicit scheme cannot honor both the stability bound and the step
    floor, or its stencil has a negative (non-monotone) weight."""


class Collapse(ScbfError):
    """The propagated field was annihilated; no eigenpair can be normalized."""


class UnknownParameter(ScbfError):
    """A benchmark override referenced a parameter the model does not define."""


class NonPositiveAirspeed(ScbfError):
    """Aerodynamic forces are undefined at zero or negative airspeed."""


class InsufficientData(ScbfError):
    """A statistical fit was requested on too few usable samples."""


class StructureError(ScbfError):
    """The system lacks the structure (e.g. input-affine drift) an operation needs."""


class ConfigError(ScbfError):
    """A job configuration file or key is malformed."""
