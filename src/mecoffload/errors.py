"""Exception types that a caller catches."""


class InvalidConfig(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InfeasibleAllocation(ValueError):
    """CPU demand lower bounds cannot be met within the server capacity."""
