"""Exception types shared across the simulator."""


class InvalidConfig(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class InconsistentTables(ValueError):
    """PRB association table disagrees with the offloading decision."""


class ZeroRate(ValueError):
    """Offload overhead requested for a non-positive uplink rate."""


class EmptyOffloadSet(ValueError):
    """An operation over the offloading set received an empty set."""


class InfeasibleAllocation(ValueError):
    """CPU demand lower bounds cannot be met within the server capacity."""
