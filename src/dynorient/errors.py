"""Exception types shared across the package."""


class DynOrientError(Exception):
    """Base class for all package errors."""


class ConfigurationError(DynOrientError):
    """Parameter set violates a structural precondition."""


class SelfLoopError(DynOrientError):
    pass


class DuplicateEdgeError(DynOrientError):
    pass


class MissingEdgeError(DynOrientError):
    pass


class VertexRangeError(DynOrientError):
    """Vertex id outside [0, n_cap)."""


class ConsistencyError(DynOrientError):
    """Internal bookkeeping contradicts itself; always a bug."""


class CycleError(DynOrientError):
    """Linking the two endpoints would close a cycle in a forest."""


class NotConnectedError(DynOrientError):
    """Path operation on endpoints in different trees."""


class WeightRangeError(DynOrientError):
    """A path update would push some edge weight outside [0, gamma]."""


class SizeError(DynOrientError):
    """Exact oracle invoked above its feasible input size."""


class TraceError(DynOrientError):
    """Malformed trace line or op not applicable to the current state."""

