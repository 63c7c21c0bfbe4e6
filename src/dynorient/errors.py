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


class WeightRangeError(DynOrientError):
    """A path update would push some edge weight outside [0, gamma]."""


class ColourCodeError(DynOrientError):
    """A colour digit outside its radix, or digits and radices of
    different lengths."""


class SizeError(DynOrientError):
    """Exact oracle invoked above its feasible input size."""


class TraceError(DynOrientError):
    """Malformed trace line or op not applicable to the current state."""


class PromiseViolation(DynOrientError):
    """An update proves that the graph breaks the engine's promise, such
    as arboricity at most ``alpha_max``; the update is rolled back."""



def check_vertex(v, n):
    """Raise ``VertexRangeError`` unless v is an int in [0, n).  A ``bool``
    is an int and passes: ``True`` is vertex 1."""
    if not isinstance(v, int) or not 0 <= v < n:
        raise VertexRangeError(f"vertex {v!r} outside the ints [0, {n})")


def check_size(name, value):
    """Raise ``ConfigurationError`` unless value is an int of at least 1.
    A ``bool`` is an int, as in ``check_vertex``."""
    if not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{name} must be an int >= 1, got {value!r}")


def check_ends(u, v, n):
    """``check_vertex`` for both ends of an edge, with a fast path for
    two ints in range."""
    if not (u.__class__ is int and v.__class__ is int
            and 0 <= u < n and 0 <= v < n):
        check_vertex(u, n)
        check_vertex(v, n)


def require(ok, *context):
    """Raise ``ConsistencyError(*context)`` unless ``ok``; unlike ``assert``,
    it still checks under ``python -O``."""
    if not ok:
        raise ConsistencyError(*context)
