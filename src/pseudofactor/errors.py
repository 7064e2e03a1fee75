"""Exception types shared across the package."""


class CapacityError(Exception):
    """An exact routine was asked to exceed its documented size limit.

    The limits exist so that every answer the package returns is exact; a
    refusal is always preferred over a silently wrong or unbounded run.
    """


class ParseError(Exception):
    """Malformed textual input."""


class GraphParseError(ParseError):
    """Malformed graph file (edge list or DIMACS)."""


class ManifestError(ParseError):
    """Malformed family spec or corpus manifest line."""


class NonMaximalPathError(ValueError):
    """A path handed to ``endpoint_cycle`` misses a neighbor of its endpoint.

    The solver only hands it longest paths, which are maximal, so this is an
    internal fault, never the user's input.
    """


class FactorError(ValueError):
    """An edge set that is not a valid pseudo factor of its graph."""

    def __init__(self, message, component=None, vertex=None):
        super().__init__(message)
        self.component = tuple(component) if component is not None else None
        self.vertex = vertex
