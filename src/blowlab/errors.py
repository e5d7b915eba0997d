"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside an operation's domain (a non-Osgood source too)."""


class ResolutionError(RuntimeError):
    """A grid or quadrature is too coarse (or a box too small) for the
    requested tolerance; the message suggests a refinement."""
