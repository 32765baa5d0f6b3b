"""Exception types shared across the package."""


class QuadratureError(RuntimeError):
    """The area measurement's adaptive quadrature missed its tolerance."""


class RootCountError(RuntimeError):
    """A polynomial did not have the expected number of roots in an interval.

    Raised instead of silently picking a root: a count other than one would
    contradict the analytic uniqueness argument the computation relies on,
    so it must surface to the caller.
    """
