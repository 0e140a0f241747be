"""Exceptions shared across modules."""


class InvariantError(RuntimeError):
    """A property the mathematics guarantees failed to hold: a bug in the
    program, never a bad input.  Raised in place of assert so that
    ``python -O`` keeps the check."""
