"""Exceptions shared by the arithmetic and oracle modules."""


class InvariantViolation(RuntimeError):
    """A proven identity of the arithmetic or the oracles failed.

    Raised in place of `assert`, which `python -O` removes.
    """
