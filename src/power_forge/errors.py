"""The errors that mean bad input, and the only ones the CLI exits 2 on (with OSError)."""

__all__ = ["ValidationError", "CapacityError"]


class ValidationError(ValueError):
    """Input rejected before any work is done on it."""


class CapacityError(RuntimeError):
    """No offset of the form 2**kappa - 1 within policy covers the estimates."""
