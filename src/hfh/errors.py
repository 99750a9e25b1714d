"""Exception types shared across the package, and :func:`reading`, which names a bad input."""

import contextlib


class ValidationError(ValueError):
    """Input data violates a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """A computation ran but its result fails a numerical quality gate."""


class UnsupportedScaleError(ValidationError):
    """The request is structurally valid but outside the supported problem sizes."""


@contextlib.contextmanager
def reading(key: str):
    """Re-raise a TypeError or ValueError as a ValidationError naming ``key``; others pass through."""
    try:
        yield
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key}: bad value: {exc}") from exc
