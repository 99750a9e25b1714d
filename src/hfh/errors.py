"""Exception types shared across the package, and :func:`reading` and :func:`need`, which name a bad input."""

import contextlib


class ValidationError(ValueError):
    """Input data violates a documented precondition or invariant."""


class NumericalError(RuntimeError):
    """A computation ran but its result fails a numerical quality gate."""


@contextlib.contextmanager
def reading(key: str):
    """Re-raise a TypeError, ValueError or OverflowError as a ValidationError naming ``key``."""
    try:
        yield
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{key}: bad value: {exc}") from exc


def need(where, obj, key, convert=lambda v: v):
    """``convert(obj[key])``; a missing key or a value ``convert`` rejects is a ValidationError naming it."""
    if not isinstance(obj, dict) or key not in obj:
        raise ValidationError(f"{where}: missing required key {key!r}")
    with reading(key):
        return convert(obj[key])
