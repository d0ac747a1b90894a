"""Shared exception hierarchy.

Exit-code categories used by the CLI hang off these bases: configuration
problems (bad input data) versus numeric failures (a computation that
cannot proceed or did not converge). An array too large to allocate is a
``MemoryError``, which the CLI reports as a numeric failure too.
"""

import sys


class TreeKuramotoError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(TreeKuramotoError):
    """Invalid user-supplied configuration or input data."""


class NumericError(TreeKuramotoError):
    """A numeric computation failed or its hypotheses do not hold."""


#: Most 8-byte items one numpy array can hold. numpy rejects a larger
#: request with a ValueError before it tries to allocate.
_MAX_ITEMS = sys.maxsize // 8


def _check_items(count: int, what: str) -> None:
    """Raise MemoryError, as an allocation that fails does, when ``count``
    8-byte ``what`` are more than one array can hold."""
    if count > _MAX_ITEMS:
        raise MemoryError(f"cannot allocate {count} {what}: too many for one array")
