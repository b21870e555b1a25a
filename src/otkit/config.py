"""Working precision: its default and its scope."""

from __future__ import annotations

from contextlib import contextmanager

from mpmath import iv

MIN_PRECISION = 64
DEFAULT_PRECISION = 192

iv.prec = DEFAULT_PRECISION


def working_precision() -> int:
    """Current working precision in bits: that of the interval context."""
    return iv.prec


@contextmanager
def precision(bits: int):
    """Temporarily override the working precision."""
    if bits < MIN_PRECISION:
        raise ValueError(f"precision must be >= {MIN_PRECISION} bits, got {bits}")
    saved = iv.prec
    iv.prec = int(bits)
    try:
        yield
    finally:
        iv.prec = saved


class PrecisionError(ArithmeticError):
    """A decision could not be made even after escalating precision."""
