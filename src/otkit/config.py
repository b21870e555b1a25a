"""Working precision: its default, its scope, and escalation."""

from __future__ import annotations

import os
from contextlib import contextmanager

from mpmath import iv

MIN_PRECISION = 64


def _env_precision() -> int:
    raw = os.environ.get("OTKIT_PRECISION", "")
    try:
        bits = int(raw)
    except ValueError:
        return 192
    return max(MIN_PRECISION, bits)


DEFAULT_PRECISION = _env_precision()

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


def decide(compute, max_bits: int):
    """Evaluate ``compute()`` at increasing precision until it returns non-None.

    ``compute`` must return None exactly when the current precision is
    insufficient to decide its answer.
    """
    bits = working_precision()
    while bits <= max_bits:
        with precision(bits):
            out = compute()
        if out is not None:
            return out
        bits *= 2
    raise PrecisionError(f"undecidable even at {max_bits} bits")
