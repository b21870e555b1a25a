"""Bounded integer factorization with honest flags.

Full factorization is out of scope.  One call of sympy's ``factorint`` with
``limit=FACTOR_LIMIT`` divides out every prime up to the limit and spends a
matching budget of Fermat, Pollard p-1 and rho steps (and a perfect-power
check) on the rest.  Whatever stays composite is returned as the cofactor and
flagged, so downstream maximality claims become "unverified" instead of wrong.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from sympy import isprime
from sympy.ntheory import factorint

FACTOR_LIMIT = 2 ** 15


@lru_cache(maxsize=1)
def trial_factor(n: int):
    """Factor ``n`` within the ``FACTOR_LIMIT`` budget.

    Returns ``(factors, cofactor, certified)`` where ``factors`` is a sorted
    prime-exponent list, ``cofactor`` is the unfactored positive remainder
    (1 when complete), and ``certified`` is True exactly when the cofactor
    is 1; a False flag means "maximality unverified" for callers relying on
    square divisors.  The last answer is kept, so the scan's square-part
    filter and the order it then builds read one factorization of disc f;
    callers only read the returned list and never change it.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    factors, cofactor = [], 1
    for p, e in sorted(factorint(abs(n), limit=FACTOR_LIMIT).items()):
        if isprime(p):
            factors.append((p, e))
        else:
            cofactor *= p ** e
    return factors, cofactor, cofactor == 1


def factor_string(factors, cofactor: int = 1) -> str:
    """Render ``2^2 * 5^2 * 7`` style."""
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in factors]
    if cofactor > 1:
        parts.append(f"{cofactor}?")
    return " * ".join(parts) if parts else "1"


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
