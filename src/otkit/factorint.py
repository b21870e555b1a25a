"""Bounded integer factorization with honest flags.

Full factorization is out of scope; we factor the smooth part by trial
division, then try to finish the cofactor with perfect-power extraction and a
primality test.  When the cofactor stays opaque the result says so, and
downstream maximality claims become "unverified" instead of wrong.
"""

from __future__ import annotations

from math import isqrt

import sympy

DEFAULT_BOUND = 10 ** 6


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(m, k) with n = m**k and k >= 2, or None."""
    if n < 4:
        return None
    for k in range(2, n.bit_length() + 1):
        m, exact = sympy.integer_nthroot(n, k)
        if exact:
            return m, k
    return None


def trial_factor(n: int, bound: int = DEFAULT_BOUND):
    """Factor the bound-smooth part of ``n``.

    Returns ``(factors, cofactor, cofactor_squarefree_certified)`` where
    ``factors`` is a sorted prime-exponent list, ``cofactor`` is the
    unfactored positive remainder (1 when complete), and the flag records
    whether the cofactor is certified squarefree (primality or perfect-power
    analysis); a False flag with cofactor > 1 means "maximality unverified"
    for callers relying on square divisors.
    """
    if n == 0:
        raise ValueError("cannot factor zero")
    m = abs(n)
    factors: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    p = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    wi = 0
    while p <= bound and p * p <= m:
        if m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
            continue
        p += wheel[wi]
        wi = (wi + 1) % len(wheel)
    if m > 1 and (m < bound * bound or sympy.isprime(m)):
        # below bound^2 any remaining cofactor with no small factor is prime
        factors[m] = factors.get(m, 0) + 1
        m = 1
    certified = True
    if m > 1:
        pk = _perfect_power(m)
        if pk is not None:
            base, k = pk
            if sympy.isprime(base):
                factors[base] = factors.get(base, 0) + k
                m = 1
            else:
                certified = False
        else:
            # not a perfect power and not prime: could still hide a square
            certified = False
    return sorted(factors.items()), m, certified


def factor_string(factors, cofactor: int = 1) -> str:
    """Render ``2^2 * 5^2 * 7`` style."""
    parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in factors]
    if cofactor > 1:
        parts.append(f"{cofactor}?")
    return " * ".join(parts) if parts else "1"


def square_divisor_primes(n: int):
    """Primes p with p^2 | n among the factored part, plus a certainty flag.

    The flag is True when no further square divisor can hide in the cofactor.
    """
    factors, cofactor, certified = trial_factor(n)
    primes = [p for p, e in factors if e >= 2]
    return primes, cofactor == 1 or certified, cofactor


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n
