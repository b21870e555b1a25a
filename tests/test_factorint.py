import time

import pytest
import sympy
from hypothesis import given, strategies as st

import otkit.factorint
from otkit.factorint import (FACTOR_LIMIT, factor_string, is_perfect_square,
                             trial_factor)
from otkit.intmat import identity
from otkit.orders import SubOrder
from otkit.polynomials import IntPolynomial, poly_discriminant


def test_trial_factor_examples():
    factors, cofactor, certified = trial_factor(-108000032)
    assert factors == [(2, 5), (7, 1), (31, 1), (103, 1), (151, 1)]
    assert cofactor == 1 and certified
    factors, cofactor, certified = trial_factor(4 * 8 ** 3 + 27)
    assert factors == [(5, 2), (83, 1)] and cofactor == 1
    factors, cofactor, certified = trial_factor(1)
    assert factors == [] and cofactor == 1 and certified


def test_trial_factor_large_prime_cofactor():
    p = 1649120827309715616889
    factors, cofactor, certified = trial_factor(4 * p)
    assert (p, 1) in factors and cofactor == 1 and certified


def test_trial_factor_perfect_power_cofactor():
    p = 1000003  # prime above the trial-division limit
    factors, cofactor, certified = trial_factor(p * p)
    assert (p, 2) in factors and certified


def test_trial_factor_opaque_cofactor_flagged():
    p, q = sympy.nextprime(10 ** 29), sympy.nextprime(3 * 10 ** 29)
    factors, cofactor, certified = trial_factor(p * p * q)
    assert cofactor == p * p * q
    assert not certified


@pytest.mark.parametrize("exponent", [20, 200])
def test_trial_factor_large_prime_square(exponent):
    p = sympy.nextprime(10 ** exponent)
    assert trial_factor(p * p) == ([(p, 2)], 1, True)


def test_trial_factor_huge_semiprime_flagged():
    # adjacent 200-digit primes: the Fermat step splits their product
    p = sympy.nextprime(10 ** 200)
    q = sympy.nextprime(p)
    assert trial_factor(p * q) == ([(p, 1), (q, 1)], 1, True)


def test_trial_factor_within_budget():
    p, q = sympy.nextprime(10 ** 29), sympy.nextprime(3 * 10 ** 29)
    start = time.process_time()
    result = trial_factor(p * q)
    assert time.process_time() - start < 1
    assert result == ([], p * q, False)


@pytest.mark.parametrize("n, factors", [
    (10392843859404577, [(4073821, 1), (2551129237, 1)]),
    (11310090538332283, [(2275607, 1), (4970142269, 1)]),
])
def test_trial_factor_completes_panel_cofactors(n, factors):
    assert trial_factor(n) == (factors, 1, True)


primes_above_limit = st.integers(FACTOR_LIMIT, 999_000).map(sympy.nextprime)


@given(st.integers(1, FACTOR_LIMIT), primes_above_limit,
       st.integers(1, 10 ** 40).map(sympy.nextprime),
       st.one_of(st.just(1), primes_above_limit))
def test_trial_factor_finds_primes_below_a_million(k, p, q, p2):
    n = k * p * q * p2
    assert trial_factor(n) == (sorted(sympy.factorint(n).items()), 1, True)


def test_an_order_reads_the_last_factorization(monkeypatch):
    # the scan factors disc f for its square-part filter, then builds Z[T]
    trial_factor(2)                     # replaces whatever answer was kept
    calls = []
    original = otkit.factorint.factorint

    def counted(n, **kwargs):
        calls.append(n)
        return original(n, **kwargs)

    monkeypatch.setattr(otkit.factorint, "factorint", counted)
    f = IntPolynomial.parse("T^5 - 3*T^2 + 11")
    d = poly_discriminant(f)
    first = trial_factor(d)
    assert SubOrder(f, d, identity(5), 1).disc_factors == first
    assert calls == [abs(d)]


def test_trial_factor_rejects_zero():
    with pytest.raises(ValueError):
        trial_factor(0)


def test_factor_string():
    assert factor_string([(2, 2), (5, 2), (7, 1)]) == "2^2 * 5^2 * 7"
    assert factor_string([], 1) == "1"
    assert factor_string([(2, 1)], 91) == "2 * 91?"


def test_is_perfect_square():
    assert is_perfect_square(81)
    assert not is_perfect_square(80)
    assert not is_perfect_square(-4)
