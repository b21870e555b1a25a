import pytest
import sympy

from otkit.factorint import (factor_string, is_perfect_square,
                             square_divisor_primes, trial_factor)


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
    p = 1000003  # prime just above the default bound
    factors, cofactor, certified = trial_factor(p * p, bound=10 ** 3)
    assert (p, 2) in factors and certified


def test_trial_factor_opaque_cofactor_flagged():
    p, q = 1000003, 1000033
    factors, cofactor, certified = trial_factor(p * p * q, bound=10 ** 3)
    assert cofactor == p * p * q
    assert not certified


@pytest.mark.parametrize("exponent", [20, 200])
def test_trial_factor_large_prime_square(exponent):
    p = sympy.nextprime(10 ** exponent)
    assert trial_factor(p * p) == ([(p, 2)], 1, True)


def test_trial_factor_huge_semiprime_flagged():
    p = sympy.nextprime(10 ** 200)
    q = sympy.nextprime(p)
    factors, cofactor, certified = trial_factor(p * q)
    assert factors == [] and cofactor == p * q and not certified


def test_trial_factor_rejects_zero():
    with pytest.raises(ValueError):
        trial_factor(0)


def test_square_divisor_primes():
    primes, certain, cof = square_divisor_primes(-2075)
    assert primes == [5] and certain and cof == 1


def test_factor_string():
    assert factor_string([(2, 2), (5, 2), (7, 1)]) == "2^2 * 5^2 * 7"
    assert factor_string([], 1) == "1"
    assert factor_string([(2, 1)], 91) == "2 * 91?"


def test_is_perfect_square():
    assert is_perfect_square(81)
    assert not is_perfect_square(80)
    assert not is_perfect_square(-4)
