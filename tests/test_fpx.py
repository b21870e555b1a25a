from pathlib import Path

from hypothesis import example, given, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd, gf_pow_mod, gf_quo, gf_sqf_part

from otkit import fpx

PRIMES = st.sampled_from([2, 3, 5, 7, 13])


def _gf(a):
    """The galoistools form of a: leading coefficient first."""
    return a[::-1]


@st.composite
def _monic_products(draw):
    """(p, a): a monic product of small monic factors over F_p, repeated up
    to p + 1 times each, so that multiplicities reach p."""
    p = draw(PRIMES)
    a = [1]
    for _ in range(draw(st.integers(0, 3))):
        factor = [draw(st.integers(0, p - 1)) for _ in range(draw(st.integers(1, 2)))] + [1]
        for _ in range(draw(st.integers(1, p + 1))):
            a = fpx.reduce(fpx._mul(a, factor), p)
    return p, a


@given(_monic_products())
def test_radical_matches_sympy(case):
    p, a = case
    assert fpx.radical(a, p) == _gf(gf_sqf_part(_gf(a), p, ZZ))


@given(_monic_products(), _monic_products())
def test_gcd_and_exact_quotient_match_sympy(x, y):
    p, a = x
    b = fpx.reduce(y[1], p)
    g = fpx.gcd(a, b, p)
    assert g == _gf(gf_gcd(_gf(a), _gf(b), p, ZZ))
    assert fpx.quo(a, g, p) == _gf(gf_quo(_gf(a), _gf(g), p, ZZ))


@given(_monic_products(), st.integers(0, 10 ** 6))
@example((2, [0, 0, 0, 1]), 5)
def test_xpow_matches_sympy(case, e):
    p, f = case
    if len(f) > 2:
        assert fpx.xpow(e, f, p) == _gf(gf_pow_mod([1, 0], e, _gf(f), p, ZZ))


def test_no_module_imports_galoistools():
    src = Path(__file__).resolve().parents[1] / "src" / "otkit"
    assert not [path.name for path in src.glob("*.py") if "galoistools" in path.read_text()]
