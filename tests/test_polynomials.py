from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from otkit.polynomials import (IntPolynomial, NotSquarefreeError, _sign_at, integer_roots,
                               is_irreducible, poly_discriminant, resultant,
                               sturm_count, sturm_sequence)

P = IntPolynomial


def test_parse_format_roundtrip():
    f = P.parse("T^3 - T + 1")
    assert f.coeffs == (1, -1, 0, 1)
    assert f.format() == "T^3 - T + 1"
    assert P.parse(f.format()) == f
    assert P.parse("T^2").format() == "T^2"
    assert P.parse("-T^2 + 3*T - 4").coeffs == (-4, 3, -1)
    assert P.parse("2*T^2+T").format() == "2*T^2 + T"


def test_parse_rejects_garbage():
    for bad in ("", "x^2", "T^", "T +* 2"):
        with pytest.raises(ValueError):
            P.parse(bad)


def test_discriminant_known_values():
    assert poly_discriminant(P.parse("T^3 - T + 1")) == -23
    assert poly_discriminant(P.parse("T^3 + T^2 - 1")) == -23
    assert poly_discriminant(P.parse("T^4 - T - 1")) == -283
    for m in range(1, 11):
        assert poly_discriminant(P([-1, m, 0, 1])) == -4 * m ** 3 - 27


def test_discriminant_rejects():
    with pytest.raises(ValueError):
        poly_discriminant(P([1, 2]))  # degree 1
    with pytest.raises(ValueError):
        poly_discriminant(P([1, 0, 2]))  # not monic


@given(st.lists(st.integers(-6, 6), min_size=2, max_size=5, unique=True))
def test_discriminant_product_formula(roots):
    f = P([1])
    for r in roots:
        f = f * P([-r, 1])
    want = 1
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            want *= (roots[i] - roots[j]) ** 2
    assert poly_discriminant(f) == want


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=8))
def test_discriminant_is_the_sylvester_resultant(tail):
    # the norm of f' on the power basis against the (2n - 1)-square Sylvester
    # determinant
    f = P(tail + [1])
    n = f.degree
    assert poly_discriminant(f) == (-1) ** (n * (n - 1) // 2) * resultant(f, f.derivative())


def test_resultant_examples():
    for m in range(1, 8):
        assert resultant(P([-1, m, 0, 1]), P([1, -1])) == m
    assert resultant(P.parse("T^3 - T + 1"), P([1])) == 1
    assert resultant(P.parse("T^2 + 1"), P.parse("T - 1")) == 2
    with pytest.raises(ValueError):
        resultant(P([]), P([1, 1]))


@st.composite
def nonzero_poly(draw, max_deg=3):
    deg = draw(st.integers(0, max_deg))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=deg + 1, max_size=deg + 1))
    lead = draw(st.integers(1, 5))
    return P(coeffs[:-1] + [lead])


@given(nonzero_poly(), nonzero_poly(), nonzero_poly())
def test_resultant_multiplicative(f, g, h):
    assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def _real_roots(text):
    return sturm_count(sturm_sequence(P.parse(text)), None, None)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=8),
       st.one_of(st.integers(-10 ** 4, 10 ** 4), st.fractions(max_denominator=2 ** 40)))
def test_sign_at_is_the_sign_of_the_rational_value(coeffs, q):
    v = P(coeffs)(Fraction(q))
    assert _sign_at(P(coeffs), q) == (v > 0) - (v < 0)


def test_sturm_and_signature_counts():
    assert _real_roots("T^3 - T + 1") == 1
    assert _real_roots("T^4 - T - 1") == 2
    # degree gap of two in the chain: the scale must be an even power
    assert _real_roots("T^4 + T - 1") == 2
    assert _real_roots("T^2 + 1") == 0
    chain = sturm_sequence(P.parse("T^3 - T + 1"))  # real root near -1.3247
    assert sturm_count(chain, Fraction(-2), Fraction(-1)) == 1
    assert sturm_count(chain, Fraction(0), Fraction(1)) == 0


@pytest.mark.parametrize("factors, roots", [
    pytest.param(["T^2 - 1"], [-1, 1], id="T^2 - 1"),
    pytest.param(["T^3 - T + 6"], [-2], id="T^3 - T + 6"),
    pytest.param(["T^3 - T + 1"], [], id="T^3 - T + 1"),
    # constant terms above 10^10: roots from the factorization over Z
    pytest.param(["T + 100000000007", "T^2 + 5"], [-100000000007],
                 id="(T + 100000000007)(T^2 + 5)"),
    pytest.param(["T - 100000000000", "T + 100000000000"],
                 [-100000000000, 100000000000], id="(T - 10^11)(T + 10^11)"),
    pytest.param(["T - 100000000007", "T + 3", "T^2 + 5"], [-3, 100000000007],
                 id="(T - 100000000007)(T + 3)(T^2 + 5)"),
])
def test_integer_roots(factors, roots):
    f = P([1])
    for text in factors:
        f = f * P.parse(text)
    assert integer_roots(f) == roots


def test_irreducibility():
    ok, factor = is_irreducible(P.parse("T^3 - T + 6"))
    assert not ok and factor == P.parse("T + 2")
    assert is_irreducible(P.parse("T^4 - T - 1"))[0]
    ok, factor = is_irreducible(P.parse("T^4 + 3*T^2 + 2"))  # no rational roots
    assert not ok and factor is not None
    assert is_irreducible(P.parse("T^7 - T - 1"))[0]
    # degree-9 resultant polynomial of a compositum
    big = P.parse("T^9 + 3*T^8 + 6*T^7 + 8*T^6 + 9*T^5 + 7*T^4 - 11*T^3 "
                  "- 14*T^2 - 11*T - 23")
    assert sturm_sequence(big)[-1].degree == 0


@pytest.mark.parametrize("factors, witness", [
    pytest.param(["T^4 + 3*T + 100000000007"], None, id="T^4 + 3*T + 100000000007"),
    pytest.param(["T^2 + 5", "T^2 + 20000000001"], "T^2 + 5",
                 id="(T^2 + 5)(T^2 + 20000000001)"),
    pytest.param(["T - 100000000007", "T^3 + T + 1"], "T - 100000000007",
                 id="(T - 100000000007)(T^3 + T + 1)"),
])
def test_irreducibility_factors_once(monkeypatch, factors, witness):
    """Above 10^10 the integer roots and the verdict share one factorization."""
    import otkit.polynomials as polynomials

    calls = []
    factor = polynomials._factors
    monkeypatch.setattr(polynomials, "_factors", lambda f: calls.append(f) or factor(f))
    f = P([1])
    for text in factors:
        f = f * P.parse(text)
    ok, found = is_irreducible(f)
    assert (ok, found) == (witness is None, witness and P.parse(witness))
    assert len(calls) == 1


@st.composite
def monic_poly(draw, min_deg=2, max_deg=6):
    deg = draw(st.integers(min_deg, max_deg))
    return P(draw(st.lists(st.integers(-5, 5), min_size=deg, max_size=deg)) + [1])


def _sympy_poly(f):
    return sympy.Poly(list(reversed(f.coeffs)), sympy.Symbol("x"))


@given(monic_poly())
def test_irreducibility_matches_sympy(f):
    ok, witness = is_irreducible(f)
    assert ok == _sympy_poly(f).is_irreducible
    if not ok:
        assert 1 <= witness.degree < f.degree
        assert f.divmod_monic(witness)[1].is_zero()


@given(nonzero_poly(max_deg=5), monic_poly(min_deg=0, max_deg=3))
def test_divmod_monic(f, g):
    q, r = f.divmod_monic(g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_squarefree_decided_by_the_chain():
    assert sturm_sequence(P.parse("T^3 - T + 1"))[-1].degree == 0
    # (T - 1)^2, (T^2 + 1)^2 and (T - 1)^3 (T + 1)^2
    for text in ("T^2 - 2*T + 1", "T^4 + 2*T^2 + 1", "T^5 - T^4 - 2*T^3 + 2*T^2 + T - 1"):
        with pytest.raises(NotSquarefreeError):
            sturm_sequence(P.parse(text))


@given(nonzero_poly(), nonzero_poly())
def test_chain_decides_squarefreeness(f, g):
    for h in (f, f * g * g):
        if _sympy_poly(h).sqf_part().degree() == h.degree:
            sturm_sequence(h)
        else:
            with pytest.raises(NotSquarefreeError):
                sturm_sequence(h)


def test_shift_and_eval():
    f = P.parse("T^3 - T + 1")
    g = f(P([2, 1]))  # f(T + 2)
    for x in range(-3, 4):
        assert g(x) == f(x + 2)
    assert f(Fraction(1, 2)) == Fraction(5, 8)
    assert f + 3 == 3 + f == P.parse("T^3 - T + 4")


@given(nonzero_poly(), nonzero_poly(), st.integers(-4, 4))
def test_composition_is_evaluation(f, g, x):
    assert f(g)(x) == f(g(x))
