"""RealBall arithmetic gives, endpoint for endpoint, what ``mpmath.iv`` gives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp
from mpmath.libmp import from_man_exp

from otkit.balls import RealBall, ball_pi
from otkit.config import precision

PRECISIONS = st.sampled_from([64, 192, 3072])


def _mpf(man: int, exp: int):
    return mp.make_mpf(from_man_exp(man, exp))      # exact, at any precision


magnitudes = st.builds(_mpf, st.integers(1, 2 ** 100), st.integers(-140, -80))


@st.composite
def intervals(draw):
    """Endpoints (lo, hi) that straddle 0, are negative, positive, or one point."""
    a, b = sorted([draw(magnitudes), draw(magnitudes)])
    kind = draw(st.sampled_from(["straddle", "negative", "positive", "point"]))
    if kind == "straddle":
        return -a, b
    if kind == "negative":
        return -b, -a
    return (a, b) if kind == "positive" else (a, a)


operands = st.one_of(
    st.integers(-10 ** 40, 10 ** 40),
    st.fractions(max_denominator=10 ** 25).filter(lambda q: abs(q) < 10 ** 12),
    st.floats(-1e12, 1e12),
    magnitudes,
    st.builds(lambda m: -m, magnitudes),
)


def _iv(x):
    """``x`` as an iv interval, the way the balls converted operands through iv."""
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _same(ball: RealBall, ref) -> bool:
    return ball.v == ref._mpi_


def _both(ball_op, iv_op):
    """Both results, or both exception types when either raises."""
    out = []
    for op in (ball_op, iv_op):
        try:
            out.append(op())
        except (ArithmeticError, ValueError) as exc:
            out.append(type(exc))
    return out


@settings(max_examples=80)
@given(PRECISIONS, intervals(), operands)
def test_binary_operations_match_iv(bits, ends, y):
    with precision(bits):
        x, X = RealBall.from_endpoints(*ends), iv.mpf(list(ends))
        assert x.v == X._mpi_
        Y = _iv(y)
        assert RealBall(y).v == Y._mpi_
        assert _same(x + y, X + Y) and _same(y + x, Y + X)
        assert _same(x - y, X - Y) and _same(y - x, Y - X)
        assert _same(x * y, X * Y) and _same(y * x, Y * X)
        assert _same(x / y, X / Y) and _same(y / x, Y / X)
        b = RealBall(y)
        assert _same(x * b, X * Y) and _same(b / x, Y / X)


@settings(max_examples=60)
@given(PRECISIONS, intervals())
def test_unary_operations_match_iv(bits, ends):
    with precision(bits):
        x, X = RealBall.from_endpoints(*ends), iv.mpf(list(ends))
        assert _same(-x, -X) and _same(abs(x), abs(X)) and _same(+x, +X)
        for e in (0, 1, 2, 3, -2):
            got, want = _both(lambda: (x ** e).v, lambda: (X ** e)._mpi_)
            assert got == want
        for name in ("sqrt", "exp", "log"):
            got, want = _both(lambda: getattr(x, name)().v,
                              lambda: getattr(iv, name)(X)._mpi_)
            assert got == want, name
        if x.is_positive():
            assert _same(x.cbrt(), iv.exp(iv.log(X) / 3))


@pytest.mark.parametrize("bits", [64, 192, 3072])
def test_constants_and_special_values_match_iv(bits):
    with precision(bits):
        assert _same(ball_pi(), +iv.pi)
        for x in (float("nan"), mp.nan, float("inf"), -mp.inf, "0.1", "-2.5e-30"):
            assert RealBall(x).v == iv.mpf(x)._mpi_
        assert RealBall.from_endpoints(0.1, 0.3).v == iv.mpf([0.1, 0.3])._mpi_
        assert RealBall.from_endpoints(-3, 2 ** 200 + 1).v == iv.mpf([-3, 2 ** 200 + 1])._mpi_
    with pytest.raises(ValueError):
        RealBall.from_endpoints(1, 0)
