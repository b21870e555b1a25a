import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf

import otkit.embeddings
from otkit.balls import RealBall
from otkit.config import PrecisionError, precision, working_precision
from otkit.embeddings import EmbeddingTable
from otkit.orders import build_order, maximalize
from otkit.polynomials import IntPolynomial
from otkit.roots import (EmbeddingSet, NotSquarefreeError, _krawczyk_contract,
                         _newton, isolate_roots)

P = IntPolynomial


def test_known_real_roots():
    e = isolate_roots(P.parse("T^3 + T^2 - 1"), 128)
    assert e.s == 1 and e.t == 1
    r = float(e.real[0].mid())
    assert abs(r - 0.7548776662466927) < 1e-12
    e2 = isolate_roots(P.parse("T^3 + T + 1"), 128)
    assert abs(float(e2.real[0].mid()) + 0.6823278038280193) < 1e-12


def test_exact_rational_roots():
    e = isolate_roots(P.parse("T^2 - 1"), 96)
    assert [float(b.mid()) for b in e.real] == [-1.0, 1.0]
    assert all(float(b.rad()) == 0 for b in e.real)


def test_signature_counts():
    e = isolate_roots(P.parse("T^4 - T - 1"), 96)
    assert (e.s, e.t) == (2, 1)
    e9 = isolate_roots(P.parse("T^9 - T^3 + 2*T - 1"), 96)
    assert e9.s + 2 * e9.t == 9


def test_nonsquarefree_rejected():
    with pytest.raises(NotSquarefreeError):
        isolate_roots(P.parse("T^2 - 2*T + 1"))


def _balls(e):
    return e.real + [b for z in e.complex_upper for b in (z.re, z.im)]


# T^5 - T - 3 has two complex places; T^4 - 2*T^2 - 2 has a purely imaginary root
@pytest.mark.parametrize("text", ["T^3 - T + 1", "T^5 - T - 3", "T^4 - 2*T^2 - 2"])
def test_refinement_shrinks(text):
    e = isolate_roots(P.parse(text), 96)
    e2 = e.refine(256)
    assert isinstance(e2, EmbeddingSet)
    assert (e2.s, e2.t, e2.precision_bits) == (e.s, e.t, 256)
    for coarse, fine in zip(_balls(e), _balls(e2)):
        assert coarse.contains(fine)
        assert float(fine.rad()) < float(coarse.rad()) / 2
    if text == "T^4 - 2*T^2 - 2":
        assert e.complex_upper[0].re.contains_zero()
        assert e2.complex_upper[0].re.contains_zero()


TABLE_FIELDS = ["T^3 - T + 1", "T^5 - T - 3", "T^4 - 2*T^2 - 2",
                "T^3 - 3*T + 1", "T^3 + T^2 - 2*T + 8"]   # the last has index 2


def _table(text):
    order, _, _ = maximalize(build_order(P.parse(text)))
    return order, EmbeddingTable(order)


@pytest.mark.parametrize("text", TABLE_FIELDS)
def test_table_values_match_numpy(text):
    """Ball values of random elements agree with a float evaluation of their
    power-basis polynomials at numpy's roots, and are tight."""
    order, table = _table(text)
    f = order.ambient.f
    roots = np.roots([float(c) for c in reversed(f.coeffs)])
    places = table.emb.real + table.emb.complex_upper
    rng = random.Random(text)
    for _ in range(10):
        x = order.element([rng.randint(-9, 9) for _ in range(order.n)])
        poly = [float(c) for c in reversed(order.to_power_fractions(x))]
        values = ([table.real_value(x, j) for j in range(table.s)]
                  + [table.complex_value(x, j) for j in range(table.t)])
        for j, (place, value) in enumerate(zip(places, values)):
            root = min(roots, key=lambda r: abs(r - complex(place.mid())))
            want = np.polyval(poly, root)
            assert abs(complex(value.mid()) - want) <= 1e-9 * max(1.0, abs(want))
            parts = [value] if j < table.s else [value.re, value.im]
            assert all(b.rad() < mpf(2) ** -150 for b in parts)


@pytest.mark.parametrize("text", TABLE_FIELDS)
def test_minkowski_columns_and_float_rows(text):
    """Column c of the Minkowski matrix is the embedding of basis element c,
    and the float rows are its midpoints."""
    order, table = _table(text)
    s, t, n = table.s, table.t, order.n
    M = table.minkowski_matrix()
    assert len(M) == n and all(len(row) == n for row in M)
    for c in range(n):
        e = order.element([int(i == c) for i in range(n)])
        col = ([table.real_value(e, j) for j in range(s)]
               + [b for j in range(t) for b in (table.complex_value(e, j).re,
                                                table.complex_value(e, j).im)])
        for b, m in zip(col, (row[c] for row in M)):
            assert (b.lower, b.upper) == (m.lower, m.upper)
    realf, cplxf = table.float_rows()
    mids = [[float(b.mid()) for b in row] for row in M]
    assert realf.tolist() == mids[:s]
    assert cplxf.tolist() == [[complex(a, b) for a, b in zip(re, im)]
                              for re, im in zip(mids[s::2], mids[s + 1::2])]


# the second quartic pair comes from the (2, 2, 500) scan: disc -400, where
# the second polynomial's order has index 4 in the maximal order
@pytest.mark.parametrize("first, second", [
    ("T^3 - T + 1", "T^3 - T - 1"),
    ("T^4 - T^2 - 1", "T^4 - 2*T^3 - 2*T^2 - 2*T + 1"),
])
def test_root_of_proves_equal_fields(first, second):
    for a, b in ((first, second), (second, first)):
        order, table = _table(a)
        g = P.parse(b)
        x = table.root_of(g)
        assert x is not None and x.order is order
        assert g(x) == order.zero()


def test_root_of_rejects_other_field():
    # Q(6^(1/3)) and Q(12^(1/3)): both of signature (1, 1) and disc -972, but
    # T^3 + 6 has three roots mod 7 and T^3 + 12 none, so 7 splits differently
    (oa, a), (ob, b) = _table("T^3 + 6"), _table("T^3 + 12")
    assert oa.disc == ob.disc == -972
    assert [r for r in range(7) if (r ** 3 + 6) % 7 == 0] == [1, 2, 4]
    assert [r for r in range(7) if (r ** 3 + 12) % 7 == 0] == []
    assert a.root_of(ob.ambient.f) is None
    assert b.root_of(oa.ambient.f) is None
    assert a.root_of(oa.ambient.f) is not None


def _roots_sum_product(e):
    with precision(e.precision_bits):
        total = RealBall(0)
        prod = RealBall(1)
        for b in e.real:
            total = total + b
            prod = prod * b
        for z in e.complex_upper:
            total = total + z.re * 2
            prod = prod * z.abs2()
    return total, prod


@pytest.mark.parametrize("text", ["T^3 - T + 1", "T^4 - T - 1",
                                  "T^5 - T^3 - 2*T^2 + 1", "T^3 + 2*T + 2000"])
def test_root_sum_and_product_invariants(text):
    f = P.parse(text)
    e = isolate_roots(f, 128)
    total, prod = _roots_sum_product(e)
    n = f.degree
    a_top = f.coeffs[-2]
    assert total.contains(-a_top)
    assert prod.contains((-1) ** n * f.coeffs[0])


def test_enclosures_disjoint_and_upper():
    e = isolate_roots(P.parse("T^7 - T - 3"), 96)
    for z in e.complex_upper:
        assert z.im.is_positive()
    mids = sorted(float(b.mid()) for b in e.real)
    for a, b in zip(mids, mids[1:]):
        assert a < b


def _log2_width(lo, hi):
    w = hi - lo
    return w.numerator.bit_length() - w.denominator.bit_length()


def test_refine_reaches_requested_width():
    e = isolate_roots(P.parse("T^3 - T + 1")).refine(16384)
    assert e.precision_bits == 16384
    (lo, hi), = e._real_intervals
    (a, b, c, d), = e._complex_rects
    assert max(_log2_width(lo, hi), _log2_width(a, b), _log2_width(c, d)) < -16384


@pytest.mark.parametrize("ball, floor", [
    (RealBall(2 ** 60 + Fraction(7, 2)), 2 ** 60 + 3),
    (RealBall(3 - Fraction(1, 2 ** 100)), 2),
    (RealBall(-Fraction(1, 2 ** 100)), -1),
])
def test_floor_strict_is_exact(ball, floor):
    # these floors are wrong through float64: 2^60 and 3 for the first two
    assert ball.floor_strict() == floor


def test_table_escalates_through_its_refinements():
    order, table = _table("T^3 - T + 1")
    assert table.at(table.bits) is table and table.bits == 192
    asked = []

    def undecided(tb):
        asked.append((tb.bits, tb.emb.precision_bits, working_precision()))

    with pytest.raises(PrecisionError):
        table.decide(undecided)
    # doubling, with the last question at the cap itself
    bits = [192 * 2 ** i for i in range(7)] + [16384]
    assert asked == [(b, b, b) for b in bits]
    # the refinements are cached, and shared with the refined tables
    assert table.at(384).at(768) is table.at(768)
    assert all(r.contains(f) for r, f in zip(table.rows[0], table.at(768).rows[0]))


def test_a_table_above_the_cap_asks_once(monkeypatch):
    # a table refined past MAX_BITS still asks its question at its own bits
    monkeypatch.setattr(otkit.embeddings, "MAX_BITS", 256)
    _, table = _table("T^3 - T + 1")
    tb = table.at(384)
    assert tb.decide(lambda t: t.bits) == 384
    asked = []
    with pytest.raises(PrecisionError):
        table.decide(lambda t: asked.append(t.bits))
    assert asked == [192, 256]


def test_refinement_raises_below_working_precision():
    f = P.parse("T^3 - T + 1")
    fp = f.derivative()
    e = isolate_roots(f, 64)
    target = mpf(2) ** -1000
    with precision(64):
        with pytest.raises(PrecisionError):
            _krawczyk_contract(f, fp, e._complex_rects[0], target)
        with pytest.raises(PrecisionError):
            _newton(f, fp, *e._real_intervals[0], target)
