import random
from copy import copy
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mpf
from mpmath.libmp import to_rational

import otkit.embeddings
import otkit.orders
import otkit.roots
from otkit.balls import ComplexBall, RealBall
from otkit.config import PrecisionError, precision, working_precision
from otkit.embeddings import EmbeddingTable
from otkit.geometry import _scan_polynomials, min_volume_scan
from otkit.orders import build_order, maximalize
from otkit.polynomials import IntPolynomial, NotSquarefreeError
from otkit.roots import _contract, _polish, isolate_roots

P = IntPolynomial


def _signature(roots):
    real = sum(isinstance(z, RealBall) for z in roots)
    return real, len(roots) - real


def test_known_real_roots():
    e = isolate_roots(P.parse("T^3 + T^2 - 1"), 128)
    assert [type(z) for z in e] == [RealBall, ComplexBall]
    assert abs(float(e[0].mid()) - 0.7548776662466927) < 1e-12
    e2 = isolate_roots(P.parse("T^3 + T + 1"), 128)
    assert abs(float(e2[0].mid()) + 0.6823278038280193) < 1e-12


def test_exact_rational_roots():
    f = P.parse("T^2 - 1")
    e = isolate_roots(f, 96)
    assert [float(b.mid()) for b in e] == [-1.0, 1.0]
    assert all(float(b.rad()) == 0 for b in e)
    e2 = _polish(f, e, 384)
    assert [float(b.mid()) for b in e2] == [-1.0, 1.0]
    assert all(b.rad() == 0 for b in e2)


@pytest.mark.parametrize("text, roots", [
    # the isolating interval of sqrt(2) starts at the integer root 0
    ("T^3 - 2*T", [-2 ** 0.5, 0, 2 ** 0.5]),
    ("T^3 - T^2 - 2*T + 2", [-2 ** 0.5, 1, 2 ** 0.5]),
    ("T^3 - 3*T^2 + T + 1", [1 - 2 ** 0.5, 1, 1 + 2 ** 0.5]),
])
def test_integer_and_irrational_roots_together(text, roots):
    f = P.parse(text)
    e = _polish(f, isolate_roots(f, 96), 256)
    assert _signature(e) == (3, 0)
    for b, r in zip(e, roots):
        assert abs(float(b.mid()) - r) < 1e-12
        assert b.rad() < mpf(2) ** -250


def test_signature_counts():
    assert _signature(isolate_roots(P.parse("T^4 - T - 1"), 96)) == (2, 1)
    s, t = _signature(isolate_roots(P.parse("T^9 - T^3 + 2*T - 1"), 96))
    assert s + 2 * t == 9


def test_nonsquarefree_rejected():
    with pytest.raises(NotSquarefreeError):
        isolate_roots(P.parse("T^2 - 2*T + 1"))


def _balls(e):
    return [b for z in e for b in ((z,) if isinstance(z, RealBall) else (z.re, z.im))]


# T^5 - T - 3 has two complex places; T^4 - 2*T^2 - 2 has a purely imaginary root
@pytest.mark.parametrize("text", ["T^3 - T + 1", "T^5 - T - 3", "T^4 - 2*T^2 - 2"])
def test_refinement_shrinks(text):
    f = P.parse(text)
    e = isolate_roots(f, 96)
    e2 = _polish(f, e, 256)
    assert [type(z) for z in e2] == [type(z) for z in e]
    for coarse, fine in zip(_balls(e), _balls(e2)):
        assert coarse.contains(fine)
        assert float(fine.rad()) < float(coarse.rad()) / 2
    if text == "T^4 - 2*T^2 - 2":
        assert e[-1].re.contains_zero()
        assert e2[-1].re.contains_zero()


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
    f = order.f
    roots = np.roots([float(c) for c in reversed(f.coeffs)])
    places = table._roots
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
    """Column c of the rows (the Minkowski matrix) is the embedding of basis
    element c, and a float solve against the rows' midpoints gives back that
    basis element."""
    order, table = _table(text)
    s, t, n = table.s, table.t, order.n
    M = table.rows
    assert len(M) == n and all(len(row) == n for row in M)
    mids = np.array([[float(b.mid()) for b in row] for row in M])
    for c in range(n):
        e = order.element([int(i == c) for i in range(n)])
        col = ([table.real_value(e, j) for j in range(s)]
               + [b for j in range(t) for b in (table.complex_value(e, j).re,
                                                table.complex_value(e, j).im)])
        for b, m in zip(col, (row[c] for row in M)):
            assert (b.lower, b.upper) == (m.lower, m.upper)
        x = np.linalg.solve(mids, [float(b.mid()) for b in col])
        assert np.round(x).tolist() == list(e.coords)


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


@pytest.mark.parametrize("text", ["T^3 - T + 1", "T^4 - T^3 + 2*T - 1", "T^5 - T - 3"])
def test_nearest_gives_back_the_element_of_its_embeddings(text):
    # the midpoints of x's embeddings round back to x: at the base table, at
    # a refinement, and there also for coordinates near 2^300; float values
    # of small elements at the base table too
    order, table = _table(text)
    rng = random.Random(f"nearest/{text}")
    for tb, size in ((table, 2 ** 20), (table.at(768), 2 ** 20), (table.at(768), 2 ** 300)):
        with precision(tb.bits):
            for _ in range(10):
                x = order.element([rng.randint(-size, size) for _ in range(order.n)])
                values = [tb.real_value(x, j).mid() for j in range(tb.s)]
                for j in range(tb.t):
                    z = tb.complex_value(x, j)
                    values += [z.re.mid(), z.im.mid()]
                assert tb.nearest(values) == x
                if tb is table:
                    assert tb.nearest([float(v) for v in values]) == x
    assert table.at(768).bits == 768
    singular = copy(table)
    singular.fixed, singular._inverse = [[1] * order.n] * order.n, None
    with pytest.raises(ArithmeticError):
        singular.nearest([0] * order.n)


def test_root_of_rejects_other_field():
    # Q(6^(1/3)) and Q(12^(1/3)): both of signature (1, 1) and disc -972, but
    # T^3 + 6 has three roots mod 7 and T^3 + 12 none, so 7 splits differently
    (oa, a), (ob, b) = _table("T^3 + 6"), _table("T^3 + 12")
    assert oa.disc == ob.disc == -972
    assert [r for r in range(7) if (r ** 3 + 6) % 7 == 0] == [1, 2, 4]
    assert [r for r in range(7) if (r ** 3 + 12) % 7 == 0] == []
    assert a.root_of(ob.f) is None
    assert b.root_of(oa.f) is None
    assert a.root_of(oa.f) is not None


def _roots_sum_product(e, bits):
    with precision(bits):
        total = RealBall(0)
        prod = RealBall(1)
        for z in e:
            if isinstance(z, RealBall):
                total = total + z
                prod = prod * z
            else:
                total = total + z.re * 2
                prod = prod * z.abs2()
    return total, prod


@pytest.mark.parametrize("text", ["T^3 - T + 1", "T^4 - T - 1",
                                  "T^5 - T^3 - 2*T^2 + 1", "T^3 + 2*T + 2000"])
def test_root_sum_and_product_invariants(text):
    f = P.parse(text)
    total, prod = _roots_sum_product(isolate_roots(f, 128), 128)
    n = f.degree
    a_top = f.coeffs[-2]
    assert total.contains(-a_top)
    assert prod.contains((-1) ** n * f.coeffs[0])


def test_enclosures_disjoint_and_upper():
    e = isolate_roots(P.parse("T^7 - T - 3"), 96)
    s, t = _signature(e)
    for z in e[s:]:
        assert isinstance(z, ComplexBall) and z.im.is_positive()
    mids = [float(b.mid()) for b in e[:s]]
    for a, b in zip(mids, mids[1:]):
        assert a < b


def _log2_width(b):
    w = Fraction(*to_rational(b.upper._mpf_)) - Fraction(*to_rational(b.lower._mpf_))
    return w.numerator.bit_length() - w.denominator.bit_length()


def test_refine_reaches_requested_width():
    # checked on what the contraction returns, before rounding to 16384 bits
    tb = _table("T^3 - T + 1")[1].at(16384)
    assert tb.bits == 16384
    x, z = tb._roots
    assert isinstance(x, RealBall) and isinstance(z, ComplexBall)
    assert max(_log2_width(x), _log2_width(z.re), _log2_width(z.im)) < -16384 - 16


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
        asked.append((tb.bits, working_precision()))

    with pytest.raises(PrecisionError):
        table.decide(undecided)
    # doubling, with the last question at the cap itself
    bits = [192 * 2 ** i for i in range(7)] + [16384]
    assert asked == [(b, b) for b in bits]
    # the refinements are cached, and shared with the refined tables
    assert table.at(384).at(768) is table.at(768)
    assert all(r.contains(f) for r, f in zip(table.rows[0], table.at(768).rows[0]))


def test_refinements_stay_on_the_doubling_ladder():
    _, table = _table("T^3 - T + 1")
    assert table.at(1000) is table.at(1536) and table.at(1000).bits == 1536
    assert table.at(1536).at(2000) is table.at(3072)
    # past the last rung below the cap, the cap itself
    assert table.at(13000) is table.at(16384) and table.at(13000).bits == 16384
    assert sorted(table._finer) == [1536, 3072, 16384]


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
    e = isolate_roots(f, 64)
    target = mpf(2) ** -1000
    assert [type(z) for z in e] == [RealBall, ComplexBall]
    for z in e:
        with precision(64):
            with pytest.raises(PrecisionError):
                _contract(f, f.derivative(), z, target)


def _count_sturm_sequences(monkeypatch, module):
    calls = []
    original = module.sturm_sequence

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(module, "sturm_sequence", counted)
    return calls


def test_one_sturm_chain_per_isolation(monkeypatch):
    chains = _count_sturm_sequences(monkeypatch, otkit.roots)
    order, table = _table("T^7 - 3*T^5 - T^4 + T^3 + 3*T^2 + T - 1")    # s = 5
    f = order.f
    assert table.s == 5 and chains == [f]
    table.at(1000)
    assert chains == [f]


def test_scan_builds_sturm_chains_only_to_isolate_roots(monkeypatch):
    # the sign of disc f decides the signature, so no chain is built per
    # scanned polynomial
    signatures = _count_sturm_sequences(monkeypatch, otkit.orders)
    isolations = _count_sturm_sequences(monkeypatch, otkit.roots)
    records = min_volume_scan(1, 1, 40)
    assert records
    assert signatures == []
    # one isolation per table: one per field that reaches its unit group
    assert 0 < len(isolations) <= len(list(_scan_polynomials(3, 1)))
    assert len(set(isolations)) == len(isolations)


def test_huge_constant_is_seeded_by_polyroots(monkeypatch):
    # 10^320 has no float image, so only mpmath's polyroots can seed the
    # complex pair
    c = 10 ** 320 + 7
    f = IntPolynomial([c, 1, 0, 1])
    assert not np.isfinite(float(mpf(c)))
    calls = []
    polyroots = otkit.roots.mp.polyroots
    monkeypatch.setattr(otkit.roots.mp, "polyroots",
                        lambda *a, **kw: calls.append(a) or polyroots(*a, **kw))
    e = isolate_roots(f)
    assert len(calls) == 1 and _signature(e) == (1, 1)
    for z in e:
        v = f(z)
        assert v.contains_zero() if isinstance(z, RealBall) else \
            v.re.contains_zero() and v.im.contains_zero()
    total, prod = _roots_sum_product(e, working_precision())
    assert total.contains(0) and prod.contains(-c)


@pytest.mark.parametrize("error, falls_back", [
    (np.linalg.LinAlgError("eigenvalues did not converge"), True),
    (RuntimeError("not a float failure"), False),
])
def test_only_float_failures_fall_back_to_polyroots(monkeypatch, error, falls_back):
    def failing(coeffs):
        raise error

    monkeypatch.setattr(otkit.roots.np, "roots", failing)
    f = IntPolynomial([1, -1, 0, 1])
    if falls_back:
        assert _signature(isolate_roots(f)) == (1, 1)
    else:
        with pytest.raises(RuntimeError, match="not a float failure"):
            isolate_roots(f)
