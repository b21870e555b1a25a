import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, example, given, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_quo, gf_sqf_part

import otkit.geometry
from otkit import fpx
from otkit.geometry import min_volume_scan
from otkit.intmat import charpoly, identity
from otkit.orders import (ReduciblePolynomialError, SubOrder, _p_enlarge, build_order,
                          dedekind_maximal, maximalize, signature)
from otkit.polynomials import IntPolynomial, is_irreducible, poly_discriminant

P = IntPolynomial


def test_build_order_validates():
    with pytest.raises(ReduciblePolynomialError) as exc:
        build_order(P.parse("T^3 - T + 6"))
    assert exc.value.factor == P.parse("T + 2")
    mo = build_order(P.parse("T^3 - T + 1"))
    assert mo.disc_f == -23
    # Z[T]/(f) is the SubOrder with basis I
    f = P.parse("T^4 - T - 1")
    po = build_order(f)
    assert isinstance(po, SubOrder)
    assert po.index == 1 and po.den == 1 and po.basis_num == identity(4)
    assert po.disc == po.disc_f == poly_discriminant(f) == -283


def test_maximal_power_basis_comes_back_unchanged():
    # disc(T^3 - T + 1) = -23 is squarefree, so Z[T] is maximal as it stands
    po = build_order(P.parse("T^3 - T + 1"))
    order, index, cert = maximalize(po)
    assert order is po and (index, cert) == (1, True)


def test_signature_examples():
    assert tuple(signature(P.parse("T^3 - T + 1"))) == (1, 1)
    assert tuple(signature(P.parse("T^4 - T - 1"))) == (2, 1)


def test_mult_matrix_is_ring_hom(disc23):
    order, _, _, _ = disc23
    rng = random.Random(5)
    for _ in range(10):
        x = order.element([rng.randint(-4, 4) for _ in range(3)])
        y = order.element([rng.randint(-4, 4) for _ in range(3)])
        Mx, My = order.mult_matrix(x), order.mult_matrix(y)
        from otkit.intmat import mat_mul

        assert order.mult_matrix(x * y) == mat_mul(Mx, My)
        assert order.mult_matrix(x + y) == [[a + b for a, b in zip(ra, rb)]
                                            for ra, rb in zip(Mx, My)]
        assert order.norm(x * y) == order.norm(x) * order.norm(y)


def test_charpoly_of_generator_is_f():
    po = build_order(P.parse("T^3 + T^2 - 1"))
    assert P(charpoly(po.mult_matrix(po.tbar()))) == po.f
    assert po.mult_matrix(po.one()) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_norm_trace_examples():
    for m in (1, 3, 7):
        po = build_order(P([-1, m, 0, 1]))
        one, tb = po.one(), po.tbar()
        assert abs(po.norm(one - tb)) == m
    po = build_order(P.parse("T^3 + 4*T^2 + 2*T + 2"))
    M = po.mult_matrix(po.tbar())
    assert sum(M[i][i] for i in range(po.n)) == -4


def test_maximalize_published_indexes():
    expected = {8: 5, 16: 1, 24: 1, 32: 1, 40: 1, 48: 1, 56: 31, 64: 1, 72: 33}
    for m, want in expected.items():
        order, index, cert = maximalize(build_order(P([-1, m, 0, 1])))
        assert index == want, f"m={m}"
        assert cert
        assert order.disc * index ** 2 == -(4 * m ** 3 + 27)


def test_maximalize_discriminant_index_relation():
    rng = random.Random(11)
    for _ in range(12):
        coeffs = [rng.randint(-9, 9) for _ in range(3)] + [1]
        f = P(coeffs)
        if f.coeffs[0] == 0:
            continue
        try:
            mo = build_order(f)
        except ReduciblePolynomialError:
            continue
        order, index, _ = maximalize(mo)
        assert order.disc * index ** 2 == mo.disc_f


def test_ishida_integral_element():
    # 27 | m: (1 + T + T^2)/3 is integral
    order, index, _ = maximalize(build_order(P([-1, 27, 0, 1])))
    assert order.from_power_coords([1, 1, 1], 3) is not None
    assert index % 3 == 0
    # power order does not contain it
    po = build_order(P([-1, 27, 0, 1]))
    assert po.from_power_coords([1, 1, 1], 3) is None


def test_eisenstein_shift_family():
    # T^3 + 3kT - 1 with 3 not dividing k: shift by 1 is Eisenstein at 3,
    # so 3 never divides the index
    for k in (1, 2, 4, 5, 7, 8):
        f = P([-1, 3 * k, 0, 1])
        g = f(P([1, 1]))  # f(T + 1)
        assert all(c % 3 == 0 for c in g.coeffs[:-1])
        assert g.coeffs[0] % 9 != 0
        _, index, _ = maximalize(build_order(f))
        assert index % 3 != 0


def _move(x, order):
    """x in ``order``, through its power-basis coordinates; None if not integral."""
    vec = x.order.to_power_fractions(x)
    den = lcm(*(v.denominator for v in vec))
    return order.from_power_coords([int(v * den) for v in vec], den)


def test_coercion_between_orders():
    po = build_order(P([-1, 8, 0, 1]))  # index-5 enlargement exists
    omax, index, _ = maximalize(po)
    assert index == 5
    x = po.element([2, 3, -1])
    y = _move(x, omax)
    assert omax.to_power_fractions(y) == po.to_power_fractions(x)
    # an element of the big order with denominator 5 cannot move down
    frac_elt = next(
        omax.element([1 if i == c else 0 for i in range(3)])
        for c in range(3)
        if any(v.denominator == 5 for v in omax.to_power_fractions(
            omax.element([1 if i == c else 0 for i in range(3)])))
    )
    assert _move(frac_elt, po) is None


def test_unit_inverse_and_division(disc23):
    order, _, _, ug = disc23
    u = ug.generators[0]
    ui = order.inverse_unit(u)
    assert u * ui == order.one()
    assert order.divide_exact(u * u, u) == u
    assert order.divide_exact(order.one(), order.element([2, 0, 0])) is None


@pytest.mark.parametrize("exps", [(2, -3), (-1, 4), (-2, -1), (0, -5)])
def test_power_product_inverts_under_negated_exponents(quartic275, exps):
    order, _, _, ug = quartic275
    gens = ug.generators
    assert len(gens) == 2
    neg = [-e for e in exps]
    assert order.power_product(gens, exps) * order.power_product(gens, neg) == order.one()


def test_dedekind_agrees_with_round_2_on_the_published_scans(monkeypatch):
    # every (f, p) that the disc filter of the three scans tests by
    # Dedekind's criterion, reducible f included.  The scan settles the
    # mirror (-1)^n f(-T) with f, and T -> -T keeps Z[T] p-maximal or not,
    # so the mirrors of the recorded f are added back.
    calls = []

    def recorded(f, p):
        calls.append((f, p))
        return dedekind_maximal(f, p)

    monkeypatch.setattr(otkit.geometry, "dedekind_maximal", recorded)
    for s, bound, disc in ((1, 6, 200), (2, 2, 500), (3, 2, 4600)):
        min_volume_scan(s, bound, disc)
    pairs = set(calls)
    for f, p in calls:
        n = f.degree
        pairs.add((P([-c if (n - i) % 2 else c for i, c in enumerate(f.coeffs)]), p))
    assert len(calls) == len(set(calls)) == 882 and len(pairs) == 1748
    verdicts = [(dedekind_maximal(f, p),
                 _p_enlarge(SubOrder(f, poly_discriminant(f), identity(f.degree), 1), p) is None)
                for f, p in pairs]
    assert all(d == r for d, r in verdicts)
    assert sum(d for d, _ in verdicts) == 918


@pytest.mark.parametrize("text, p, maximal", [
    # Dedekind's cubic: Z[T] is not 2-maximal, and no order of K is monogenic
    ("T^3 - T^2 - 2*T - 8", 2, False),
    # Eisenstein at p, so f = x^n mod p
    ("T^4 + 2", 2, True),
    ("T^3 + 3", 3, True),
    # f = x^2 (x + 1)^2 mod 2, x^3 (x + 1) mod 3 and x^3 (x + 1)^2 mod 2: a
    # multiplicity >= p, where rad(f) is not f / gcd(f, f') mod p
    ("T^4 + T^2 - 2*T - 2", 2, True),
    ("T^4 + 3*T^2 - 2*T + 2", 2, False),
    ("T^4 + T^3 - 3*T^2 - 3*T - 3", 3, True),
    ("T^4 + T^3 - 6*T^2 + 9", 3, False),
    ("T^5 + 2*T^4 + T^3 - 2*T^2 - 2*T - 2", 2, True),
    ("T^5 + T^3 - 2*T^2 - 2*T - 2", 2, False),
])
def test_dedekind_criterion_hard_cases(text, p, maximal):
    mo = build_order(P.parse(text))
    assert mo.disc_f % (p * p) == 0
    assert dedekind_maximal(mo.f, p) is maximal
    assert (_p_enlarge(mo, p) is None) is maximal
    # the radical and the verdict as sympy's galoistools give them
    fbar = gf_from_int_poly(mo.f.coeffs[::-1], p)
    g = gf_sqf_part(fbar, p, ZZ)
    assert fpx.radical(fpx.reduce(mo.f.coeffs, p), p) == g[::-1]
    h = gf_quo(fbar, g, p, ZZ)
    gh = (P(g[::-1]) * P(h[::-1]) - mo.f).coeffs
    F = gf_from_int_poly([c // p for c in reversed(gh)], p)
    assert (gf_gcd(gf_gcd(g, h, p, ZZ), F, p, ZZ) == [1]) is maximal


def test_dedekind_cubic_has_index_2():
    order, index, cert = maximalize(build_order(P.parse("T^3 - T^2 - 2*T - 8")))
    assert (index, order.disc, cert) == (2, -503, True)


def test_structure_constants_are_built_on_first_use():
    # Z[T] is closed by construction, so its table waits for a product; a
    # basis given directly is checked for closure at its first product
    po = build_order(P.parse("T^3 - T + 1"))
    assert "_table" not in vars(po)
    assert (po.tbar() * po.tbar()).coords == (0, 0, 1)
    assert "_table" in vars(po)
    # Z + Z T + Z T^2/2 in Q(2^(1/3)): (T^2/2)^2 = -T/2 is not in it
    mo = build_order(P.parse("T^3 + 2"))
    basis = [[2, 0, 0], [0, 2, 0], [0, 0, 1]]
    lattice = SubOrder(mo.f, mo.disc_f, basis, 2)
    with pytest.raises(ValueError, match="not multiplicatively closed"):
        lattice.tbar() * lattice.tbar()


def test_enlarged_orders_are_checked_for_closure_when_built():
    mo = build_order(P([-1, 8, 0, 1]))  # index-5 enlargement exists
    bigger = _p_enlarge(mo, 5)
    assert bigger is not None and "_table" in vars(bigger)


small = st.integers(-6, 6)


@given(st.integers(3, 4).flatmap(lambda n: st.lists(small, min_size=n, max_size=n)),
       st.lists(small, min_size=8, max_size=8))
@example([-72, 0, 0, 0], [1, -2, 3, 5, 0, 4, -1, 2])   # index 72
@example([-54, 0, 0], [2, 1, -3, 4, 1, 1, 0, 0])       # index 27
def test_products_agree_with_polynomial_arithmetic(low, xy):
    # x * y read back as power-basis fractions is the product of the power
    # forms of x and y, reduced by f, in Z[T] and in the maximal order
    f = P(low + [1])
    assume(poly_discriminant(f) != 0 and is_irreducible(f)[0])
    n = f.degree
    po = build_order(f)
    for order in (po, maximalize(po)[0]):
        x, y = order.element(xy[:n]), order.element(xy[4:4 + n])
        px, py = (P([v * order.den for v in order.to_power_fractions(z)]) for z in (x, y))
        rem = (px * py).divmod_monic(f)[1].coeffs
        want = [Fraction(c, order.den ** 2) for c in rem]
        assert order.to_power_fractions(x * y) == want + [0] * (n - len(want))
