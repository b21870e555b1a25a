import random
from math import lcm

import pytest

from otkit.intmat import charpoly
from otkit.orders import (ReduciblePolynomialError, build_order, maximalize,
                          signature)
from otkit.polynomials import IntPolynomial

P = IntPolynomial


def test_build_order_validates():
    with pytest.raises(ReduciblePolynomialError) as exc:
        build_order(P.parse("T^3 - T + 6"))
    assert exc.value.factor == P.parse("T + 2")
    mo = build_order(P.parse("T^3 - T + 1"))
    assert mo.disc_f == -23
    assert build_order(P.parse("T^4 - T - 1")).disc_f == -283


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
    mo = build_order(P.parse("T^3 + T^2 - 1"))
    po = mo.power_suborder()
    assert P(charpoly(po.mult_matrix(po.tbar()))) == mo.f
    assert po.mult_matrix(po.one()) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_norm_trace_examples():
    for m in (1, 3, 7):
        po = build_order(P([-1, m, 0, 1])).power_suborder()
        one, tb = po.one(), po.tbar()
        assert abs(po.norm(one - tb)) == m
    po = build_order(P.parse("T^3 + 4*T^2 + 2*T + 2")).power_suborder()
    assert po.trace(po.tbar()) == -4


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
    po = build_order(P([-1, 27, 0, 1])).power_suborder()
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
    mo = build_order(P([-1, 8, 0, 1]))  # index-5 enlargement exists
    po = mo.power_suborder()
    omax, index, _ = maximalize(mo)
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


def test_order_serialization_roundtrip():
    from otkit.orders import SubOrder

    order, index, cert = maximalize(build_order(P([-1, 8, 0, 1])))
    d = order.to_dict(cert)
    back = SubOrder.from_dict(d)
    assert back.basis_num == order.basis_num
    assert back.den == order.den
    assert back.disc == order.disc
    assert d["certified"] is True


def test_unit_inverse_and_division(disc23):
    order, _, _, ug = disc23
    u = ug.generators[0]
    ui = order.inverse_unit(u)
    assert u * ui == order.one()
    assert order.divide_exact(u * u, u) == u
    assert order.divide_exact(order.one(), order.element([2, 0, 0])) is None
