import pytest
from hypothesis import settings

from otkit.geometry import _as_complex_list
from otkit.orders import build_order, maximalize
from otkit.polynomials import IntPolynomial
from otkit.unitgroup import unit_group

settings.register_profile("suite", max_examples=25, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

_FIELD_CACHE: dict = {}


def field_data(text_or_poly):
    """Maximal order + certified units, memoized across the whole run."""
    f = (IntPolynomial.parse(text_or_poly)
         if isinstance(text_or_poly, str) else text_or_poly)
    key = f.coeffs
    if key not in _FIELD_CACHE:
        order, index, cert = maximalize(build_order(f))
        ug = unit_group(order)
        _FIELD_CACHE[key] = (order, index, cert, ug)
    return _FIELD_CACHE[key]


def apply_group_element(point, elem, dom):
    """Act by (translation a, unit exponents e) on a point of the cell ``dom``:
    z |-> sigma(eps^e) z + sigma(a), in floats."""
    a, exps, *_ = elem
    s = dom.s
    table = dom.table
    w = dom.order.power_product(dom.eps, exps)
    pts = _as_complex_list(point, s)
    out = []
    for j in range(s):
        sc = float(table.real_value(w, j).mid())
        sh = float(table.real_value(a, j).mid())
        out.append(pts[j] * sc + sh)
    scz = table.complex_value(w, 0)
    shz = table.complex_value(a, 0)
    zc = pts[s] * complex(float(scz.re.mid()), float(scz.im.mid())) \
        + complex(float(shz.re.mid()), float(shz.im.mid()))
    out.append(zc)
    return out


@pytest.fixture(scope="session")
def disc23():
    """The unique field of discriminant -23 (via T^3 + T^2 - 1)."""
    return field_data("T^3 + T^2 - 1")


@pytest.fixture(scope="session")
def disc23_alt():
    """The same field presented by T^3 - T + 1."""
    return field_data("T^3 - T + 1")


@pytest.fixture(scope="session")
def f2_field():
    """T^3 - T + 2: torsion of order 4."""
    return field_data("T^3 - T + 2")


@pytest.fixture(scope="session")
def quartic275():
    """The quartic of discriminant -275 (rank-2 unit group)."""
    return field_data("T^4 - T^3 + 2*T - 1")


@pytest.fixture(scope="session")
def fields():
    return field_data
