import random
from itertools import product

import pytest
from mpmath import mpf
from sympy import isprime

import otkit.embeddings
import otkit.unitgroup
from otkit.embeddings import EmbeddingTable
from otkit.intmat import charpoly, hnf
from otkit.orders import build_order, maximalize
from otkit.polynomials import IntPolynomial, resultant
from otkit.roots import isolate_roots
from otkit.unitgroup import (CHARACTER_PRIMES, InsufficientUnitsError, _character_kernel,
                             _roots_mod, _try_kth_root, _UnitLattice, certify_units,
                             j_ideal, torsion_group, totally_positive_generators, unit_group,
                             units_from_generators)

P = IntPolynomial


@pytest.mark.parametrize("poly", ["T^3 + T^2 - 1", "T^3 + 2*T + 2000",
                                  "T^4 - T^3 + 2*T - 1"])
def test_no_insert_after_full_rank(monkeypatch, poly):
    # the sweep stops at full rank, and certification replaces generators
    # instead of inserting roots
    full = []
    insert = _UnitLattice.insert

    def recorded(self, u):
        full.append(len(self.gens) >= self.rank)
        return insert(self, u)

    monkeypatch.setattr(_UnitLattice, "insert", recorded)
    order, _, _ = maximalize(build_order(P.parse(poly)))
    ug = unit_group(order)
    assert ug.certified_index_bound == 1
    assert full and not any(full)


def test_certified_regulator_disc23(disc23):
    order, index, cert, ug = disc23
    assert index == 1 and cert
    assert ug.certified_index_bound == 1
    assert abs(float(ug.regulator.mid()) - 0.28119957432) < 1e-9
    assert float(ug.regulator.rad()) < 1e-12


def test_two_root_steps_recover_generator(disc23):
    # u^6: a square root, then a cube root, each replacing the generator
    order, _, _, ug = disc23
    u = ug.generators[0]
    sub = certify_units(order, [u ** 6], table=ug.table)
    assert sub.certified_index_bound == 1
    (g,) = sub.generators
    assert g in (u, -u, order.inverse_unit(u), -order.inverse_unit(u))


def test_square_submission_recovers_generator(disc23):
    order, _, _, ug = disc23
    u = ug.generators[0]
    squared = certify_units(order, [u * u], table=ug.table)
    assert squared.certified_index_bound == 1
    assert squared.regulator.overlaps(ug.regulator)


@pytest.mark.parametrize("power", [
    lambda u: -(u * u),   # negative at the real place: u is a square root of -(-u^2)
    lambda u: u ** 3,
], ids=["-u^2", "u^3"])
def test_power_submission_recovers_generator(disc23, power):
    order, _, _, ug = disc23
    sub = certify_units(order, [power(ug.generators[0])], table=ug.table)
    assert sub.certified_index_bound == 1
    assert sub.regulator.overlaps(ug.regulator)


@pytest.mark.parametrize("exponents", [
    [(2, 0), (0, 1)],
    [(1, 0), (0, 3)],
    [(2, 0), (1, 1)],   # the missing root g1 has mixed signs at the real places
    [(2, 1), (0, 3)],   # index 6: a square root and a cube root
], ids=["g1^2,g2", "g1,g2^3", "g1^2,g1g2", "g1^2g2,g2^3"])
def test_rank_two_root_classes(quartic275, exponents):
    order, _, _, ug = quartic275
    cands = [order.power_product(ug.generators, e) for e in exponents]
    sub = certify_units(order, cands, table=ug.table)
    assert sub.certified_index_bound == 1
    assert sub.regulator.overlaps(ug.regulator)


@pytest.mark.parametrize("power, k", [
    (lambda u: u ** 2, 2),
    (lambda u: u ** 3, 3),
    (lambda u: u ** 5, 5),
    (lambda u: -(u * u), 2),
], ids=["u^2", "u^3", "u^5", "-u^2"])
def test_characters_keep_the_root_class(disc23, power, k):
    # the class of a +-k-th power is in every character kernel; at the other
    # primes the one class has no root and a character rules it out
    order, _, _, ug = disc23
    gens = [power(ug.generators[0])]
    for p in (2, 3, 5):
        assert _character_kernel(order, gens, p) == ([(1,)] if p == k else [])


@pytest.mark.parametrize("poly", ["T^7 - T - 6", "T^6 - T - 1", "T^3 + 2*T + 2000"])
def test_roots_mod_are_every_root(poly):
    f = P.parse(poly)
    for q in (2, 3, 5, 7, 29, 43, 97, 113, 181, 2003):
        assert _roots_mod(f, q) == [a for a in range(q)
                                    if sum(c * a ** j for j, c in enumerate(f.coeffs)) % q == 0]


def _normalized_classes(k, r):
    """Every class of F_k^r - 0 up to scaling: first nonzero coordinate 1."""
    return [c for c in product(range(k), repeat=r) if next(filter(None, c), 0) == 1]


@pytest.mark.parametrize("exponents, k, root_class", [
    ([(2, 0), (0, 1)], 2, (1, 0)),
    ([(1, 0), (0, 3)], 3, (0, 1)),
    ([(2, 0), (1, 1)], 2, (1, 0)),
], ids=["g1^2,g2", "g1,g2^3", "g1^2,g1g2"])
def test_characters_rank_two(quartic275, exponents, k, root_class):
    order, _, _, ug = quartic275
    gens = [order.power_product(ug.generators, e) for e in exponents]
    kernel = _character_kernel(order, gens, k)
    assert kernel == [root_class]
    # every class outside the kernel is free of a k-th root up to sign
    table = ug.table
    for cls in _normalized_classes(k, 2):
        if cls not in kernel:
            assert _try_kth_root(order, table, order.power_product(gens, cls), k) is None


@pytest.mark.parametrize("poly, exponents, root_class", [
    ("T^5 - T - 3", [(2, 0), (0, 1)], (1, 0)),                             # t = 2
    ("T^5 - T^3 - 2*T^2 + 1", [(1, 0, 0), (0, 2, 0), (0, 0, 1)], (0, 1, 0)),   # r = 3
], ids=["T^5 - T - 3", "T^5 - T^3 - 2*T^2 + 1"])
def test_characters_keep_the_square_class(poly, exponents, root_class):
    order, _, _, ug = _field(poly)
    gens = [order.power_product(ug.generators, e) for e in exponents]
    assert _character_kernel(order, gens, 2) == [root_class]


def _character(order, q, a, k):
    """x -> x^((q-1)/k) after the ring map T -> a mod q."""
    inv_den = pow(order.den, -1, q)
    basis = [sum(b * pow(a, j, q) for j, b in enumerate(col)) * inv_den % q
             for col in zip(*order.basis_num)]
    return lambda x: pow(sum(c * b for c, b in zip(x.coords, basis)), (q - 1) // k, q)


@pytest.mark.parametrize("exponents", [
    [(1, 0), (0, 1)],
    [(2, 0), (0, 1)],
    [(1, 0), (0, 3)],
    [(2, 0), (1, 1)],
    [(2, 1), (0, 3)],
    [(5, 0), (0, 7)],
])
def test_character_kernel_is_the_filtered_enumeration(quartic275, exponents):
    # the kernel is exactly the set of classes whose power product has every
    # character value 1, checked class by class with no linear algebra
    order, _, _, ug = quartic275
    gens = [order.power_product(ug.generators, e) for e in exponents]
    for k in (2, 3, 5, 7):
        qs = [q for q in range(2 * k + 1, 10 ** 4, 2 * k) if isprime(q) and order.den % q]
        classes = {c: order.power_product(gens, c) for c in _normalized_classes(k, 2)}
        survivors = sorted(
            c for c, v in classes.items()
            if all(_character(order, q, a, k)(v) == 1
                   for q in qs[:CHARACTER_PRIMES]
                   for a in _roots_mod(order.ambient.f, q)))
        assert _character_kernel(order, gens, k) == survivors


@pytest.mark.parametrize("poly, k", [
    ("T^3 - 2*T - 7", 13), ("T^3 - 2*T - 7", 31), ("T^3 - 2*T - 7", 67),
    ("T^3 + 2*T + 2000", 2), ("T^3 + 2*T + 2000", 13), ("T^3 + 2*T + 2000", 31),
    ("T^3 + 2*T + 2000", 67), ("T^3 + 2*T + 2000", 97),
])
def test_kth_root_of_a_large_power_decides_its_signs(poly, k):
    # u^k's smallest embedding is near e^-max_log and its coordinates near
    # e^max_log, max_log = k |log|u||: its real sign needs the bits of both,
    # past the escalation cap of 16384 bits for k = 97
    order, _, _, ug = _field(poly)
    u = ug.generators[0]
    logs = [k * float(x.mid()) for x in ug.table.log_vector(u)[:1]]
    w = _try_kth_root(order, ug.table, u ** k, k, logs)
    assert w in (u, -u)


@pytest.mark.parametrize("poly, regulator", [
    pytest.param("T^5 - T - 1", 0.432343878824973521495, id="T^5 - T - 1"),
    pytest.param("T^5 - T - 3", 13.5995724803910963678, id="T^5 - T - 3"),
    pytest.param("T^5 - T - 5", 35.8726333308896640030, id="T^5 - T - 5"),
    pytest.param("T^5 - T - 7", 41.6076616001937695796, id="T^5 - T - 7"),
])
def test_two_complex_places_certify(poly, regulator):
    # t = 2: the character kernels rule out every prime up to the index bound
    _, _, _, ug = _field(poly)
    assert ug.certified_index_bound == 1
    assert abs(float(ug.regulator.mid()) - regulator) < 1e-9


def test_no_real_place_refused():
    # with s = 0 the roots of unity are more than +-1
    order, _, _ = maximalize(build_order(P.parse("T^4 + 1")))
    with pytest.raises(ValueError):
        unit_group(order)
    with pytest.raises(ValueError):
        certify_units(order, [order.one()])


def test_insufficient_candidates_rejected(disc23):
    order, _, _, ug = disc23
    with pytest.raises(InsufficientUnitsError):
        certify_units(order, [order.one()], table=ug.table)


def test_totally_positive_examples():
    # T^3+T^2-1: the generator is already positive at the real place
    order, _, _, ug = _field("T^3 + T^2 - 1")
    tp = ug.totally_positive_generators[0]
    assert ug.table.sign_vector(tp) == [0]
    po = build_order(P.parse("T^3 + T + 1")).power_suborder()
    emb = isolate_roots(P.parse("T^3 + T + 1"))
    table = EmbeddingTable(po, emb)
    s_elt = po.tbar()
    tp2 = totally_positive_generators(po, table, [s_elt])
    # the root is negative, so the positive generator is -S
    assert tp2[0] == -s_elt
    assert table.sign_vector(tp2[0]) == [0]


def _field(text):
    from conftest import field_data

    return field_data(text)


def test_j_ideal_examples():
    order, _, _, ug = _field("T^3 + T^2 - 1")
    J = j_ideal(order, ug.totally_positive_generators)
    assert J.norm == 1
    # F_5: the two sign conventions give 5 and 19
    order5, _, _, ug5 = _field("T^3 - T + 5")
    g = ug5.totally_positive_generators[0]
    assert j_ideal(order5, [g]).norm == 5
    assert j_ideal(order5, [-g]).norm == 19


def test_j_ideal_rejects_trivial(disc23):
    order, _, _, _ = disc23
    with pytest.raises(ValueError):
        j_ideal(order, [])
    with pytest.raises(ValueError):
        j_ideal(order, [order.one()])


def test_torsion_examples():
    order, _, _, ug = _field("T^3 - 2*T - 7")
    tg = torsion_group(order, ug.totally_positive_generators)
    assert tg.order_of_torsion == 1526  # 2 * 7 * 109
    order1, _, _, ug1 = _field("T^3 - T + 1")
    tg1 = torsion_group(order1, ug1.totally_positive_generators)
    assert tg1.order_of_torsion == 1 and tg1.factors == []


def test_j_is_module_and_matches_torsion(f2_field):
    order, _, _, ug = f2_field
    gens = ug.totally_positive_generators
    J = j_ideal(order, gens)
    # an O-module: each basis column times each order basis element stays in J
    n = order.n
    for c in range(n):
        col = order.element([J.basis[r][c] for r in range(n)])
        assert all(J.contains(col * order.element([int(i == j) for j in range(n)]))
                   for i in range(n))
    assert J.norm == torsion_group(order, gens).order_of_torsion == 4


def test_curiosity_norm_identity():
    # s = t = 1: |J(tp)| = |N(1 - g)|, cross-checked through the resultant
    for text in ("T^3 - T + 2", "T^3 - 2*T - 5", "T^3 + 8*T - 4"):
        order, _, _, ug = _field(text)
        g = ug.totally_positive_generators[0]
        J = j_ideal(order, [g])
        norm_direct = abs(order.norm(order.one() - g))
        cp = P(charpoly(order.mult_matrix(g)))
        norm_res = abs(resultant(cp, P([1, -1])))
        assert J.norm == norm_direct == norm_res


def test_generator_set_independence(f2_field):
    order, _, _, ug = f2_field
    eps = ug.totally_positive_generators[0]
    J1 = j_ideal(order, [eps])
    J2 = j_ideal(order, [order.inverse_unit(eps)])
    J3 = j_ideal(order, [eps, eps * eps])
    assert J1.basis == J2.basis == J3.basis


def test_sum_of_ideals_is_j_of_product():
    rng = random.Random(99)
    pool = ["T^3 - T + 2", "T^3 - T + 5", "T^3 - 2*T - 6", "T^3 + 8*T - 4"]
    for _ in range(12):
        order, _, _, ug = _field(rng.choice(pool))
        u = ug.totally_positive_generators[0]
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        U, V = [u ** a], [u ** b]
        JU, JV = j_ideal(order, U), j_ideal(order, V)
        stacked = [ru + rv for ru, rv in zip(JU.basis, JV.basis)]
        sum_basis = hnf(stacked)
        JUV = j_ideal(order, U + V)
        assert sum_basis == JUV.basis


def test_regulator_invariance_under_recombination(quartic275):
    order, _, _, ug = quartic275
    assert len(ug.generators) == 2
    g1, g2 = ug.generators
    recombined = units_from_generators(order, [g1 * g2, g2], table=ug.table)
    assert recombined.regulator.overlaps(ug.regulator)


def test_quartic_certification(quartic275):
    order, index, cert, ug = quartic275
    assert abs(order.disc) == 275
    assert ug.certified_index_bound == 1
    # published: volume 0.07174 = (3/256) sqrt(275) R  =>  R ~ 0.36921
    assert abs(float(ug.regulator.mid()) - 0.36921) < 5e-5


def test_units_from_generators_unreduced():
    f = P([-1, 8, 0, 1])  # unit index 2 over the maximal order
    po = build_order(f).power_suborder()
    emb = isolate_roots(f)
    table = EmbeddingTable(po, emb)
    supplied = units_from_generators(po, [po.tbar()], table=table)
    assert supplied.certified_index_bound == 0
    full = unit_group(maximalize(build_order(f))[0])
    ratio = float(supplied.regulator.mid()) / float(full.regulator.mid())
    assert abs(ratio - 2) < 1e-9


def test_big_regulator_field_certified():
    order, index, cert, ug = _field("T^3 + 2*T + 2000")
    assert index == 2
    assert ug.certified_index_bound == 1
    assert abs(float(ug.regulator.mid()) - 62.2798080973) < 1e-6
    # the generator's logs come from the refined table, not the 192-bit one
    assert ug.regulator.rad() < mpf(2) ** -64
    J = j_ideal(order, ug.totally_positive_generators)
    assert J.norm == 2 ** 2 * 5 ** 2 * 7 * 967 * 1649120827309715616889


def test_root_with_coordinates_beyond_the_working_precision():
    # u^8's coordinates exceed 2^256: its reconstruction from u^16 takes the
    # refined table's precision, not the working precision's 192 bits
    order, _, _, ug = _field("T^3 + 2*T + 2000")
    u = ug.generators[0]
    w = u ** 8
    assert max(abs(c) for c in w.coords) > 2 ** 256
    assert _try_kth_root(order, ug.table, w ** 2, 2) in (w, -w)
    cert = certify_units(order, [u ** 16], table=ug.table)
    assert cert.certified_index_bound == 1
    assert cert.generators[0] in (u, -u)


def test_one_sweep_and_one_root_isolation(monkeypatch):
    # the last unit of the sweep needs 384 bits for its logs: the table
    # refines itself instead of the sweep restarting at 384 bits
    calls = {"isolate_roots": 0, "_sweep_lll": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(otkit.embeddings, "isolate_roots")
    counted(otkit.unitgroup, "_sweep_lll")
    order, _, _ = maximalize(build_order(P.parse("T^3 - 3*T^2 - 3*T - 166")))
    ug = unit_group(order)
    assert ug.certified_index_bound == 1
    assert calls == {"isolate_roots": 1, "_sweep_lll": 94}


def test_unit_group_escalates_from_low_precision():
    # at 128 bits the sweep's enclosures can touch zero; the pipeline must
    # escalate instead of crashing
    from otkit.config import precision

    with precision(128):
        order, _, _ = maximalize(build_order(P.parse("T^3 + 2*T + 2000")))
        ug = unit_group(order)
    assert ug.certified_index_bound == 1
    assert abs(float(ug.regulator.mid()) - 62.2798080973) < 1e-6


def test_characters_leave_no_root_extraction(monkeypatch):
    calls = []
    try_kth_root = otkit.unitgroup._try_kth_root

    def counted(order, table, v, k, *args):
        calls.append(k)
        return try_kth_root(order, table, v, k, *args)

    monkeypatch.setattr(otkit.unitgroup, "_try_kth_root", counted)
    order, _, _ = maximalize(build_order(P.parse("T^3 + 2*T + 2000")))
    ug = unit_group(order)
    assert ug.certified_index_bound == 1
    assert calls == []


def test_kth_root_of_a_unit_with_a_tiny_complex_embedding():
    # the 43-digit fundamental unit's log enclosure at the complex place is
    # infinite at the default precision, so the table refines its roots
    order, _, _, ug = _field("T^3 + T^2 - 5*T + 114")
    g = ug.generators[0]
    assert _try_kth_root(order, EmbeddingTable(order), g, 2) is None


@pytest.mark.parametrize("poly, disc, j_norm, regulator", [
    ("T^3 + T^2 - 5*T + 114", -361083,
     11589587655431155494272590999725910015791468, 99.1586809848527),
    ("T^4 - 3*T^3 + 3*T^2 - 6", -37476, 2, 17.9976282869541),
    ("T^4 + 4*T^3 + 2*T^2 + 4*T - 5", -227328, 36, 50.6533400647439),
])
def test_fields_with_huge_units_certify(poly, disc, j_norm, regulator):
    order, _, _, ug = _field(poly)
    assert order.disc == disc
    assert ug.certified_index_bound == 1
    assert abs(float(ug.regulator.mid()) - regulator) < 1e-9
    assert j_ideal(order, ug.totally_positive_generators).norm == j_norm


@pytest.mark.parametrize("poly, gens", [
    ("T^4 - T^3 + 2*T - 1", [(2, 0, -1, 1), (-1, 0, 1, -1)]),
    ("T^3 - 2*T^2 + 2*T + 9", [(1, -2, -2)]),
])
def test_earlier_generators_give_the_same_group(poly, gens):
    # another basis of the unit group: the regulator and J(U) depend only on
    # the group, not on the generators unit_group returns
    order, _, _, ug = _field(poly)
    old = units_from_generators(order, [order.element(g) for g in gens], table=ug.table)
    assert old.regulator.overlaps(ug.regulator)
    assert (j_ideal(order, old.totally_positive_generators).basis
            == j_ideal(order, ug.totally_positive_generators).basis)
