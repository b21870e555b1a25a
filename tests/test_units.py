import math
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from mpmath import mp, mpf
from sympy import isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_edf_zassenhaus, gf_from_int_poly, gf_gcd, gf_pow_mod,
                                     gf_sub)
import otkit.embeddings
import otkit.intmat
import otkit.unitgroup
from otkit.balls import RealBall
from otkit.config import precision, working_precision
from otkit.embeddings import EmbeddingTable
from otkit.geometry import min_volume_scan
from otkit.intmat import charpoly, hnf
from otkit.orders import IdealHNF, SubOrder, build_order, maximalize
from otkit.polynomials import IntPolynomial, resultant
from otkit.tables import load_expected
from otkit.unitgroup import (CHARACTER_PRIMES, SWEEP_SCALE_BITS, SWEEP_SPARE_BITS,
                             InsufficientUnitsError, _character_kernel,
                             _roots_mod, _try_kth_root, _UnitLattice, certify_units,
                             j_ideal, regulator_floor, sweep_units, torsion_group,
                             totally_positive_generators, unit_group, units_from_generators)

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


def test_roots_mod_match_sympy_frobenius_near_two_million():
    # the G family of computeJ; the reference raises T to the q-th power with
    # sympy's gf_pow_mod
    def reference(f, q):
        F = gf_from_int_poly(list(reversed(f.coeffs)), q)
        g = gf_gcd(F, gf_sub(gf_pow_mod([1, 0], q, F, q, ZZ), [1, 0], q, ZZ), q, ZZ)
        if len(g) < 2:
            return []
        return sorted(-h[1] % q for h in gf_edf_zassenhaus(g, 1, q, ZZ))

    qs = [q for q in range(2_000_000, 2_000_400) if isprime(q)]
    found = 0
    for m in range(1, 8):
        f = P([-m, -1, 0, 0, 0, 0, 0, 1])
        for q in qs:
            roots = _roots_mod(f, q)
            assert roots == reference(f, q)
            assert all(f(a) % q == 0 for a in roots)
            found += len(roots)
    assert found > 0


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
                   for a in _roots_mod(order.f, q)))
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


def test_non_unit_candidates_rejected(disc23):
    # checked before the candidates' log vectors: zero has none
    order, _, _, ug = disc23
    u = ug.generators[0]
    for cands in ([order.element([2, 0, 0])], [order.zero(), u], [u, order.zero()]):
        with pytest.raises(ValueError, match="not a unit"):
            certify_units(order, cands)


def test_sweep_norm_bound_beyond_float64(monkeypatch):
    # |disc| is about 2.7 * 10^321, beyond float64; with no LLL candidates
    # the sweep ends in its own error, not in an OverflowError
    monkeypatch.setattr(otkit.unitgroup, "_sweep_lll", lambda order, table, w, basis: (basis, []))
    order, _, _ = maximalize(build_order(P.parse(f"T^3 + T + {10 ** 160 + 7}")))
    assert abs(order.disc) > 2 ** 1024
    with pytest.raises(InsufficientUnitsError):
        unit_group(order)


@pytest.mark.parametrize("poly", ["T^3 + 2*T + 5000", "T^3 + T^2 - 5*T + 114"])
def test_sweep_lll_steps_do_not_fail(monkeypatch, poly):
    # every step of the sweep reaches the exact LLL, and none fails
    failed, calls = [], []
    lll = otkit.intmat.lll

    def counted(M):
        calls.append(M)
        try:
            return lll(M)
        except ValueError:
            failed.append(M)
            raise

    monkeypatch.setattr(otkit.intmat, "lll", counted)
    order, _, _ = maximalize(build_order(P.parse(poly)))
    table = EmbeddingTable(order)
    try:
        sweep_units(order, table, _UnitLattice(order, table, 1))
    except InsufficientUnitsError as exc:
        assert "failed" not in str(exc)
    assert calls and failed == []


def test_sweep_refines_few_tables():
    # each step's embeddings come from the table's doubling ladder, not from
    # a table refined to the chain basis's exact bit count
    order, _, _ = maximalize(build_order(P.parse("T^3 - 3*T^2 - 3*T - 166")))
    table = EmbeddingTable(order)
    lattice = _UnitLattice(order, table, 1)
    sweep_units(order, table, lattice)
    assert len(lattice.gens) == 1
    assert len(table._finer) <= 3


def test_insufficient_candidates_rejected(disc23):
    order, _, _, ug = disc23
    with pytest.raises(InsufficientUnitsError):
        certify_units(order, [order.one()], table=ug.table)


def test_totally_positive_examples():
    # T^3+T^2-1: the generator is already positive at the real place
    order, _, _, ug = _field("T^3 + T^2 - 1")
    tp = ug.totally_positive_generators[0]
    assert ug.table.sign_vector(tp) == [0]
    po = build_order(P.parse("T^3 + T + 1"))
    table = EmbeddingTable(po)
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
    tg = torsion_group(j_ideal(order, ug.totally_positive_generators))
    assert tg.order_of_torsion == 1526  # 2 * 7 * 109
    order1, _, _, ug1 = _field("T^3 - T + 1")
    tg1 = torsion_group(j_ideal(order1, ug1.totally_positive_generators))
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
    assert J.norm == torsion_group(j_ideal(order, gens)).order_of_torsion == 4


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
    assert len({J1: "eps", J2: "eps^-1", J3: "eps, eps^2"}) == 1


def test_principal_ideal_is_the_same_for_associates(f2_field):
    order, _, _, ug = f2_field
    rng = random.Random(23)
    u = ug.totally_positive_generators[0]
    for _ in range(10):
        x = order.element([rng.randint(-9, 9) for _ in range(order.n)])
        if not any(x.coords):
            continue
        ix = IdealHNF(order, order.mult_matrix(x))
        iux = IdealHNF(order, order.mult_matrix(u * x))
        assert ix == iux and hash(ix) == hash(iux)
        assert ix.norm == iux.norm == abs(order.norm(x))
    # the same lattice in another order is another ideal
    other = build_order(P.parse("T^3 - T + 1"))
    assert IdealHNF(other, ix.basis) != ix


def test_ideal_needs_full_rank(disc23):
    order, _, _, _ = disc23
    for cols in ([[1], [0], [0]], [[2, 0], [0, 3], [0, 0]], [[0, 0, 0]] * 3):
        with pytest.raises(ValueError, match="full rank"):
            IdealHNF(order, cols)


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
    po = build_order(f)
    table = EmbeddingTable(po)
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


def test_root_extraction_refines_only_on_the_ladder():
    # the bits the coordinates ask for are rounded up the doubling ladder,
    # so no refinement polishes the roots at bits of its own; a fresh table,
    # as the field's is refined past the cap by the k = 97 root
    order, _, _, ug = _field("T^3 + 2*T + 2000")
    table = EmbeddingTable(order)
    u = ug.generators[0]
    w = u ** 8
    assert _try_kth_root(order, table, w ** 2, 2) in (w, -w)
    certify_units(order, [u ** 16], table=table)
    assert table._finer
    assert set(table._finer) <= {192 << k for k in range(1, 7)} | {16384}


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


# -- regulator floors ---------------------------------------------------------------


def _panel_fields():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from panel import LEDGER, PANEL

    # the two large ledger cubics end without full rank; the others certify
    return ([poly for _, poly, _, _ in PANEL]
            + [poly for kind, poly in LEDGER if kind != "large"])


def _divisions(monkeypatch, order):
    """The (x, rep) coordinate pairs that reach ``order.divide_exact``."""
    pairs = []
    divide = order.divide_exact
    monkeypatch.setattr(order, "divide_exact",
                        lambda x, y: pairs.append((x.coords, y.coords)) or divide(x, y))
    return pairs


def test_sweep_keeps_equal_norms_with_other_ideals_apart(monkeypatch):
    # in Z[2^(1/3)], 5 = P Q with N(P) = 5 and N(Q) = 25: P^2 and Q have one
    # norm and two ideals, so their generators are not associate
    order = build_order(P.parse("T^3 - 2"))
    elements = [order.element(c) for c in product(range(-2, 3), repeat=3) if any(c)]
    by_norm = {}
    for x in elements:
        by_norm.setdefault(abs(order.norm(x)), []).append(x)
    x, y = next((a, b) for norm, xs in sorted(by_norm.items()) if norm > 1
                for a in xs for b in xs
                if IdealHNF(order, order.mult_matrix(a)) != IdealHNF(order, order.mult_matrix(b)))
    unit = order.element([-1, 1, 0])                # 2^(1/3) - 1, of norm 1
    z = y * unit
    assert order.is_unit(unit) and abs(order.norm(z)) == abs(order.norm(x))
    combos = [[list(x.coords), list(y.coords), list(z.coords)]]
    monkeypatch.setattr(otkit.unitgroup, "_sweep_lll",
                        lambda order, table, w, basis: (basis, combos.pop() if combos else []))
    pairs = _divisions(monkeypatch, order)
    table = EmbeddingTable(order)
    lattice = _UnitLattice(order, table, 1)
    sweep_units(order, table, lattice)
    # y is not divided by x; z, y's associate, is divided by y alone
    assert pairs == [(z.coords, y.coords)]
    assert [g.coords for g in lattice.gens] == [unit.coords]


def _per_candidate_pairs(order, table, steps):
    """The (x, rep) pairs of a sweep that keys every candidate by its ideal's
    HNF, over the candidate lists ``steps`` of its LLL steps."""
    with mp.workprec(53):
        bound = int(2 ** ((order.n + 3) / 2) * (2 / 3.14159) ** table.t
                    * mp.sqrt(mp.mpf(abs(order.disc)))) + 8
    reps, seen, pairs = {}, set(), []
    for combos in steps:
        for coords in combos:
            key = min(tuple(coords), tuple(-c for c in coords))
            if key in seen or not any(coords):
                continue
            seen.add(key)
            x = order.element(coords)
            ideal = IdealHNF(order, order.mult_matrix(x))
            if ideal.norm > bound:
                continue
            rep = reps.setdefault(ideal, x)
            if rep is not x:
                pairs.append((x.coords, rep.coords))
    return pairs


@pytest.mark.parametrize("poly", _panel_fields()[:10])
def test_norm_buckets_divide_as_per_candidate_ideals(monkeypatch, poly):
    order, _, _ = maximalize(build_order(P.parse(poly)))
    table = EmbeddingTable(order)
    steps = []
    sweep_lll = otkit.unitgroup._sweep_lll

    def recorded(*args):
        out = sweep_lll(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(otkit.unitgroup, "_sweep_lll", recorded)
    pairs = _divisions(monkeypatch, order)
    sweep_units(order, table, _UnitLattice(order, table, table.s + table.t - 1))
    monkeypatch.undo()
    # the sweep stops inside its last step; the full replay may go on
    assert pairs and pairs == _per_candidate_pairs(order, table, steps)[:len(pairs)]


def _minima():
    return [row["min_poly"] for row in load_expected()["minvol"]["rows"] if row["s"] >= 4]


def _exact(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("poly", _panel_fields() + _minima())
def test_regulator_floor_is_below_the_certified_regulator(poly):
    order, _, _, ug = _field(poly)
    table = ug.table
    floor = regulator_floor(table.s, table.t, abs(order.disc), order.n)
    assert ug.certified_index_bound == 1
    assert floor is not None and floor <= _exact(ug.regulator.lower)


def test_regulator_floor_is_below_the_s1_scan_regulators():
    # the scan's small discriminants are where Artin's floor comes closest
    # to R: 0.5365 against 0.6094 at disc -44
    records = min_volume_scan(1, 6, 200)
    assert len(records) == 19 and all(rec.certified for rec in records)
    for rec in records:
        assert regulator_floor(1, 1, abs(rec.disc), 3) <= _exact(rec.regulator.lower)


def test_regulator_floor_of_small_and_large_cubics():
    # below |disc| 34 Friedman's 0.28 is the larger floor
    assert regulator_floor(1, 1, 23, 3) == Fraction(7, 25)
    assert regulator_floor(1, 1, 31, 3) == Fraction(7, 25)
    # above it Artin's (1/3) log((|d| - 24)/4), rounded down
    floor = regulator_floor(1, 1, 27000008, 3)
    assert floor.denominator & (floor.denominator - 1) == 0
    assert 0 < math.log((27000008 - 24) / 4) / 3 - floor < 2 ** -30
    # other signatures keep their floors
    assert regulator_floor(2, 1, 10 ** 8, 4) == Fraction(1, 4)
    assert regulator_floor(4, 1, 10 ** 8, 6) is None


def test_regulator_floor_is_exact_and_keeps_the_precision():
    # the floor's interval enclosure must leave the working precision as it
    # found it, at the default and inside a precision scope
    before = working_precision()
    floor = regulator_floor(1, 1, 87627, 3)
    assert working_precision() == before
    with precision(128):
        assert regulator_floor(1, 1, 87627, 3) == floor
        assert working_precision() == 128
    assert isinstance(floor, Fraction) and floor > Fraction(333, 100)


def test_certification_tests_primes_up_to_the_artin_bound(monkeypatch):
    # R = 95.9 over Artin's floor 3.33 bounds the index by 28; over the
    # constant 1/4 the bound was 383
    ks = []
    character_kernel = otkit.unitgroup._character_kernel

    def recorded(order, gens, k):
        ks.append(k)
        return character_kernel(order, gens, k)

    monkeypatch.setattr(otkit.unitgroup, "_character_kernel", recorded)
    order, _, _ = maximalize(build_order(P.parse("T^3 - 3*T^2 - 3*T - 166")))
    ug = unit_group(order)
    assert ug.certified_index_bound == 1
    assert ks and max(ks) <= 28


def test_index_bound_is_the_exact_floor_of_regulator_over_floor(monkeypatch):
    # R / floor is a hair above 29 with Friedman's floor 7/25; rounded at
    # 53 bits the quotient fell to 28.99..., and k = 29 was never tried
    with mp.workprec(128):
        upper = mpf(29 * 7) / 25 * (1 + mpf(2) ** -60)
        assert 29 < upper * 25 / 7 < 30
    reg = RealBall.from_endpoints(upper / 2, upper)
    ks = []
    character_kernel = otkit.unitgroup._character_kernel

    def recorded(order, gens, k):
        ks.append(k)
        return character_kernel(order, gens, k)

    monkeypatch.setattr(otkit.unitgroup, "regulator_of", lambda table, gens: reg)
    monkeypatch.setattr(otkit.unitgroup, "_character_kernel", recorded)
    order, _, _ = maximalize(build_order(P.parse("T^3 - T + 1")))
    assert regulator_floor(1, 1, abs(order.disc), 3) == Fraction(7, 25)
    unit_group(order)
    assert 29 in ks


# -- the sweep's integer steps --------------------------------------------------------


def _mpmath_lll_input(table, weights_log, basis):
    """The sweep's LLL input built in mpmath from the midpoints, as before the
    integer rows: weighted embeddings at the ladder's bits, scaled so that
    the shortest row keeps SWEEP_SCALE_BITS bits."""
    need = (max(abs(c) for row in basis for c in row).bit_length() + SWEEP_SPARE_BITS
            + int(max(weights_log) / math.log(2)))
    bits = table.bits
    while bits < need:
        bits *= 2
    row_weight = [*weights_log[:table.s], *(w for w in weights_log[table.s:] for _ in (0, 1))]
    tb = table.at(bits)
    with precision(tb.bits):
        mids = [[x.mid() for x in row] for row in tb.rows]
    with mp.workprec(bits):
        places = [[e * x for x in place] for e, place in zip(map(mp.exp, row_weight), mids)]
        ent = [[mp.fdot(place, b) for place in places] for b in basis]
        scl = mp.mpf(2) ** SWEEP_SCALE_BITS / min(mp.norm(row) for row in ent)
        return [[int(mp.nint(v * scl)) for v in row] for row in ent]


class _StopSweep(Exception):
    pass


def _recorded_lll_inputs(monkeypatch, poly, steps=None):
    """(table, weights, basis, integer LLL input) of the sweep's first
    ``steps`` steps (all of them when None)."""
    recorded, inputs = [], []
    sweep_lll, lll = otkit.unitgroup._sweep_lll, otkit.intmat.lll

    def recording_sweep_lll(order, table, weights, basis):
        if len(recorded) == steps:
            raise _StopSweep
        out = sweep_lll(order, table, weights, basis)
        recorded.append((table, list(weights), basis, inputs[-1]))
        return out

    monkeypatch.setattr(otkit.unitgroup, "_sweep_lll", recording_sweep_lll)
    monkeypatch.setattr(otkit.intmat, "lll", lambda M: inputs.append(M) or lll(M))
    order, _, _ = maximalize(build_order(P.parse(poly)))
    table = EmbeddingTable(order)
    lattice = _UnitLattice(order, table, table.s + table.t - 1)
    try:
        sweep_units(order, table, lattice)
    except (_StopSweep, InsufficientUnitsError):
        pass
    monkeypatch.undo()
    return recorded


@pytest.mark.parametrize("poly, steps, count", [
    ("T^3 - 3*T^2 - 3*T - 166", None, 94),
    ("T^4 + 3*T^3 + 4*T - 3", None, None),
    # the first steps of a sweep that runs to radius 220, at both signs
    ("T^3 + 2*T + 5000", 41, 41),
])
def test_integer_lll_input_matches_the_mpmath_construction(monkeypatch, poly, steps, count):
    # the fixed-point input may differ from the mpmath one by a rounding
    # step in an entry, and must give the same transform
    recorded = _recorded_lll_inputs(monkeypatch, poly, steps)
    assert recorded and (count is None or len(recorded) == count)
    for table, weights, basis, Z in recorded:
        ref = _mpmath_lll_input(table, weights, basis)
        assert all(abs(a - b) <= 1 for row, ref_row in zip(Z, ref)
                   for a, b in zip(row, ref_row))
        assert otkit.intmat.lll(Z) == otkit.intmat.lll(ref)


@pytest.mark.parametrize("poly", ["T^3 - 3*T^2 - 3*T - 166", "T^5 - T - 3"])
def test_refined_tables_hold_their_own_integer_rows(poly):
    # each table from at() has integer rows at its own bits, not a copy of
    # its parent's at the parent's bits
    order, _, _ = maximalize(build_order(P.parse(poly)))
    table = EmbeddingTable(order)
    for tb in (table, table.at(384), table.at(384).at(768)):
        with precision(tb.bits):
            mids = [[x.mid() for x in row] for row in tb.rows]
        assert len(tb.fixed) == len(mids) == order.n
        for fixed_row, mid_row in zip(tb.fixed, mids):
            for v, m in zip(fixed_row, mid_row):
                assert isinstance(v, int)
                exact = (-1) ** m._mpf_[0] * _exact(m)    # man_exp drops the sign
                assert abs(v - exact * 2 ** tb.bits) <= Fraction(1, 2)
    assert table.at(384).fixed != table.fixed


@pytest.mark.parametrize("poly, generators, regulator, repeats", [
    # pinned from the sweep before its integer steps
    ("T^3 - 3*T^2 - 3*T - 166",
     [[437926445047533770506, -76345157676127638617, 4831488063621285311]],
     95.89985681165345, True),
    # full rank at the second step, before any repeat
    ("T^5 - T - 3", [[-2, -2, -2, -1, -1], [-7, 3, -1, -1, 2]], 13.599572480391096, False),
])
def test_sweep_evaluates_each_candidate_once(monkeypatch, poly, generators, regulator, repeats):
    # a candidate the sweep has already met, up to sign, is skipped: each
    # new one costs one multiplication matrix, and no norm or determinant
    evaluated, candidates, norms = [], [], []
    mult_matrix, norm = SubOrder.mult_matrix, SubOrder.norm
    sweep_lll = otkit.unitgroup._sweep_lll

    def from_the_sweep():
        return sys._getframe(2).f_code is otkit.unitgroup.sweep_units.__code__

    def recorded_mult_matrix(self, x):
        if from_the_sweep():
            evaluated.append(min(tuple(x.coords), tuple(-c for c in x.coords)))
        return mult_matrix(self, x)

    def recorded_norm(self, x):
        if from_the_sweep():
            norms.append(x)
        return norm(self, x)

    def recorded_sweep_lll(*args):
        rows, combos = sweep_lll(*args)
        candidates.extend(min(tuple(c), tuple(-v for v in c)) for c in combos if any(c))
        return rows, combos

    monkeypatch.setattr(SubOrder, "mult_matrix", recorded_mult_matrix)
    monkeypatch.setattr(SubOrder, "norm", recorded_norm)
    monkeypatch.setattr(otkit.unitgroup, "_sweep_lll", recorded_sweep_lll)
    order, _, _ = maximalize(build_order(P.parse(poly)))
    ug = unit_group(order)
    # every new candidate, in the order met until full rank, and no repeat
    assert evaluated and evaluated == list(dict.fromkeys(candidates))[:len(evaluated)]
    assert (len(candidates) > len(set(candidates))) == repeats
    assert norms == []
    assert ug.certified_index_bound == 1
    assert [list(g.coords) for g in ug.generators] == generators
    assert abs(float(ug.regulator.mid()) - regulator) < 1e-9
