import copy
import itertools
import json
import random

import pytest
from sympy import Matrix

from otkit import intmat
from otkit.orders import build_order
from otkit.polynomials import IntPolynomial, poly_discriminant
from otkit.topology import (DegenerateCompositumError, GroupPresentation,
                            SemidirectElement, commutator,
                            commutator_sample_closure, compositum,
                            cubic_galois_closure_degree,
                            example_compositum_action,
                            group_inverse, group_multiply, h1,
                            mobius_action_check, presentation_from_field,
                            reconstruct_minpoly)
from otkit.unitgroup import j_ideal, torsion_group

P = IntPolynomial


def _presentation(field):
    order, _, _, ug = field
    return order, ug, presentation_from_field(order, ug.totally_positive_generators)


def test_presentation_validation(disc23):
    order, _, _, ug = disc23
    p = presentation_from_field(order, ug.totally_positive_generators)
    assert p.lattice_rank == 3 and p.free_rank == 1
    assert abs(intmat.det_bareiss(p.action_matrices[0])) == 1
    with pytest.raises(ValueError):
        presentation_from_field(order, [])
    with pytest.raises(ValueError):
        GroupPresentation([[[2, 0], [0, 1]]])  # det 2
    with pytest.raises(ValueError):
        GroupPresentation([[[0, 1], [1, 0]], [[1, 1], [0, 1]]])  # do not commute


@pytest.mark.parametrize("v", [(1, -1), (-2, 3), (0, -2), (-1, -1)])
def test_rho_of_negated_exponents_is_the_inverse(quartic275, v):
    _, _, p = _presentation(quartic275)
    assert p.free_rank == 2
    back = [-e for e in v]
    assert intmat.mat_mul(p.rho(v), p.rho(back)) == intmat.identity(p.lattice_rank)


def _matrix_power(M, e):
    out = intmat.identity(len(M))
    for _ in range(e):
        out = intmat.mat_mul(out, M)
    return out


def test_rho_memo_is_the_product_of_powers(quartic275, disc23):
    order, ug, p = _presentation(quartic275)
    M1, M2 = p.action_matrices
    N1, N2 = ([[int(v) for v in row] for row in Matrix(M).inv().tolist()] for M in (M1, M2))
    box = list(itertools.product(range(-3, 4), repeat=2))
    for e in box:
        want = intmat.mat_mul(_matrix_power(M1 if e[0] > 0 else N1, abs(e[0])),
                              _matrix_power(M2 if e[1] > 0 else N2, abs(e[1])))
        assert p.rho(e) == want
        assert p.rho(list(e)) is p.rho(e)
    for a, b in [((1, -2), (2, 1)), ((-3, 0), (1, 3)), ((2, 2), (-2, -2))]:
        assert intmat.mat_mul(p.rho(a), p.rho(b)) == p.rho(tuple(x + y for x, y in zip(a, b)))
    # the closure and the reconstruction only read the kept matrices
    kept = {e: copy.deepcopy(p.rho(e)) for e in box}
    commutator_sample_closure(p, 48, seed=3, order=order)
    reconstruct_minpoly(p, trials=16, seed=3)
    assert all(p.rho(e) == M for e, M in kept.items())
    # each presentation keeps its own matrices
    q = presentation_from_field(order, ug.totally_positive_generators)
    assert q.rho((1, -1)) == p.rho((1, -1)) and q.rho((1, -1)) is not p.rho((1, -1))
    r = _presentation(disc23)[2]
    assert r.rho((1,)) != p.rho((1, 0)) and r.rho((1,)) is not p.rho((1,))


def test_group_law_and_commutator(f2_field, quartic275):
    # the commutator against the group law: a b a^-1 b^-1 built from
    # group_multiply and group_inverse, at unit ranks 1 and 2
    for field in (f2_field, quartic275):
        _, _, p = _presentation(field)
        n, r = p.lattice_rank, p.free_rank
        rng = random.Random(2)
        e = SemidirectElement([0] * n, [0] * r)
        for _ in range(12):
            a, b = (SemidirectElement([rng.randint(-3, 3) for _ in range(n)],
                                      [rng.randint(-2, 2) for _ in range(r)])
                    for _ in range(2))
            assert group_multiply(a, group_inverse(a, p), p) == e
            assert group_multiply(e, a, p) == a
            ab = group_multiply(a, b, p)
            want = group_multiply(group_multiply(ab, group_inverse(a, p), p),
                                  group_inverse(b, p), p)
            assert want.v == (0,) * r
            assert commutator(a, b, p) == want


def test_h1_examples(disc23):
    order, _, _, ug = disc23
    p = presentation_from_field(order, ug.totally_positive_generators)
    free, tors = h1(p)
    assert free == 1 and tors.factors == []
    for m in (1, 2, 5, 12):
        po = build_order(P([-1, m, 0, 1]))
        pm = presentation_from_field(po, [po.tbar()])
        free, tors = h1(pm)
        assert free == 1
        assert tors.factors == ([m] if m > 1 else [])
    # degenerate: identity action
    ident = GroupPresentation([intmat.identity(3)])
    free, tors = h1(ident)
    assert free == 4 and tors.factors == []


def test_h1_matches_units_torsion(fields):
    for text in ("T^3 - T + 2", "T^3 - 2*T - 6", "T^3 + 8*T - 4"):
        order, _, _, ug = fields(text)
        gens = ug.totally_positive_generators
        p = presentation_from_field(order, gens)
        _, tors = h1(p)
        assert tors == torsion_group(j_ideal(order, gens))


def test_commutator_closure_matches_j(fields):
    for text, seed in (("T^3 - T + 2", 1), ("T^3 - 2*T - 5", 2)):
        order, _, _, ug = fields(text)
        gens = ug.totally_positive_generators
        p = presentation_from_field(order, gens)
        J = j_ideal(order, gens)
        C = commutator_sample_closure(p, 48, seed, order=order)
        assert C == J


def test_closure_monotone_growth(f2_field):
    order, _, _, ug = f2_field
    p = presentation_from_field(order, ug.totally_positive_generators)
    small = commutator_sample_closure(p, 1, seed=5, order=order)
    big = commutator_sample_closure(p, 64, seed=5, order=order)
    # a single-sample lattice is contained in the stabilized one
    for c in range(len(small.basis[0])):
        col = [small.basis[r][c] for r in range(3)]
        assert big.contains(order.element(col))


def test_closure_short_of_full_rank_raises():
    # [[2, 1], [1, 1]] + [1] fixes the third coordinate, so every commutator
    # lies in the first two
    order = build_order(P.parse("T^3 - T + 1"))
    p = GroupPresentation([[[2, 1, 0], [1, 1, 0], [0, 0, 1]]])
    with pytest.raises(ValueError, match="full rank"):
        commutator_sample_closure(p, 8, seed=0, order=order)


def test_reconstruct_disc23(disc23):
    order, _, _, ug = disc23
    p = presentation_from_field(order, ug.totally_positive_generators)
    poly, primitive = reconstruct_minpoly(p, 16, seed=3)
    assert primitive
    assert poly in (P.parse("T^3 + T^2 - 1"), P.parse("T^3 - T - 1"))
    assert poly_discriminant(poly) == -23


def test_reconstruct_non_primitive_flag():
    ident = GroupPresentation([intmat.identity(3)])
    poly, primitive = reconstruct_minpoly(ident, 4, seed=0)
    assert not primitive
    assert poly.degree < 3


def test_galois_closure_degrees():
    assert cubic_galois_closure_degree(P.parse("T^3 + T^2 - 1")) == 6
    assert cubic_galois_closure_degree(P.parse("T^3 - T + 1")) == 6
    assert cubic_galois_closure_degree(P.parse("T^3 - 3*T - 1")) == 3
    with pytest.raises(ValueError):
        cubic_galois_closure_degree(P.parse("T^4 - T - 1"))


def test_compositum_examples():
    f1 = P.parse("T^3 + T + 1")
    for other in ("T^3 - T + 2", "T^3 - T + 1"):
        h, sig = compositum(f1, P.parse(other))
        assert h.degree == 9
        assert (sig.s, sig.t) == (1, 4)
    with pytest.raises(DegenerateCompositumError):
        compositum(P.parse("T^2 + 1"), P.parse("T^2 + 1"))


def test_example6_action_matrix():
    f1 = P.parse("T^3 + T + 1")
    M = example_compositum_action(f1)
    assert len(M) == 9
    assert abs(intmat.det_bareiss(M)) == 1
    # S * S^2 = -S - 1: column of S^2 (index 2) hits 1 and S with -1
    col = [M[r][2] for r in range(9)]
    assert col[0] == -1 and col[1] == -1 and sum(map(abs, col)) == 2
    M_sq = intmat.mat_mul(M, M)
    p = GroupPresentation([M_sq])
    free, tors = h1(p)
    assert free == 1
    order = 1
    for d in tors.factors:
        order *= d
    assert order == 27  # |N(1 - S^2)| over the degree-9 order


def test_presentation_json_roundtrip(tmp_path, disc23):
    order, _, _, ug = disc23
    p = presentation_from_field(order, ug.totally_positive_generators)
    path = tmp_path / "pres.json"
    p.save(path)
    q = GroupPresentation.load(path)
    assert q.action_matrices == p.action_matrices
    raw = json.loads(path.read_text())
    assert raw["n"] == 3


def test_mobius_action_check(disc23):
    order, _, _, ug = disc23
    rep = mobius_action_check(order, ug.totally_positive_generators, 8,
                              ug.table, seed=4)
    assert rep["homomorphism_exact"]
    assert rep["max_deviation"] < 1e-40


def test_reconstruct_high_t_presentation_flagged():
    # the degree-9 action of a rank-one unit from a cubic subfield: every
    # word has a degree-3 minimal polynomial, so no primitive witness exists
    f1 = P.parse("T^3 + T + 1")
    M = example_compositum_action(f1)
    p = GroupPresentation([intmat.mat_mul(M, M)])
    poly, primitive = reconstruct_minpoly(p, trials=8, seed=1)
    assert not primitive
    assert poly.degree == 3
