import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st
from sympy import GF, ZZ, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from otkit import intmat
from otkit.balls import BallElimination, RealBall, ball_det
from otkit.config import precision
from otkit.geometry import min_volume_scan
from otkit.intmat import (charpoly, det_bareiss, hnf, kernel_mod_p, lattice_det,
                          minpoly_matrix, snf, solve, solve_int)
from otkit.polynomials import IntPolynomial


def test_hnf_identity():
    assert hnf(intmat.identity(3)) == intmat.identity(3)


def test_hnf_triangular_normalization():
    H = hnf([[2, 4], [0, 2]])
    assert H == [[2, 0], [0, 2]]
    # canonical: pivots positive, entries right of pivots reduced
    H2 = hnf([[1, 3], [0, 5]])
    assert H2 == [[1, 0], [0, 5]]


def test_hnf_membership():
    H = hnf([[2, 0], [1, 3]])
    assert solve_int(H, [2, 1]) is not None
    assert solve_int(H, [1, 0]) is None


square2 = st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                  min_size=2, max_size=2)


@given(square2, square2, st.integers(0, 9), st.integers(-9, -1))
def test_power_agrees_with_repeated_products(A, one, e, negative):
    # ``one`` is any matrix: power returns one * A^e, not just A^e
    want = one
    for _ in range(e):
        want = intmat.mat_mul(want, A)
    assert intmat.power(A, e, intmat.mat_mul, one) == want
    with pytest.raises(ValueError):
        intmat.power(A, negative, intmat.mat_mul, one)


def test_snf_trivial_cases():
    factors, defect = snf(intmat.identity(4))
    assert factors == [1, 1, 1, 1] and defect == 0
    factors, defect = snf([[0] * 3 for _ in range(3)])
    assert factors == [] and defect == 3


mats = st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4)


@given(mats)
def test_snf_matches_sympy_and_is_a_divisor_chain(M):
    factors, defect = snf(M)
    D = smith_normal_form(Matrix(M), domain=ZZ)
    diag = [abs(int(D[i, i])) for i in range(min(D.shape)) if D[i, i]]
    assert factors == diag
    assert defect == len(M) - Matrix(M).rank()
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@given(mats)
def test_hnf_has_rank_columns_and_spans_the_input(M):
    H = hnf(M)
    assert all(len(row) == Matrix(M).rank() for row in H)
    pivots = [max(i for i in range(len(H)) if H[i][c]) for c in range(len(H[0]))]
    for col in zip(*M):
        # peel the columns of H off from the last pivot down
        r = list(col)
        for c in range(len(H[0]) - 1, -1, -1):
            q, rem = divmod(r[pivots[c]], H[pivots[c]][c])
            assert rem == 0
            r = [a - q * h[c] for a, h in zip(r, H)]
        assert not any(r)


def _quotient_order_bruteforce(cols):
    """Independent coset count of Z^3 / lattice(cols) by explicit reduction."""
    n = 3
    L = [[Fraction(cols[i][j]) for j in range(len(cols[0]))] for i in range(n)]

    def reduce_mod(v):
        # solve L x = v over Q, subtract the integer part
        A = [row[:] + [Fraction(v[i])] for i, row in enumerate(L)]
        for k in range(n):
            piv = next(i for i in range(k, n) if A[i][k])
            A[k], A[piv] = A[piv], A[k]
            for i in range(n):
                if i != k and A[i][k]:
                    f = A[i][k] / A[k][k]
                    A[i] = [x - f * y for x, y in zip(A[i], A[k])]
        x = [A[i][n] / A[i][i] for i in range(n)]
        frac = [xi - int(xi) + (1 if xi < int(xi) else 0) for xi in x]
        rep = [sum(L[i][j] * frac[j] for j in range(n)) for i in range(n)]
        return tuple(rep)

    seen = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                seen.add(reduce_mod([a, b, c]))
    return len(seen)


def test_snf_against_coset_enumeration(f2_field):
    order, _, _, ug = f2_field
    g = ug.totally_positive_generators[0]
    M = order.mult_matrix(g)
    stacked = [[(1 if i == j else 0) - M[i][j] for j in range(3)] for i in range(3)]
    factors, defect = snf(stacked)
    torsion = 1
    for d in factors:
        torsion *= d
    assert defect == 0
    assert torsion == 4
    H = hnf(stacked)
    assert lattice_det(H) == 4
    assert _quotient_order_bruteforce(H) == 4
    # factor shape: exponent of the group from the brute-force side
    nontrivial = [d for d in factors if d > 1]
    assert nontrivial in ([4], [2, 2])


def test_charpoly_companion():
    # companion matrix of T^3 - T + 1
    C = [[0, 0, -1], [1, 0, 1], [0, 1, 0]]
    assert charpoly(C) == [1, -1, 0, 1]


def test_minpoly_matrix():
    D = [[2, 0, 0], [0, 2, 0], [0, 0, 3]]
    assert minpoly_matrix(D) == [6, -5, 1]  # (x-2)(x-3)
    assert minpoly_matrix(intmat.identity(4)) == [-1, 1]


def test_kernel_mod_p():
    ker = kernel_mod_p([[1, 1, 0], [0, 0, 1]], 2)
    assert len(ker) == 1 and ker[0] == [1, 1, 0]


@given(mats, st.randoms(use_true_random=False))
def test_hnf_is_canonical_for_the_lattice(M, rng):
    """Any unimodular recombination of generators yields the same HNF."""
    H1 = hnf(M)
    cols = [list(c) for c in zip(*M)]
    for _ in range(6):
        i = rng.randrange(len(cols))
        j = rng.randrange(len(cols))
        if i == j:
            cols[i] = [-v for v in cols[i]]
        else:
            q = rng.randint(-2, 2)
            cols[i] = [a + q * b for a, b in zip(cols[i], cols[j])]
    rng.shuffle(cols)
    M2 = [[cols[c][r] for c in range(len(cols))] for r in range(len(M))]
    assert hnf(M2) == H1


# -- the shared eliminators ----------------------------------------------------

entries = st.integers(-9, 9)
square = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))


def _vector(n):
    return st.lists(entries, min_size=n, max_size=n)


@given(square)
def test_hnf_with_a_multiple_of_the_determinant_is_plain_hnf(M):
    # a full-rank lattice L contains det(L) Z^n, so adding it changes nothing
    d = det_bareiss(M)
    assume(d != 0)
    assert hnf(M, abs(d)) == hnf(M)


# an n x k product through n - 1 dimensions: rank below n
deficient = st.tuples(st.integers(2, 4), st.integers(1, 4)).flatmap(
    lambda nk: st.tuples(
        st.lists(st.lists(entries, min_size=nk[0] - 1, max_size=nk[0] - 1),
                 min_size=nk[0], max_size=nk[0]),
        st.lists(st.lists(entries, min_size=nk[1], max_size=nk[1]),
                 min_size=nk[0] - 1, max_size=nk[0] - 1)))


@given(deficient, st.sampled_from([2, 3, 5, 7]))
def test_hnf_adds_p_times_the_full_lattice(AB, p):
    A, B = AB
    M = intmat.mat_mul(A, B)
    n = len(M)
    stacked = [[p if i == j else 0 for j in range(n)] + row for i, row in enumerate(M)]
    assert hnf(M, p) == hnf(stacked)
    assert hnf([[] for _ in range(n)], p) == [[p if i == j else 0 for j in range(n)]
                                              for i in range(n)]


# a square matrix and two vectors of its size
systems = square.flatmap(lambda M: st.tuples(st.just(M), _vector(len(M)), _vector(len(M))))


@given(systems)
def test_solve_is_none_exactly_when_singular(system):
    M, b, _ = system
    sol = solve(M, [[v] for v in b])
    d = det_bareiss(M)
    if d == 0:
        assert sol is None
        return
    X, den = sol
    assert den == d
    x = [Fraction(row[0], den) for row in X]
    assert [sum(a * xi for a, xi in zip(row, x)) for row in M] == b


@given(systems)
def test_ball_elimination_encloses_exact(system):
    # the interval determinant and solve bracket the exact Bareiss answers; a
    # pivot straddles zero exactly when the matrix is singular
    M, b, _ = system
    d = det_bareiss(M)
    balls = [[RealBall(v) for v in row] for row in M]
    try:
        det = ball_det(balls)
        x = BallElimination(balls).solve([RealBall(v) for v in b])
    except ArithmeticError:
        assert d == 0
        return
    assert d != 0 and det.contains(d)
    X, den = solve(M, [[v] for v in b])
    assert all(xi.contains(Fraction(row[0], den)) for xi, row in zip(x, X))


def _ends(xs):
    return [x.v for x in xs]


def _augmented_solve(M, b):
    """Gauss-Jordan elimination of [M | b]: the operations a kept elimination
    replays on b."""
    A = [row[:] + [bi] for row, bi in zip(M, b)]
    n = len(A)
    for k in range(n):
        piv = max(range(k, n), key=lambda i: abs(A[i][k].mid()))
        A[k], A[piv] = A[piv], A[k]
        for i in range(n):
            if i != k:
                f = A[i][k] / A[k][k]
                for j in range(k, n + 1):
                    A[i][j] = A[i][j] - f * A[k][j]
    return [A[i][n] / A[i][i] for i in range(n)]


@given(systems)
def test_kept_elimination_replays_the_fresh_one(system):
    # thirds make every entry a proper interval; one holder solves both
    # right-hand sides exactly as a fresh elimination of each system does
    M, b, c = system
    if det_bareiss(M) == 0:
        return
    for bits in (64, 192):
        with precision(bits):
            balls = [[RealBall(Fraction(v, 3)) for v in row] for row in M]
            rhs = [[RealBall(Fraction(v, 3)) for v in w] for w in (b, c)]
            kept = BallElimination(balls)
            for r in rhs:
                want = _ends(_augmented_solve(balls, r))
                assert _ends(kept.solve(r)) == want == _ends(BallElimination(balls).solve(r))
            assert kept.det.v == ball_det(balls).v
    # a holder made at 192 bits still encloses the exact solution when it
    # replays under 384 bits
    with precision(192):
        balls = [[RealBall(Fraction(v, 3)) for v in row] for row in M]
        kept = BallElimination(balls)
    X, den = solve(M, [[v] for v in b])
    with precision(384):
        x = kept.solve([RealBall(Fraction(v, 3)) for v in b])
        assert all(xi.contains(Fraction(row[0], den)) for xi, row in zip(x, X))


@given(systems)
def test_solve_int_returns_exactly_the_integral_solutions(system):
    M, b, x0 = system
    d = det_bareiss(M)
    if d == 0:
        assert solve_int(M, b) is None
        return
    # an integral right-hand side image comes back as that integer vector
    assert solve_int(M, intmat.mat_vec(M, x0)) == x0
    X, den = solve(M, [[v] for v in b])
    integral = all(row[0] % den == 0 for row in X)
    x = solve_int(M, b)
    assert (x is not None) == integral
    if x is not None:
        assert intmat.mat_vec(M, x) == b


@given(square)
def test_inverse_through_solve(M):
    n = len(M)
    sol = solve(M, intmat.identity(n))
    if det_bareiss(M) == 0:
        assert sol is None
        return
    X, d = sol
    assert intmat.mat_mul(M, X) == [[d * v for v in row] for row in intmat.identity(n)]


@given(square)
def test_minpoly_annihilates_and_divides_charpoly(M):
    n = len(M)
    mp_ = minpoly_matrix(M)
    assert mp_[-1] == 1 and 1 <= len(mp_) - 1 <= n
    value = [[0] * n for _ in range(n)]
    power = intmat.identity(n)
    for c in mp_:
        value = [[v + c * w for v, w in zip(rv, rw)] for rv, rw in zip(value, power)]
        power = intmat.mat_mul(power, M)
    assert value == [[0] * n for _ in range(n)]
    _, rem = IntPolynomial(charpoly(M)).divmod_monic(IntPolynomial(mp_))
    assert not any(rem.coeffs)


rect = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda mn: st.lists(st.lists(entries, min_size=mn[1], max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


@pytest.mark.parametrize("p", [2, 3, 5])
@given(M=rect)
def test_kernel_mod_p_basis(p, M):
    n = len(M[0])
    F = GF(p)
    rank = DomainMatrix([[F(v) for v in row] for row in M], (len(M), n), F).rank()
    ker = kernel_mod_p(M, p)
    assert len(ker) == n - rank
    for v in ker:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in M)
    if ker:
        K = DomainMatrix([[F(x) for x in v] for v in ker], (len(ker), n), F)
        assert K.rank() == len(ker)


# -- integral LLL -----------------------------------------------------------------


def _gram_schmidt(B):
    """Exact Gram-Schmidt of the rows of B: (mu, squared norms of b*)."""
    n = len(B)
    star, mu = [], [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(B):
        v = [Fraction(x) for x in row]
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(row, star[j])) / sum(b * b for b in star[j])
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
    return mu, [sum(x * x for x in v) for v in star]


def _assert_lll_reduced(M, T):
    assert abs(det_bareiss(T)) == 1
    mu, norms = _gram_schmidt(intmat.mat_mul(T, M))
    half = Fraction(1, 2)
    assert all(abs(mu[i][j]) <= half for i in range(len(M)) for j in range(i))
    assert all(norms[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, len(M)))


def test_lll_matches_sympy_and_is_reduced():
    rng = random.Random(19)
    for n in range(2, 8):
        for _ in range(8):
            while True:
                M = [[rng.randrange(-2 ** 100, 2 ** 100) for _ in range(n)] for _ in range(n)]
                if det_bareiss(M):
                    break
            _, ref = DomainMatrix([[ZZ(x) for x in row] for row in M], (n, n), ZZ).lll_transform()
            T = intmat.lll(M)
            assert T == [[int(x) for x in row] for row in ref.to_Matrix().tolist()]
            _assert_lll_reduced(M, T)


@pytest.mark.parametrize("M", [[[1, 2], [2, 4]], [[0, 0], [1, 1]],
                               [[3, 1, 4], [1, 5, 9], [4, 6, 13]]])
def test_lll_rejects_dependent_rows(M):
    with pytest.raises(ValueError, match="linearly dependent"):
        intmat.lll(M)


# The radius-0 LLL input of T^4 - T^3 - 2*T^2 - 2*T - 1 in the s = 2 scan.
# One of its mu lies within 2^-53 below a half-integer, which a rounding
# through float64 takes up to 3; the size reduction then fails.
SCAN_QUARTIC_STEP = [
    [731878415280158920546589930072, 731878415280158920546589930072,
     731878415280158920546589930072, 0],
    [-511201294084315943569584141284, 1695405445640023472186086524901,
     -226162868137774304034956226772, 529053683600705421878458826422],
    [357063082634353777361278741826, 3927427787312927729034818339096,
     -312549396773243451831573715281, -326973158338568803252594863157],
    [-249400865091156996916939111177, 9097935283990330322185810749548,
     332942489871446320918398726282, -124892633076432184626730899892],
]


def test_lll_reduces_the_scan_quartic_step():
    _assert_lll_reduced(SCAN_QUARTIC_STEP, intmat.lll(SCAN_QUARTIC_STEP))


def test_no_lll_step_of_the_published_scans_fails(monkeypatch):
    lll, calls, failed = intmat.lll, [], []

    def counted(M):
        calls.append(M)
        try:
            return lll(M)
        except ValueError:
            failed.append(M)
            raise

    monkeypatch.setattr(intmat, "lll", counted)
    for s, bound, disc in [(1, 6, 200), (2, 2, 500), (3, 2, 4600)]:
        min_volume_scan(s, bound, disc)
    assert len(calls) == 28 and failed == []
