"""Exact integer matrix algebra: products, powers, determinants, HNF, SNF,
LLL, kernels.

Matrices are plain ``list[list[int]]`` in row-major layout.  Sizes here are
tiny (at most ~12 rows), so everything uses arbitrary-precision pivoting and
no modular shortcuts.  All elimination over Z/Q goes through one
fraction-free (Bareiss) routine, every lattice reduction over Z (the SNF
too) through ``hnf``, every LLL reduction through the integral ``lll``, all
elimination over F_p through ``kernel_mod_p``, and every square-and-multiply
(of matrices, order elements or residues) through ``power``.
"""

from __future__ import annotations

from math import gcd, prod


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy(M) -> list[list[int]]:
    return [row[:] for row in M]


def mat_mul(A, B) -> list[list[int]]:
    n, k, m = len(A), len(B), len(B[0])
    Bt = list(zip(*B))
    return [[sum(A[i][t] * Bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(A, v) -> list[int]:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def power(x, e: int, mul, one):
    """``one * x^e`` for ``e >= 0`` by binary powering (Cohen, GTM 138, 1.2),
    for any associative ``mul`` under which the powers of ``x`` commute."""
    if e < 0:
        raise ValueError("negative exponent: power the inverse instead")
    while e:
        if e & 1:
            one = mul(one, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one


def stack_one_minus(mats) -> list[list[int]]:
    """The block row ``[I - M_1 | I - M_2 | ...]`` of equal square matrices."""
    n = len(mats[0])
    return [[(i == j) - M[i][j] for M in mats for j in range(n)] for i in range(n)]


# -- fraction-free elimination over Z/Q ----------------------------------------


def _bareiss(A, n: int):
    """Fraction-free (Bareiss) elimination of ``A = [M | B]`` on its first n columns.

    The columns of ``M`` are taken in order, and elimination stops at the
    first one that depends on those before it.  Returns ``(k, d, X)``:
    columns ``0..k-1`` of ``M`` are independent, ``d`` is (up to sign) their
    k-by-k minor in the pivot rows, exactly ``det M`` when ``M`` is square
    and ``k == n``, and ``X`` has one integer column per remaining column
    ``c >= k`` of ``A`` with ``d * A[:, c] = sum_i X[i][c - k] * A[:, i]``
    whenever that column lies in the span of the first k.  Every
    intermediate entry is a minor of ``A``, so each division below is exact.
    """
    A = [list(row) for row in A]
    m = len(A)
    width = len(A[0]) if m else 0
    sign = prev = 1
    k = 0
    while k < n and k < m:
        if not A[k][k]:
            for i in range(k + 1, m):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                break
        rk = A[k]
        p = rk[k]
        for ri in A[k + 1:]:
            a = ri[k]
            for j in range(k + 1, width):
                ri[j] = (ri[j] * p - a * rk[j]) // prev
        prev = p
        k += 1
    d = sign * prev
    # back-substitution: A[i][i] X[i] = d A[i][c] - sum_{j > i} A[i][j] X[j]
    X = [[0] * (width - k) for _ in range(k)]
    for c in range(k, width):
        for i in range(k - 1, -1, -1):
            acc = d * A[i][c] - sum(A[i][j] * X[j][c - k] for j in range(i + 1, k))
            X[i][c - k] = acc // A[i][i]
    return k, d, X


def det_bareiss(M) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(M)
    k, d, _ = _bareiss(M, n)
    return d if k == n else 0


def solve(M, B):
    """``(X, d)`` with ``M X = d B`` and ``d = det M`` for square ``M``; None
    when ``M`` is singular.  ``X / d`` is the exact rational solution, and
    ``solve(M, identity(n))`` gives ``M^-1 = X / d``."""
    n = len(M)
    k, d, X = _bareiss([list(row) + list(b) for row, b in zip(M, B)], n)
    return (X, d) if k == n else None


def solve_int(M, b) -> list[int] | None:
    """Integer solution of ``M x = b`` when one exists (M square, nonsingular)."""
    sol = solve(M, [[v] for v in b])
    if sol is None:
        return None
    X, d = sol
    if any(row[0] % d for row in X):
        return None
    return [row[0] // d for row in X]


def interpolate(xs, ys) -> list[int]:
    """Ascending integer coefficients of the polynomial of degree < len(xs)
    through the points ``(xs[i], ys[i])``."""
    coeffs = solve_int([[x ** j for j in range(len(xs))] for x in xs], ys)
    if coeffs is None:
        raise ArithmeticError("interpolation of an integer polynomial went non-integral")
    return coeffs


def charpoly(M) -> list[int]:
    """Characteristic polynomial ``det(x I - M)``, ascending coefficients.

    Exact, by evaluating the determinant at ``n + 1`` integer points and
    interpolating.
    """
    n = len(M)
    pts = list(range(n + 1))
    vals = [det_bareiss([[(x if i == j else 0) - M[i][j] for j in range(n)]
                         for i in range(n)]) for x in pts]
    return interpolate(pts, vals)


def minpoly_matrix(M) -> list[int]:
    """Minimal polynomial of an integer matrix, ascending integer coefficients.

    It is the first linear relation among vec(I), vec(M), vec(M^2), ...
    """
    n = len(M)
    powers = [identity(n)]
    for _ in range(n):
        powers.append(mat_mul(powers[-1], M))
    _, d, X = _bareiss([[P[i][j] for P in powers] for i in range(n) for j in range(n)],
                       n + 1)
    # d M^k = sum_i X[i][0] M^i, and the monic relation is integral
    if any(row[0] % d for row in X):
        raise ArithmeticError("expected an integer minimal polynomial")
    return [-(row[0] // d) for row in X] + [1]


# -- Hermite and Smith normal forms -------------------------------------------


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def hnf(M, D: int = 0) -> list[list[int]]:
    """Canonical column-HNF basis of the lattice spanned by the columns of
    ``M`` together with ``D * Z^n`` (``D = 0`` adds nothing; Cohen, GTM 138,
    2.4.8).

    Only the pivot columns are kept, in upper-echelon shape: pivot rows
    strictly increasing, pivots positive, entries right of a pivot reduced
    into ``[0, pivot)``.
    """
    n = len(M)
    cols = [list(c) for c in zip(*M)] if n else []
    if D:
        cols = [[D if i == j else 0 for i in range(n)] for j in range(n)] + cols
    k = len(cols)
    j = k - 1
    for i in range(n - 1, -1, -1):
        if j < 0:
            break
        # gcd-combine the active columns so only column j is nonzero in row i
        for c in range(j):
            if cols[c][i] == 0:
                continue
            a, b = cols[j][i], cols[c][i]
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            cols[j], cols[c] = ([x * u + y * v for u, v in zip(cols[j], cols[c])],
                                [aa * v - bb * u for u, v in zip(cols[j], cols[c])])
        if cols[j][i] == 0:
            continue
        if cols[j][i] < 0:
            cols[j] = [-v for v in cols[j]]
        p = cols[j][i]
        for c in range(j + 1, k):
            q = cols[c][i] // p
            if q:
                cols[c] = [v - q * u for u, v in zip(cols[j], cols[c])]
        j -= 1
    return [[cols[c][i] for c in range(j + 1, k)] for i in range(n)]


def lattice_det(H) -> int:
    """Index of a full-rank column-HNF lattice inside Z^n (product of pivots)."""
    if not H or len(H[0]) != len(H):
        raise ValueError("lattice is not of full rank")
    return prod(H[i][i] for i in range(len(H)))


def snf(M) -> tuple[list[int], int]:
    """Invariant factors ``d_1 | d_2 | ...`` and the free rank of the cokernel.

    The cokernel of ``M`` (an m-by-n matrix mapping Z^n -> Z^m) is isomorphic
    to ``(+) Z/d_i  (+)  Z^defect``; there is one factor per unit of rank,
    unit factors included.  Alternating column HNFs of the matrix and of its
    transpose reach a diagonal matrix (Kannan-Bachem), whose entries gcd/lcm
    swaps then put into a divisor chain.
    """
    m = len(M)
    A = hnf(M)
    if not A or not A[0]:
        return [], m
    while len(A) != len(A[0]) or any(A[i][j] for i in range(len(A))
                                     for j in range(len(A)) if i != j):
        A = hnf([list(c) for c in zip(*A)])
    d = [A[i][i] for i in range(len(A))]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return d, m - len(d)


# -- lattice reduction ----------------------------------------------------------


def lll(M) -> list[list[int]]:
    """The unimodular ``T`` for which the rows of ``T M`` are an LLL-reduced
    basis (delta = 3/4) of the row lattice of ``M``.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7): the Gram-Schmidt data are the
    integers ``d[i]``, the Gram determinant of the first i rows, and
    ``lam[k][j] = d[j + 1] mu[k][j]``, so every division below is exact and
    each mu rounds exactly, ``floor(mu + 1/2)``.  Linearly dependent rows
    raise ValueError.
    """
    m = len(M)
    b = [list(row) for row in M]
    T = identity(m)
    d = [1] + [0] * m
    lam = [[0] * m for _ in range(m)]

    def red(k, j):
        # size-reduce row k against row j < k when |mu[k][j]| > 1/2
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) <= dj:
            return
        q = (2 * lam[k][j] + dj) // (2 * dj)
        b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        T[k] = [x - q * y for x, y in zip(T[k], T[j])]
        lam[k][j] -= q * dj
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    def swap(k):
        # exchange rows k - 1 and k, and update the Gram-Schmidt data
        b[k - 1], b[k] = b[k], b[k - 1]
        T[k - 1], T[k] = T[k], T[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lk = lam[k][k - 1]
        B = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (B * t + lk * lam[i][k]) // d[k + 1]
        d[k] = B

    k, kmax = 0, -1
    while k < m:
        if k > kmax:
            # incremental Gram-Schmidt of the new row k
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("LLL input has linearly dependent rows")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        red(k, k - 1)
        lk = lam[k][k - 1]
        # Lovasz: |b*_k|^2 >= (3/4 - mu^2) |b*_{k-1}|^2, times 4 d[k] d[k-1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lk * lk:
            swap(k)
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                red(k, j)
            k += 1
    return T


# -- elimination over F_p -------------------------------------------------------


def kernel_mod_p(M, p: int) -> list[list[int]]:
    """Basis of the right kernel of ``M`` over F_p (vectors with entries in [0, p))."""
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[v % p for v in row] for row in M]
    pivots = {}
    r = 0
    for j in range(n):
        piv = None
        for i in range(r, m):
            if A[i][j] % p:
                piv = i
                break
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][j], -1, p)
        A[r] = [(v * inv) % p for v in A[r]]
        for i in range(m):
            if i != r and A[i][j]:
                c = A[i][j]
                A[i] = [(a - c * b) % p for a, b in zip(A[i], A[r])]
        pivots[j] = r
        r += 1
    basis = []
    free = [j for j in range(n) if j not in pivots]
    for j in free:
        v = [0] * n
        v[j] = 1
        for pj, pr in pivots.items():
            v[pj] = (-A[pr][j]) % p
        basis.append(v)
    return basis
