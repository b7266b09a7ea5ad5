"""Exact linear solvers.

``solve_linear(ring, rows, rhs)`` decides solvability of A x = b and returns a
witness solution.  Fields use Gaussian elimination; the integers use a Smith
normal form; Z/n (composite n) lifts to an integer system A x + n y = b.
Polynomial rings are refused.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from .rings import (Integers, IntegersMod, PolynomialRing, Ring,
                    UnsupportedRing)


def _eliminate(ring: Ring, a: List[List[Any]],
               n: int) -> List[Tuple[int, int]]:
    """Gauss-Jordan elimination of ``a`` in place over a field, pivoting on
    the first nonzero entry of each of the first ``n`` columns in turn (the
    columns after them are carried along); returns the (row, column)
    pivots.  Each pivot row is scaled to 1 and its column cleared."""
    m = len(a)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = None
        for i in range(r, m):
            if not ring.is_zero(a[i][c]):
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = ring.inv(a[r][c])
        a[r] = [ring.mul(piv, v) for v in a[r]]
        for i in range(m):
            if i != r and not ring.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [ring.sub(v, ring.mul(f, p))
                        for v, p in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
    return pivots


def solve_field(ring: Ring, rows: List[List[Any]], rhs: List[Any]) -> Optional[List[Any]]:
    """Gaussian elimination over a field; returns one solution or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[ring.normalize(v) for v in row] + [ring.normalize(rhs[i])]
         for i, row in enumerate(rows)]
    if m and any(len(row) != n + 1 for row in a):
        raise ValueError("ragged matrix")
    pivots = _eliminate(ring, a, n)
    for i in range(len(pivots), m):
        if not ring.is_zero(a[i][n]):
            return None
    x = [ring.zero] * n
    for (i, c) in pivots:
        x[c] = a[i][n]
    return x


def kernel_basis_field(ring: Ring, rows: List[List[Any]]) -> List[List[Any]]:
    """Basis of the null space of A over a field."""
    n = len(rows[0]) if rows else 0
    a = [[ring.normalize(v) for v in row] for row in rows]
    pivots = _eliminate(ring, a, n)
    pivot_cols = {c for (_, c) in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = [ring.zero] * n
        v[free] = ring.one
        for (i, c) in pivots:
            v[c] = ring.neg(a[i][free])
        basis.append(v)
    return basis


def smith_normal_form(rows: List[List[int]]) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Return (U, D, V) with U A V = D diagonal, U, V unimodular.

    Integer row/column reduction; smallest-pivot strategy keeps the entries
    from exploding on the sizes used here.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    d = [list(map(int, row)) for row in rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [a - q * b for a, b in zip(d[i], d[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    s = 0
    while s < min(m, n):
        # locate the nonzero entry of least magnitude in the remaining block
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(s, best[0])
        swap_cols(s, best[1])
        dirty = False
        for i in range(s + 1, m):
            if d[i][s] != 0:
                q = d[i][s] // d[s][s]
                row_op(i, s, q)
                if d[i][s] != 0:
                    dirty = True
        for j in range(s + 1, n):
            if d[s][j] != 0:
                q = d[s][j] // d[s][s]
                col_op(j, s, q)
                if d[s][j] != 0:
                    dirty = True
        if dirty:
            continue  # remainders left; pick a new pivot in the same block
        if d[s][s] < 0:
            d[s] = [-x for x in d[s]]
            u[s] = [-x for x in u[s]]
        s += 1

    # enforce the divisibility chain d_1 | d_2 | ... with explicit 2x2
    # unimodular transforms diag(a,b) -> diag(gcd, lcm)
    def ext_gcd(a, b):
        old_r, r = a, b
        old_x, x = 1, 0
        old_y, y = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_x, x = x, old_x - q * x
            old_y, y = y, old_y - q * y
        return old_r, old_x, old_y

    rank = s
    for i in range(rank):
        for j in range(i + 1, rank):
            a, b = d[i][i], d[j][j]
            if (a == 0 and b == 0) or (a != 0 and b % a == 0):
                continue
            g, x, y = ext_gcd(a, b)
            aa, bb = a // g, b // g
            # rows i, j of d and u
            for mat in (d, u):
                ri = [x * p + y * q for p, q in zip(mat[i], mat[j])]
                rj = [-bb * p + aa * q for p, q in zip(mat[i], mat[j])]
                mat[i], mat[j] = ri, rj
            # columns i, j of d and v
            for mat in (d, v):
                for row in mat:
                    ci = row[i] + row[j]
                    cj = (-y * bb) * row[i] + (x * aa) * row[j]
                    row[i], row[j] = ci, cj
    return u, d, v


def solve_integers(rows: List[List[int]], rhs: List[int]) -> Optional[List[int]]:
    """Solve A x = b over Z via Smith normal form, or report None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n
    u, d, v = smith_normal_form(rows)
    c = [sum(u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < n else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            if i < n:
                y[i] = c[i] // di
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]


def solve_linear(ring: Ring, rows: List[List[Any]], rhs: List[Any]) -> Optional[List[Any]]:
    """Decide A x = b over the supported exact rings.

    Returns a solution vector of ring values, or None when no solution
    exists.  Raises UnsupportedRing for polynomial coefficients.
    """
    if isinstance(ring, PolynomialRing):
        raise UnsupportedRing("linear solving over polynomial rings "
                              "is not supported")
    if ring.is_field:
        return solve_field(ring, rows, rhs)
    if isinstance(ring, Integers):
        return solve_integers([[int(x) for x in r] for r in rows],
                              [int(x) for x in rhs])
    if isinstance(ring, IntegersMod):
        n = ring.n
        m = len(rows)
        w = len(rows[0]) if m else 0
        # lift: A x + n y = b over Z
        lifted = [[int(rows[i][j]) for j in range(w)]
                  + [n if k == i else 0 for k in range(m)]
                  for i in range(m)]
        sol = solve_integers(lifted, [int(x) for x in rhs])
        if sol is None:
            return None
        return [s % n for s in sol[:w]]
    raise UnsupportedRing("no linear solver for %s" % ring.describe())
