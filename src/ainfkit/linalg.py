"""Exact linear solvers.

``solve_linear(ring, rows, rhs)`` decides solvability of A x = b and returns a
witness solution.  Fields use Gaussian elimination; the integers use a Smith
normal form; Z/n (composite n) lifts to an integer system A x + n y = b.
Polynomial rings are refused.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from .rings import (Integers, IntegersMod, PolynomialRing, Ring,
                    UnsupportedRing)


def _sparse(ring: Ring, row: List[Any]) -> Dict[int, Any]:
    """A dense row as a map from column to nonzero entry."""
    out = {}
    for j, v in enumerate(row):
        if v != ring.zero:
            v = ring.normalize(v)
            if not ring.is_zero(v):
                out[j] = v
    return out


def _eliminate(ring: Ring, a: List[Dict[int, Any]],
               n: int) -> List[Tuple[Dict[int, Any], int]]:
    """Gauss-Jordan elimination over a field, in place on sparse rows (maps
    from column to nonzero entry), pivoting on each of the first ``n``
    columns in turn (the columns after them are carried along); returns the
    pivot rows with their columns, left to right.  A column's pivot is the
    unused row with the fewest nonzeros that holds it (Markowitz;
    LaMacchia & Odlyzko), which keeps the fill-in small.  Each pivot row is
    scaled to 1 and its column cleared from every other row, so the pivot
    rows form the reduced row echelon form, which depends on the row space
    alone; the other rows end up zero in the first ``n`` columns."""
    holders: Dict[int, Set[int]] = {}
    for i, row in enumerate(a):
        for j in row:
            holders.setdefault(j, set()).add(i)
    used: Set[int] = set()
    pivots = []
    for c in range(n):
        if len(used) == len(a):
            break
        rows_c = holders.get(c, ())
        free = [i for i in rows_c if i not in used]
        if not free:
            continue
        p = min(free, key=lambda i: (len(a[i]), i))
        prow = a[p]
        piv = ring.inv(prow[c])
        for j in prow:
            prow[j] = ring.mul(piv, prow[j])
        for i in sorted(rows_c):
            if i == p:
                continue
            row = a[i]
            f = row[c]
            for j, v in prow.items():
                x = ring.sub(row.get(j, ring.zero), ring.mul(f, v))
                if ring.is_zero(x):
                    del row[j]
                    holders[j].discard(i)
                else:
                    if j not in row:
                        holders.setdefault(j, set()).add(i)
                    row[j] = x
        used.add(p)
        pivots.append((prow, c))
    return pivots


def solve_field(ring: Ring, rows: List[List[Any]], rhs: List[Any]) -> Optional[List[Any]]:
    """Gaussian elimination over a field; returns one solution (the free
    variables zero) or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged matrix")
    a = []
    for i, row in enumerate(rows):
        srow = _sparse(ring, row)
        b = ring.normalize(rhs[i])
        if not ring.is_zero(b):
            srow[n] = b
        a.append(srow)
    pivots = _eliminate(ring, a, n)
    # a pivot row holds its pivot column; any other row is left with at
    # most its right-hand side
    if any(len(row) == 1 and n in row for row in a):
        return None
    x = [ring.zero] * n
    for prow, c in pivots:
        x[c] = prow.get(n, ring.zero)
    return x


def kernel_basis_field(ring: Ring,
                       rows: List[List[Any]]) -> List[Dict[int, Any]]:
    """Basis of the null space of A over a field, each basis vector a map
    from column to nonzero entry: one per free column, which holds one."""
    n = len(rows[0]) if rows else 0
    pivots = _eliminate(ring, [_sparse(ring, row) for row in rows], n)
    pivot_cols = {c for (_, c) in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        v = {free: ring.one}
        for prow, c in pivots:
            if free in prow:
                v[c] = ring.neg(prow[free])
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
