"""Exact ring arithmetic and linear solvers."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit.linalg import (kernel_basis_field, smith_normal_form,
                            solve_field, solve_integers, solve_linear)
from ainfkit.rings import (Integers, IntegersMod, PolynomialRing, Rationals,
                           RingHom, UnsupportedRing, evaluation_hom,
                           reduction_mod, ring_from_descriptor)

Z = Integers()
Q = Rationals()
F7 = IntegersMod(7)
Z6 = IntegersMod(6)


def test_units():
    assert Z.is_unit(-1) and not Z.is_unit(2)
    assert Q.is_unit(Fraction(3, 5)) and not Q.is_unit(Fraction(0))
    assert F7.is_unit(3) and not F7.is_unit(0)
    assert Z6.is_unit(5) and not Z6.is_unit(3)
    assert F7.mul(F7.inv(3), 3) == 1


def test_field_flags():
    assert Q.is_field and F7.is_field
    assert not Z.is_field and not Z6.is_field


def test_polynomial_arithmetic():
    P = PolynomialRing(Q, ["x", "y"])
    x, y = P.variable("x"), P.variable("y")
    # (x + y)^2 = x^2 + 2xy + y^2
    s = P.add(x, y)
    sq = P.mul(s, s)
    want = P.add(P.add(P.mul(x, x), P.mul(y, y)),
                 P.mul(P.constant(Fraction(2)), P.mul(x, y)))
    assert sq == want
    assert P.is_unit(P.constant(Fraction(5)))
    assert not P.is_unit(x)
    assert P.evaluate(sq, [Fraction(1), Fraction(2)]) == Fraction(9)


def test_polynomial_lex_canonical_order():
    P = PolynomialRing(Z, ["x", "y"])
    x, y = P.variable("x"), P.variable("y")
    v = P.add(P.mul(y, y), P.add(x, P.one))
    # descending lex on the declared variable order: x > y^2 > 1
    assert [e for e, _ in v] == [(1, 0), (0, 2), (0, 0)]


def test_nested_polynomials_refused():
    P = PolynomialRing(Z, ["x"])
    with pytest.raises(UnsupportedRing):
        PolynomialRing(P, ["y"])
    with pytest.raises(UnsupportedRing):
        PolynomialRing(Z6, ["y"])


def test_primality_is_exact_and_fast():
    sieve = [False, False] + [True] * (10 ** 5 - 2)
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [n for n in range(2, 10 ** 5)
            if IntegersMod(n).is_field] == [n for n in range(10 ** 5)
                                            if sieve[n]]
    start = time.perf_counter()
    # a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not IntegersMod(3215031751).is_field
    assert IntegersMod(2 ** 61 - 1).is_field
    assert not IntegersMod(2 ** 100).is_field
    # prime, but past the bound below which the bases are proven to decide
    with pytest.raises(ValueError, match="cannot decide"):
        IntegersMod(2 ** 89 - 1)
    assert time.perf_counter() - start < 1.0


def test_ring_descriptor_roundtrip():
    assert ring_from_descriptor({"kind": "Zmod", "n": 7}) == F7
    P = ring_from_descriptor({"kind": "poly", "base": {"kind": "Q"},
                              "variables": ["x"]})
    assert P.describe() == "Q[x]"


def test_solve_field_oracle():
    # x + 2y = 5, 3x + y = 5 over F7 -> x = 1, y = 2
    sol = solve_linear(F7, [[1, 2], [3, 1]], [5, 5])
    assert sol == [1, 2]
    assert solve_linear(F7, [[1, 1], [2, 2]], [1, 3]) is None


def test_solve_rationals():
    sol = solve_linear(Q, [[2, 0], [0, 3]], [1, 1])
    assert sol == [Fraction(1, 2), Fraction(1, 3)]


def test_smith_oracle():
    # the 2x2 matrix [[2,4],[6,8]] has Smith form diag(2, 4)
    u, d, v = smith_normal_form([[2, 4], [6, 8]])
    assert d[0][0] == 2 and d[1][1] == 4
    assert d[0][1] == 0 and d[1][0] == 0


def test_solve_integers_divisibility():
    # 2x = 3 has no integer solution; 2x = 4 does
    assert solve_integers([[2]], [3]) is None
    assert solve_integers([[2]], [4]) == [2]
    sol = solve_integers([[2, 4], [6, 8]], [6, 10])
    assert sol is not None
    a, b = sol
    assert 2 * a + 4 * b == 6 and 6 * a + 8 * b == 10


def test_solve_composite_modulus():
    # 2x = 4 (mod 6) is solvable although 2 is not a unit
    sol = solve_linear(Z6, [[2]], [4])
    assert sol is not None and (2 * sol[0]) % 6 == 4
    # 2x = 3 (mod 6) is not
    assert solve_linear(Z6, [[2]], [3]) is None
    # 3x + 3y = 3 (mod 6)
    sol = solve_linear(Z6, [[3, 3]], [3])
    assert sol is not None and (3 * sol[0] + 3 * sol[1]) % 6 == 3


def test_solve_polynomial_refused():
    P = PolynomialRing(Q, ["x"])
    with pytest.raises(UnsupportedRing):
        solve_linear(P, [[P.one]], [P.one])


RATIONALS = st.one_of(st.integers(-10 ** 9, 10 ** 9),
                      st.fractions(max_denominator=60))


@settings(max_examples=300, deadline=None)
@given(RATIONALS, RATIONALS)
def test_rational_arithmetic_agrees_with_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    pairs = [(Q.add(a, b), fa + fb), (Q.mul(a, b), fa * fb),
             (Q.neg(a), -fa), (Q.sub(a, b), fa - fb)]
    if fa:
        pairs.append((Q.inv(a), 1 / fa))
    else:
        with pytest.raises(ZeroDivisionError):
            Q.inv(a)
    for got, want in pairs:
        assert got == want
        # every result is normalized: an int exactly when integral
        assert type(got) is (int if want.denominator == 1 else Fraction)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(), st.fractions()))
def test_rational_normalize_and_render(x):
    v = Q.normalize(x)
    assert v == x
    assert (type(v) is int) == (Fraction(x).denominator == 1)
    assert Q.render(v) == Q.render(x) == repr(Fraction(x))
    P = PolynomialRing(Q, ["x", "y"])
    p = P.add(P.constant(v), P.variable("y"))
    want = (((0, 1), Fraction(1)),) + (
        (((0, 0), Fraction(x)),) if x else ())
    assert P.render(p) == repr(want)


def densified(ring, basis, n):
    """Sparse kernel vectors as dense rows of length n; every entry a
    vector holds is nonzero."""
    assert all(not ring.is_zero(c) for v in basis for c in v.values())
    return [[v.get(j, ring.zero) for j in range(n)] for v in basis]


def test_kernel_basis():
    ker = densified(F7, kernel_basis_field(F7, [[1, 2, 3]]), 3)
    assert ker == dense_kernel(F7, [[1, 2, 3]])
    assert len(ker) == 2
    for v in ker:
        assert (v[0] + 2 * v[1] + 3 * v[2]) % 7 == 0


def dense_eliminate(ring, a, n):
    """Reference: dense Gauss-Jordan in place, pivoting on the first
    nonzero entry of each of the first n columns; returns (row, column)
    pivots."""
    m = len(a)
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if not ring.is_zero(a[i][c])),
                  None)
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


def dense_solve(ring, rows, rhs):
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[ring.normalize(v) for v in row] + [ring.normalize(rhs[i])]
         for i, row in enumerate(rows)]
    pivots = dense_eliminate(ring, a, n)
    if any(not ring.is_zero(a[i][n]) for i in range(len(pivots), m)):
        return None
    x = [ring.zero] * n
    for i, c in pivots:
        x[c] = a[i][n]
    return x


def dense_kernel(ring, rows):
    n = len(rows[0]) if rows else 0
    a = [[ring.normalize(v) for v in row] for row in rows]
    pivots = dense_eliminate(ring, a, n)
    basis = []
    for free in sorted(set(range(n)) - {c for _, c in pivots}):
        v = [ring.zero] * n
        v[free] = ring.one
        for i, c in pivots:
            v[c] = ring.neg(a[i][free])
        basis.append(v)
    return basis


def random_system(rng, ring, m, n, density):
    """A random m x n matrix with a right-hand side; some rows are
    combinations of earlier ones, and the right-hand side is sometimes in
    the column space and sometimes not."""
    def entry():
        if rng.random() >= density:
            return ring.zero
        if ring is Q:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(-7, 15)  # not reduced mod 7
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            k = entry()
            rows.append([ring.add(x, ring.mul(k, y)) for x, y in zip(a, b)])
        else:
            rows.append([entry() for _ in range(n)])
    if rng.random() < 0.5:
        x = [entry() for _ in range(n)]
        rhs = [ring.normalize(sum((ring.mul(r, v) for r, v in zip(row, x)),
                                  ring.zero)) for row in rows]
    else:
        rhs = [entry() for _ in range(m)]
    return rows, rhs


@pytest.mark.parametrize("ring", [F7, Q], ids=["F7", "Q"])
def test_sparse_elimination_matches_the_dense_reference(ring):
    rng = random.Random(7)
    cases = [([], []), ([[ring.zero] * 4] * 3, [ring.zero] * 3),
             ([[ring.zero] * 3] * 2, [ring.zero, ring.one]),
             ([[ring.one, ring.zero, ring.from_int(2)]], [ring.one]),
             ([[ring.zero, ring.zero, ring.zero]], [ring.one]),
             ([[ring.one, ring.one], [ring.from_int(2), ring.from_int(2)]],
              [ring.one, ring.from_int(3)])]
    for _ in range(300):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        cases.append(random_system(rng, ring, m, n,
                                   rng.choice((0.2, 0.5, 0.9))))
    kinds = set()
    for rows, rhs in cases:
        want = dense_solve(ring, rows, rhs)
        assert solve_field(ring, rows, rhs) == want
        n = len(rows[0]) if rows else 0
        assert densified(ring, kernel_basis_field(ring, rows), n) \
            == dense_kernel(ring, rows)
        kinds.add(want is None)
    assert kinds == {True, False}


def test_ring_homs():
    red = reduction_mod(5)
    assert red(12) == 2
    P = PolynomialRing(Q, ["x"])
    ev = evaluation_hom(P, [Fraction(2)])
    v = P.add(P.mul(P.variable("x"), P.variable("x")), P.one)
    assert ev(v) == Fraction(5)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=2, max_size=4),
       st.lists(st.integers(-9, 9), min_size=2, max_size=4))
def test_integer_solutions_verify(rows, rhs):
    rhs = rhs[:len(rows)] + [0] * (len(rows) - len(rhs))
    sol = solve_integers(rows, rhs)
    if sol is not None:
        for row, b in zip(rows, rhs):
            assert sum(r * x for r, x in zip(row, sol)) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_smith_is_diagonal_with_divisibility_chain(rows):
    u, d, v = smith_normal_form(rows)
    n = len(d)
    for i in range(n):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(min(n, len(d[0])))]
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # U A V = D
    m, w = len(rows), len(rows[0])
    prod = [[sum(u[i][k] * rows[k][j] for k in range(m)) for j in range(w)]
            for i in range(m)]
    prod = [[sum(prod[i][k] * v[k][j] for k in range(w)) for j in range(w)]
            for i in range(m)]
    assert prod == d
