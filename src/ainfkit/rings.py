"""Exact commutative coefficient rings.

Supported ring kinds:

* ``Integers()``           -- the ring of integers, values are python ints
* ``Rationals()``          -- exact rationals, values are ``fractions.Fraction``
* ``IntegersMod(n)``       -- Z/n for n >= 2, values are ints in [0, n); a
  modulus whose primality cannot be decided exactly is refused
* ``PolynomialRing(base, vars)`` -- multivariate polynomials over a field or
  over the integers; a single flattened layer of variables with a fixed
  declared order.  Values are canonical tuples of (exponent-tuple, coeff).

All arithmetic is exact; there is no floating point anywhere in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any, Iterable, Optional, Sequence, Tuple


class UnsupportedRing(Exception):
    """Raised when an operation is not implemented for the given ring."""


def exact_integer(raw: Any) -> int:
    """An integer given as a JSON integer or a decimal string; floats and
    booleans are refused rather than truncated."""
    if isinstance(raw, (bool, float)):
        raise TypeError("%r is not an exact integer" % (raw,))
    return int(raw)


# The first 13 primes.  As Miller-Rabin bases they decide primality for
# every n below _MR_BOUND (Sorenson & Webster, arXiv 1509.00864).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> Optional[bool]:
    """Strong-probable-prime test to the bases in _MR_BASES.  A witness
    proves n composite at any size; passing every base proves n prime only
    below _MR_BOUND, and above it the answer is None (unknown)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True if n < _MR_BOUND else None


class Ring:
    """Base class; subclasses implement normalization and unit tests.

    Elements are plain hashable python values; every operation goes through
    the ring object so tables can store bare values.
    """

    def normalize(self, v: Any) -> Any:
        raise NotImplementedError

    @property
    def zero(self) -> Any:
        raise NotImplementedError

    @property
    def one(self) -> Any:
        raise NotImplementedError

    def add(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def neg(self, a: Any) -> Any:
        raise NotImplementedError

    def mul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def sub(self, a: Any, b: Any) -> Any:
        return self.add(a, self.neg(b))

    def is_zero(self, a: Any) -> bool:
        return a == self.zero

    def is_unit(self, a: Any) -> bool:
        raise NotImplementedError

    def inv(self, a: Any) -> Any:
        raise NotImplementedError

    def from_int(self, n: int) -> Any:
        v = self.zero
        one = self.one
        for _ in range(abs(n)):
            v = self.add(v, one)
        return v if n >= 0 else self.neg(v)

    @property
    def is_field(self) -> bool:
        return False

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.describe()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ring) and self.describe() == other.describe()

    def __hash__(self) -> int:
        return hash(self.describe())


class Integers(Ring):
    def normalize(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError("integer expected, got %r" % (v,))
        return v

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("%r is not a unit in Z" % (a,))
        return a

    def from_int(self, n):
        return n

    def describe(self):
        return "Z"


class Rationals(Ring):
    def normalize(self, v):
        return Fraction(v)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def from_int(self, n):
        return Fraction(n)

    is_field = True

    def describe(self):
        return "Q"


class IntegersMod(Ring):
    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise ValueError("modulus must be an integer >= 2")
        prime = _is_prime(n)
        if prime is None:
            raise ValueError("cannot decide whether the modulus %d is prime"
                             % n)
        self.n = n
        self._prime = prime

    def normalize(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError("integer expected, got %r" % (v,))
        return v % self.n

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def inv(self, a):
        return pow(a, -1, self.n)

    def from_int(self, n):
        return n % self.n

    @property
    def is_field(self):
        return self._prime

    def describe(self):
        return "Z/%d" % self.n


# Polynomials: canonical form is a tuple of (exponents, coeff) pairs sorted
# in descending lexicographic order on the exponent tuples, zero coefficients
# dropped.  The empty tuple is zero.

Poly = Tuple[Tuple[Tuple[int, ...], Any], ...]


class PolynomialRing(Ring):
    def __init__(self, base: Ring, variables: Sequence[str]):
        if isinstance(base, PolynomialRing):
            raise UnsupportedRing("nested polynomial rings are not supported; "
                                  "declare all variables in one layer")
        if isinstance(base, IntegersMod) and not base.is_field:
            raise UnsupportedRing("polynomial coefficients over Z/n need n prime")
        if not variables:
            raise ValueError("at least one variable required")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable names")
        self.base = base
        self.variables = tuple(variables)

    def _canon(self, terms: Iterable[Tuple[Tuple[int, ...], Any]]) -> Poly:
        acc: dict = {}
        for exps, c in terms:
            exps = tuple(exps)
            if len(exps) != len(self.variables):
                raise ValueError("exponent tuple has wrong length")
            acc[exps] = self.base.add(acc.get(exps, self.base.zero), c)
        return tuple(sorted(((e, c) for e, c in acc.items()
                             if not self.base.is_zero(c)), reverse=True))

    def normalize(self, v):
        if isinstance(v, int):
            return self.constant(self.base.from_int(v))
        return self._canon(v)

    @property
    def zero(self) -> Poly:
        return ()

    @property
    def one(self) -> Poly:
        return self.constant(self.base.one)

    def constant(self, c) -> Poly:
        if self.base.is_zero(c):
            return ()
        return (((0,) * len(self.variables), c),)

    def variable(self, name: str) -> Poly:
        i = self.variables.index(name)
        e = [0] * len(self.variables)
        e[i] = 1
        return ((tuple(e), self.base.one),)

    def add(self, a, b):
        return self._canon(list(a) + list(b))

    def neg(self, a):
        return tuple((e, self.base.neg(c)) for e, c in a)

    def mul(self, a, b):
        terms = []
        for ea, ca in a:
            for eb, cb in b:
                terms.append((tuple(x + y for x, y in zip(ea, eb)),
                              self.base.mul(ca, cb)))
        return self._canon(terms)

    def is_unit(self, a):
        if len(a) != 1:
            return False
        e, c = a[0]
        return all(x == 0 for x in e) and self.base.is_unit(c)

    def inv(self, a):
        if not self.is_unit(a):
            raise ZeroDivisionError("non-unit polynomial")
        return self.constant(self.base.inv(a[0][1]))

    def from_int(self, n):
        return self.constant(self.base.from_int(n))

    def evaluate(self, a: Poly, point: Sequence[Any]) -> Any:
        """Evaluate at a point with coordinates in the base ring."""
        if len(point) != len(self.variables):
            raise ValueError("wrong number of coordinates")
        total = self.base.zero
        for exps, c in a:
            term = c
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = self.base.mul(term, x)
            total = self.base.add(total, term)
        return total

    def truncate_degree(self, a: Poly, var: str, below: int) -> Poly:
        """Drop all terms whose exponent of ``var`` is >= ``below``."""
        i = self.variables.index(var)
        return tuple((e, c) for e, c in a if e[i] < below)

    def describe(self):
        return "%s[%s]" % (self.base.describe(), ",".join(self.variables))


class RingHom:
    """A ring homomorphism given by a value-level map.

    ``kind`` is a short tag used in reports; ``fn`` maps source values to
    target values and must be additive and multiplicative (checked lazily by
    callers on the data they transport).
    """

    def __init__(self, source: Ring, target: Ring, fn, kind: str = "hom"):
        self.source = source
        self.target = target
        self.fn = fn
        self.kind = kind

    def __call__(self, v):
        return self.target.normalize(self.fn(v))


def reduction_mod(n: int) -> RingHom:
    return RingHom(Integers(), IntegersMod(n), lambda v: v % n, "Z->Z/%d" % n)


def inclusion_to_rationals() -> RingHom:
    return RingHom(Integers(), Rationals(), Fraction, "Z->Q")


def constants_hom(poly: PolynomialRing) -> RingHom:
    """Embed the base ring of a polynomial ring as constants."""
    return RingHom(poly.base, poly, poly.constant,
                   "%s->%s" % (poly.base.describe(), poly.describe()))


def evaluation_hom(poly: PolynomialRing, point: Sequence[Any]) -> RingHom:
    pt = [poly.base.normalize(x) for x in point]
    return RingHom(poly, poly.base, lambda v: poly.evaluate(v, pt),
                   "%s->eval%r" % (poly.describe(), tuple(pt)))


def ring_from_descriptor(desc: dict) -> Ring:
    """Build a ring from a JSON-style descriptor."""
    kind = desc.get("kind")
    if kind in ("Z", "integers"):
        return Integers()
    if kind in ("Q", "rationals"):
        return Rationals()
    if kind in ("Zmod", "integers-mod"):
        return IntegersMod(exact_integer(desc["n"]))
    if kind in ("poly", "polynomial"):
        variables = desc["variables"]
        if not isinstance(variables, list) or not all(
                isinstance(v, str) for v in variables):
            raise ValueError("polynomial variables must be a list of "
                             "strings")
        return PolynomialRing(ring_from_descriptor(desc["base"]), variables)
    raise UnsupportedRing("unknown ring kind %r" % (kind,))
