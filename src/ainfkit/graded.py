"""Graded spaces, sparse vectors over basis words, and Koszul-signed operators.

Conventions used throughout the package:

* a tensor word over a graded space is a tuple of generator names; the empty
  tuple is the (explicit) empty word;
* the sign rule is (phi (x) psi)(m (x) m') = (-1)^{|psi||m|} phi(m) (x) psi(m');
  every sign in the package is computed from explicit degree crossings at the
  point of use, never cached;
* a degree-shifted copy of a space keeps the generator names and lowers each
  degree by one (sigma has degree -1, its inverse omega degree +1);
* every operator on basis words (letters, uwords, generators, module
  triples) is a word -> Vector map, applied to a Vector with ``Vector.bind``;
* a word map that a check evaluates over and over goes through ``cached``
  (or, for the maps of an object built outside the check, ``memoized``), and
  each cache lives for one check or construction call: it is never
  module-global and never left on an object that outlives the call.  The
  cached Vectors are shared, so no caller mutates a value a word map
  returns.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .rings import Ring

Word = Tuple[str, ...]


class Grading:
    """The grading group: the integers, or a cyclic group of even order."""

    def __init__(self, modulus: Optional[int] = None):
        if modulus is not None:
            if modulus < 2 or modulus % 2 != 0:
                raise ValueError("cyclic grading modulus must be even and >= 2")
        self.modulus = modulus

    def normalize(self, d: int) -> int:
        return d if self.modulus is None else d % self.modulus

    def parity(self, d: int) -> int:
        # well defined for cyclic gradings because the modulus is even
        return d % 2

    def equal(self, a: int, b: int) -> bool:
        return self.normalize(a) == self.normalize(b)

    def describe(self) -> str:
        return "Z" if self.modulus is None else "Z/%d" % self.modulus

    def __eq__(self, other):
        return isinstance(other, Grading) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("grading", self.modulus))


class GradedSpace:
    """A free graded module on named generators."""

    def __init__(self, ring: Ring, grading: Grading,
                 generators: Sequence[Tuple[str, int]]):
        names = [n for n, _ in generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.ring = ring
        self.grading = grading
        self.gens: Dict[str, int] = {n: grading.normalize(d)
                                     for n, d in generators}
        self.names: Tuple[str, ...] = tuple(names)

    def degree(self, name: str) -> int:
        return self.gens[name]

    def parity(self, name: str) -> int:
        return self.grading.parity(self.gens[name])

    def shifted(self) -> "GradedSpace":
        """The suspension: same names, every degree lowered by one."""
        return GradedSpace(self.ring, self.grading,
                           [(n, d - 1) for n, d in self.gens.items()])

    def word_degree(self, word: Word) -> int:
        return self.grading.normalize(sum(self.gens[x] for x in word))

    def word_parity(self, word: Word) -> int:
        return sum(self.gens[x] for x in word) % 2

    def words(self, max_len: int, min_len: int = 0) -> Iterator[Word]:
        for ln in range(min_len, max_len + 1):
            for w in itertools.product(self.names, repeat=ln):
                yield w


class Vector:
    """A sparse linear combination of hashable basis words."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Optional[Dict[Any, Any]] = None):
        self.ring = ring
        self.terms: Dict[Any, Any] = {}
        if terms:
            for w, c in terms.items():
                self.add_term(w, c)

    @classmethod
    def zero(cls, ring: Ring) -> "Vector":
        return cls(ring)

    @classmethod
    def basis(cls, ring: Ring, word: Any, coeff: Any = None) -> "Vector":
        v = cls(ring)
        v.add_term(word, ring.one if coeff is None else coeff)
        return v

    def add_term(self, word: Any, coeff: Any) -> None:
        c = self.ring.add(self.terms.get(word, self.ring.zero), coeff)
        if self.ring.is_zero(c):
            self.terms.pop(word, None)
        else:
            self.terms[word] = c

    def __add__(self, other: "Vector") -> "Vector":
        out = Vector(self.ring, dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def __sub__(self, other: "Vector") -> "Vector":
        out = Vector(self.ring, dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, self.ring.neg(c))
        return out

    def __neg__(self) -> "Vector":
        return Vector(self.ring, {w: self.ring.neg(c)
                                  for w, c in self.terms.items()})

    def scaled(self, c: Any) -> "Vector":
        out = Vector(self.ring)
        for w, k in self.terms.items():
            out.add_term(w, self.ring.mul(c, k))
        return out

    def add_vector(self, other: "Vector", coeff: Any = None) -> None:
        """Add coeff * other (default: other) to this vector in place."""
        for w, c in other.terms.items():
            self.add_term(w, c if coeff is None else self.ring.mul(coeff, c))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.terms == other.terms

    def map_words(self, fn: Callable[[Any], Any]) -> "Vector":
        out = Vector(self.ring)
        for w, c in self.terms.items():
            out.add_term(fn(w), c)
        return out

    def bind(self, fn: Callable[[Any], "Vector"]) -> "Vector":
        """Apply a word -> Vector map linearly."""
        out = Vector(self.ring)
        for w, c in self.terms.items():
            piece = fn(w)
            if piece is None:
                continue
            for w2, c2 in piece.terms.items():
                out.add_term(w2, self.ring.mul(c, c2))
        return out

    def concat(self, other: "Vector") -> "Vector":
        """The concatenation product: sum of c1*c2 (w1 + w2) over the terms
        c1*w1 of this vector and c2*w2 of the other."""
        ring = self.ring
        out = Vector(ring)
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                out.add_term(w1 + w2, ring.mul(c1, c2))
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join("%r*%r" % (c, w) for w, c in sorted(
            self.terms.items(), key=lambda t: repr(t[0])))


def cached(fn: Callable[[Any], Vector]) -> Callable[[Any], Vector]:
    """The word map ``fn`` with its values kept in a dict, which lives as
    long as the returned map."""
    memo: Dict[Any, Vector] = {}

    def lookup(word: Any) -> Vector:
        v = memo.get(word)
        if v is None:
            v = memo[word] = fn(word)
        return v

    lookup.memo = memo
    return lookup


@contextlib.contextmanager
def memoized(obj: Any, *names: str) -> Iterator[None]:
    """Inside the block, the word-map methods ``names`` of ``obj`` go
    through ``cached``; on exit ``obj`` is as it was.  A map that is already
    cached is left alone."""
    installed = []
    for name in names:
        fn = getattr(obj, name)
        if not hasattr(fn, "memo"):
            setattr(obj, name, cached(fn))
            installed.append(name)
    try:
        yield
    finally:
        for name in installed:
            delattr(obj, name)


def sign(parity: int) -> int:
    return -1 if parity % 2 else 1


class MultiOp:
    """A family of multilinear operations of a common degree.

    The table maps input words (tuples of generator names, the length is the
    arity) to Vectors of output words.  Arities up to ``arity_cap`` are
    meaningful; missing entries are zero; arities beyond the cap are zero by
    declaration.
    """

    def __init__(self, ring: Ring, degree: int, arity_cap: int,
                 table: Optional[Dict[Word, Vector]] = None):
        self.ring = ring
        self.degree = degree
        self.arity_cap = arity_cap
        self.table: Dict[Word, Vector] = {}
        if table:
            for w, v in table.items():
                self.set(w, v)

    def set(self, word: Word, value: Vector) -> None:
        if len(word) > self.arity_cap:
            raise ValueError("arity %d beyond cap %d" % (len(word),
                                                         self.arity_cap))
        if value.is_zero():
            self.table.pop(word, None)
        else:
            self.table[word] = value

    def apply(self, word: Word) -> Vector:
        v = self.table.get(tuple(word))
        return v if v is not None else Vector.zero(self.ring)

    def __call__(self, word: Word) -> Vector:
        return self.apply(word)

    def arities(self) -> List[int]:
        return sorted({len(w) for w in self.table})

    def support_min(self) -> Optional[int]:
        ar = self.arities()
        return ar[0] if ar else None

    def plus(self, other: "MultiOp") -> "MultiOp":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        out = MultiOp(self.ring, self.degree,
                      max(self.arity_cap, other.arity_cap), dict(self.table))
        for w, v in other.table.items():
            out.set(w, out.apply(w) + v)
        return out

    def negated(self) -> "MultiOp":
        return MultiOp(self.ring, self.degree, self.arity_cap,
                       {w: -v for w, v in self.table.items()})

    def __eq__(self, other):
        return (isinstance(other, MultiOp) and self.degree == other.degree
                and self.table == other.table)


def insert_blocks(ring: Ring, word: Sequence,
                  letter_parity: Callable[[Any], int], odd: bool,
                  max_block: int,
                  block: Callable[[Sequence], Vector]) -> Vector:
    """The insertion 1^(x) (x) f (x) 1^(x) of a family f on a word.

    Sums word[:i] + w + word[j:] over every block word[i:j] of at most
    ``max_block`` letters (empty blocks included) and every term c*w of
    ``block(word[i:j])``; a term is negated when the family is odd and the
    crossed prefix word[:i] is odd.
    """
    n = len(word)
    out = Vector(ring)
    add, neg = out.add_term, ring.neg
    par = 0
    for i in range(n + 1):
        flip = odd and par
        pre = word[:i]
        for j in range(i, min(n, i + max_block) + 1):
            mid = block(word[i:j])
            if mid.terms:
                post = word[j:]
                for w2, c in mid.terms.items():
                    add(pre + w2 + post, neg(c) if flip else c)
        if i < n:
            par = (par + letter_parity(word[i])) % 2
    return out


def sandwich(op: MultiOp, word: Word,
              letter_parity: Callable[[str], int]) -> Vector:
    """The coderivation 1^(x) (x) op (x) 1^(x) evaluated on a word, with
    empty blocks at each of the len+1 positions when the family has an
    arity-0 entry."""
    return insert_blocks(op.ring, word, letter_parity, op.degree % 2 == 1,
                         op.arity_cap, op.apply)


def block_extend(ring: Ring, n: int, max_block: int,
                 image: Callable[[int, int], Vector]) -> Vector:
    """The sum, over the splittings of a word of length ``n`` into nonempty
    blocks of at most ``max_block`` letters, of the concatenated block
    images, where ``image(i, j)`` is the image of the block word[i:j].

    The sum is built prefix by prefix, head[j] = sum_i head[i].image(i, j),
    so a zero head or a zero image ends every splitting through it.  The
    empty word maps to the empty word.
    """
    heads: List[Vector] = [Vector.basis(ring, ())]
    for j in range(1, n + 1):
        acc = Vector(ring)
        for i in range(max(0, j - max_block), j):
            if heads[i].terms:
                img = image(i, j)
                if img.terms:
                    acc.add_vector(heads[i].concat(img))
        heads.append(acc)
    return heads[n]


def geometric_extend(op: MultiOp, word: Word,
                     block_parity: Callable[[Word], int]) -> Vector:
    """The geometric series (op_.)^(x) on a word: sum over splittings into
    nonempty blocks of the slotwise application, each block word[i:j] with
    the Koszul sign (-1)^{|op| |word[:i]|}.  The empty word maps to itself.
    Families with an arity-0 entry are refused (the series would not
    terminate)."""
    ring = op.ring
    if () in op.table:
        raise ValueError("geometric series of a family with an arity-0 part")
    odd = op.degree % 2
    minus = ring.from_int(-1)

    def image(i: int, j: int) -> Vector:
        v = op.apply(word[i:j])
        return v.scaled(minus) if odd and block_parity(word[:i]) else v

    return block_extend(ring, len(word), op.arity_cap, image)


def comultiply(word: Word, ring: Ring, reduced: bool = False) -> Vector:
    """Deconcatenation on the tensor coalgebra; basis words are pairs.

    The full coproduct has len+1 splittings; the reduced one drops the two
    with an empty side.
    """
    n = len(word)
    out = Vector.zero(ring)
    lo, hi = (1, n - 1) if reduced else (0, n)
    for i in range(lo, hi + 1):
        out.add_term((word[:i], word[i:]), ring.one)
    return out
