"""Curved strictly unital A-infinity algebras, morphisms, modules, bimodules.

Everything lives on the shifted side: an algebra structure is a single odd
family b on words in the suspension A[1], a module structure is a family
taking one module letter and a word of algebra letters, and so on.  The
unshifted (classical) operations m_i are available through the dictionary

    b_i = -(sigma o m_i o omega^{(x)i})

with all Koszul signs computed explicitly.

The structure relation for an algebra can be tested two ways: as B^2 = 0 for
the full coderivation B = 1^(x) (x) b (x) 1^(x), or as b(B) = 0 -- the two
are equivalent because the inner copies of b inside B^2 cross-cancel.  Both
code paths are kept separate on purpose so they can cross-check each other.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, Iterator, Optional,
                    Sequence, Tuple)

from .graded import (GradedSpace, MultiOp, Vector, Word, geometric_extend,
                     sandwich, sign)
from .linalg import solve_field
from .report import FAIL, PASS, CheckReport
from .rings import Ring


def _require_odd(family: str, entries: Dict,
                 key_parity: Callable[[Any], int],
                 term_parity: Callable[[Any], int]) -> None:
    """Refuse a structure family that is not homogeneous and odd: every
    term of every entry must have the parity of its key plus one.  A key
    or term that names no generator raises KeyError."""
    for k, v in entries.items():
        want = (key_parity(k) + 1) % 2
        for t in v.terms:
            if term_parity(t) % 2 != want:
                raise ValueError("%s entry %r: term %r does not have the "
                                 "parity of its key plus one"
                                 % (family, k, t))


class AInfAlgebra:
    """A curved strictly unital A-infinity algebra given by a b-table.

    ``space`` holds the unshifted generator degrees; the table of ``b`` is
    indexed by words in the suspension (same generator names, degree one
    lower).  ``unit`` names the strict unit e; eta = sigma(e) is the
    corresponding letter of A[1].  A unit of odd degree, or a family that
    is not homogeneous and odd, is refused with ValueError.
    """

    def __init__(self, space: GradedSpace, unit: str, b: MultiOp):
        if unit not in space.gens:
            raise ValueError("unit %r is not a generator" % unit)
        if b.degree != 1:
            raise ValueError("the structure family must have degree 1")
        if space.parity(unit):
            raise ValueError("unit %r has odd degree %d"
                             % (unit, space.degree(unit)))
        self.space = space
        self.unit = unit
        self.b = b
        self.shift = space.shifted()
        self.ring = space.ring
        self.grading = space.grading
        letters = {(x,): self.letter_parity(x) for x in space.names}
        _require_odd("b", b.table, self.word_parity, letters.__getitem__)

    @property
    def arity_cap(self) -> int:
        return self.b.arity_cap

    @property
    def eta(self) -> str:
        return self.unit

    def letter_parity(self, x: str) -> int:
        return self.shift.parity(x)

    def word_parity(self, w: Word) -> int:
        return self.shift.word_parity(w)

    def word_degree(self, w: Word) -> int:
        return self.shift.word_degree(w)

    def B(self, word: Word) -> Vector:
        """The coderivation 1^(x) (x) b (x) 1^(x) on one word."""
        return sandwich(self.b, word, self.letter_parity)

    def curvature_letterwise(self) -> Vector:
        """b_0(1), an element of A[1]; zero for uncurved algebras."""
        return self.b.apply(())

    def words(self, cap: int, min_len: int = 0) -> Iterator[Word]:
        return self.shift.words(cap, min_len)


def check_unit_laws(A: AInfAlgebra) -> CheckReport:
    """Strict unitality of the table: the unit letter multiplies as the
    identity in arity two and is annihilated by every other arity."""
    rep = CheckReport("unit-laws", "b_2(eta,x)=x, b_2(x,eta)=(-1)^{|x|}x, "
                      "b_l(...eta...)=0 for l != 2", A.arity_cap)
    e = A.eta
    R = A.ring
    for x in A.shift.names:
        got = A.b.apply((e, x))
        want = Vector.basis(R, (x,))
        if got != want:
            return rep.fail((("b2", e, x), want, got))
        got = A.b.apply((x, e))
        want = Vector.basis(R, (x,), R.from_int(sign(A.space.parity(x))))
        if got != want:
            return rep.fail((("b2", x, e), want, got))
    for w, v in A.b.table.items():
        if len(w) != 2 and e in w and not v.is_zero():
            return rep.fail((("b", w), "0", v))
    return rep


def impose_unit_laws(A_space: GradedSpace, unit: str, b: MultiOp) -> MultiOp:
    """Overwrite a table so the strict unit laws hold exactly."""
    out = MultiOp(b.ring, 1, max(b.arity_cap, 2))
    for w, v in b.table.items():
        if unit in w:
            continue
        out.set(w, v)
    shift = A_space.shifted()
    for x in A_space.names:
        out.set((unit, x), Vector.basis(b.ring, (x,)))
        if x != unit:
            out.set((x, unit), Vector.basis(
                b.ring, (x,), b.ring.from_int(sign(A_space.parity(x)))))
    return out


def _structure_check(rep: CheckReport, words: Iterable,
                     coderivation: Callable[[Any], Vector],
                     whole: Callable[[Any], Vector],
                     unit_laws: CheckReport) -> CheckReport:
    """The structure relation of a coderivation B built from a family b,
    through two code paths on each of ``words``: path "b(B)" applies
    ``whole``, the family on entire words, to B(w), and path "B^2" applies
    ``coderivation`` to it again.

    The report fails on the unit laws first, then at the first word where
    a path is nonzero, with witness (w, "0", value).  The two paths must
    agree; a disagreement fails the report and records the first failure
    of each path under "inconsistency" rather than hiding it.

    The checks pass every word up to the cap, in enumeration order, or
    only the ``support_words`` of their tables, in the same order.  Every
    table family is homogeneous and odd (its constructor refuses it
    otherwise), so they pass the support words of an algebra, and of a
    table module or bimodule whose algebras pass b(B) on their own support
    words up to the cap.  Each path then first fails at the
    same word as on every word: b(B) vanishes off the support words, and
    B^2 is the coderivation whose one-letter component is b(B), so B^2 is
    nonzero on a word only if b(B) is nonzero on a subword, and a proper
    subword comes earlier in the enumeration.
    """
    paths = (("b(B)", whole), ("B^2", coderivation))
    first_fail: Dict[str, Tuple] = {}
    for w in words:
        bw = coderivation(w)
        for key, path in paths:
            if key not in first_fail:
                v = bw.bind(path)
                if not v.is_zero():
                    first_fail[key] = (w, "0", v)
        if len(first_fail) == len(paths):
            break
    agree = ("b(B)" in first_fail) == ("B^2" in first_fail)
    rep.details["paths_agree"] = agree
    rep.details["unit_laws"] = unit_laws.verdict
    if unit_laws.verdict != PASS:
        rep.fail(("unit-laws", None, None))
    if first_fail:
        rep.fail(next(iter(first_fail.values())))
    if not agree:
        rep.verdict = FAIL
        rep.details["inconsistency"] = first_fail
    return rep


def _enumeration_key(A: Optional[AInfAlgebra]) -> Callable[[Word], Tuple]:
    """The order of ``A.words``: by length, then letter by letter in
    generator order (without an algebra, only the empty word)."""
    rank = {x: i for i, x in enumerate(A.space.names)} if A else {}
    return lambda w: (len(w), [rank[x] for x in w])


def _spliced(word: Word, p: int, inner: Word) -> Word:
    """``word`` with its letter at position p replaced by ``inner``."""
    return word[:p] + inner + word[p + 1:]


def support_words(entries: Dict[Tuple[Word, Any, Word], Vector],
                  left: Optional[AInfAlgebra], right: Optional[AInfAlgebra],
                  heads: Sequence, cap: int
                  ) -> Iterator[Tuple[Word, Any, Word]]:
    """The words on which b(B) can be nonzero, for a coderivation B built
    from a table-backed family b with the nonzero ``entries``.

    Words and entry keys are triples (alpha, h, alpha2): a word in the
    letters of ``left``, a head letter and a word in those of ``right``.
    An algebra's words are (w, None, ()), and its b is also ``left``'s
    family; a module's are ((), m, alpha) and a bimodule's (alpha, v,
    alpha2), and b maps them to head letters.  B applies ``left``'s family
    inside alpha, ``right``'s inside alpha2 and b across the head, so each
    term of b(B)(w) is b on an entry u with one letter u[p] replaced by an
    entry v whose image holds u[p] (v = () gives the curvature terms).
    These words, for each head in ``heads`` and with at most ``cap``
    letters besides the head, come in the order of ``bimodule_words``: by
    head, by len(alpha), then by alpha, len(alpha2) and alpha2.

    They are made lazily, one (head, len(alpha)) group at a time, split by
    len(alpha2) when alpha is empty, so an algebra's and a module's come
    one length at a time.  Each group is read off indexes of the entries
    by shape (h, len(alpha), len(alpha2)) and letter, and of each side's
    family by length and image letter; each letter index is built the
    first time a group reads it.
    """
    by_shape: Dict[Tuple, list] = {}
    tops: Dict[Any, list] = {}
    for key, val in entries.items():
        a, h, a2 = key
        by_shape.setdefault((h, len(a), len(a2)), []).append(key)
        if h is not None:
            tops.setdefault(h, []).append((a, a2, tuple(val.terms)))
    slots: Dict[Tuple, Dict] = {}  # (side, shape) -> letter -> slots

    def slots_at(side: int, shape: Tuple) -> Dict:
        """The (key, p) of the entries of this shape, by their letter at
        position p on this side; built on first use."""
        at = slots.get((side, shape))
        if at is None:
            at = slots[side, shape] = {}
            for key in by_shape.get(shape, ()):
                for p, x in enumerate(key[2 * side]):
                    at.setdefault(x, []).append((key, p))
        return at

    # each side's family: its entry words by length
    by_len: Tuple[Dict, Dict] = ({}, {})
    for side, A in enumerate((left, right)):
        if A is not None:
            for w in A.b.table:
                by_len[side].setdefault(len(w), []).append(w)
    by_image: Dict[Tuple[int, int], Dict] = {}

    def images_at(side: int, k: int) -> Dict:
        """The side's entry words of length k by the letters of their
        images; built on first use."""
        at = by_image.get((side, k))
        if at is None:
            at = by_image[side, k] = {}
            table = (left, right)[side].b.table
            for w in by_len[side][k]:
                for (x,) in table[w].terms:
                    at.setdefault(x, []).append(w)
        return at
    lkey, rkey = _enumeration_key(left), _enumeration_key(right)

    def group(h, n: int, right_lengths: Iterable[int]) -> list:
        out = set()
        for n2 in right_lengths:
            for side in (0, 1):
                for k in by_len[side]:
                    at = slots_at(side, (h, n - k + 1, n2) if side == 0
                                  else (h, n, n2 - k + 1))
                    if not at:
                        continue
                    for x, ws in images_at(side, k).items():
                        for (a, _, a2), p in at.get(x, ()):
                            for w in ws:
                                out.add((_spliced(a, p, w), h, a2)
                                        if side == 0
                                        else (a, h, _spliced(a2, p, w)))
            for g, d, images in tops.get(h, ()):
                for m in images:
                    for a, _, a2 in by_shape.get(
                            (m, n - len(g), n2 - len(d)), ()):
                        out.add((a + g, h, d + a2))
        return sorted(out, key=lambda t: (lkey(t[0]), rkey(t[2])))

    for h in heads:
        for n in range(cap + 1):
            right_lengths = range(cap - n + 1)
            for batch in ([[n2] for n2 in right_lengths] if n == 0
                          else [right_lengths]):
                yield from group(h, n, batch)


def _algebra_support(A: AInfAlgebra, cap: int) -> Iterator[Word]:
    """A's support words up to the cap."""
    entries = {(w, None, ()): v for w, v in A.b.table.items()}
    return (w for w, _, _ in support_words(entries, A, None, (None,), cap))


def _square_zero(A: AInfAlgebra, cap: int) -> bool:
    """Whether b(B) = 0 on every word up to the cap (so that B^2 = 0
    there), decided on A's support words."""
    return all(A.B(w).bind(A.b.apply).is_zero()
               for w in _algebra_support(A, cap))


def check_algebra(A: AInfAlgebra, word_cap: int) -> CheckReport:
    """Structure relation b(B) = 0 and B^2 = 0 on words up to the cap,
    plus the unit laws, decided on A's support words (see
    ``_structure_check``)."""
    return _structure_check(
        CheckReport("algebra", "b(B) = 0 and B^2 = 0", word_cap),
        _algebra_support(A, word_cap), A.B, A.b.apply, check_unit_laws(A))


# ---------------------------------------------------------------------------
# the m <-> b dictionary


def _suspension_sign(word_degrees: Sequence[int]) -> int:
    """Koszul sign of applying an odd map in every slot of a word whose
    letters have the given parities: sum_j (n - j - 1) * |x_j|."""
    n = len(word_degrees)
    return sum((n - 1 - j) * d for j, d in enumerate(word_degrees)) % 2


def b_from_m(space: GradedSpace, m_table: Dict[Word, Vector], arity_cap: int) -> MultiOp:
    """b_i = -(sigma o m_i o omega^{(x)i}); table indexed by shifted words."""
    ring = space.ring
    out = MultiOp(ring, 1, arity_cap)
    for w, v in m_table.items():
        s = _suspension_sign([space.parity(x) + 1 for x in w])
        c = ring.from_int(-sign(s))
        out.set(w, v.scaled(c))
    return out


def m_from_b(space: GradedSpace, b: MultiOp) -> Dict[Word, Vector]:
    """Inverse dictionary.  Because (omega^{(x)i})^{-1} = (-1)^{i(i-1)/2}
    sigma^{(x)i}, the inverse picks up the extra binomial sign."""
    ring = space.ring
    out: Dict[Word, Vector] = {}
    for w, v in b.table.items():
        i = len(w)
        s = _suspension_sign([space.parity(x) for x in w]) + (i * (i - 1) // 2)
        c = ring.from_int(-sign(s))
        val = v.scaled(c)
        if not val.is_zero():
            out[w] = val
    return out


# ---------------------------------------------------------------------------
# morphisms


class AInfMorphism:
    """Morphism data f: a degree-0 family from words in A[1] to letters of
    A'[1], unital: f_1(eta) = eta', higher components kill the unit."""

    def __init__(self, source: AInfAlgebra, target: AInfAlgebra, f: MultiOp):
        if f.degree != 0:
            raise ValueError("morphism families have degree 0")
        if 0 in f.arities():
            raise ValueError("morphism families start at arity 1")
        self.source = source
        self.target = target
        self.f = f
        self.ring = source.ring

    @property
    def arity_cap(self) -> int:
        return self.f.arity_cap

    def extended(self, word: Word) -> Vector:
        """The coalgebra morphism F = (f_.)^(x) on one word."""
        return geometric_extend(self.f, word, self.source.word_parity)

    def check_unit(self) -> CheckReport:
        rep = CheckReport("morphism-unit", "f_1(eta)=eta', f_l(...eta...)=0",
                          self.arity_cap)
        want = Vector.basis(self.ring, (self.target.eta,))
        got = self.f.apply((self.source.eta,))
        if got != want:
            return rep.fail(((self.source.eta,), want, got))
        for w, v in self.f.table.items():
            if len(w) >= 2 and self.source.eta in w and not v.is_zero():
                return rep.fail((w, "0", v))
        return rep


def check_morphism(f: AInfMorphism, word_cap: int) -> CheckReport:
    """B' F - F B = 0 on words up to the cap, plus the unit laws.

    B'F - FB is an F-coderivation into the tensor coalgebra, so it is
    fixed by its one-letter component b'(F(w)) - f(B(w)); that component
    is what each word compares.  Words come shortest first, so at the first
    failing word the whole difference is its one-letter component."""
    rep = CheckReport("morphism", "B'F = FB", word_cap)
    rep.details["unit_laws"] = f.check_unit().verdict
    if rep.details["unit_laws"] != PASS:
        rep.fail(("unit-laws", None, None))
    for w in f.source.words(word_cap):
        lhs = f.extended(w).bind(f.target.b.apply)
        rhs = f.source.B(w).bind(f.f.apply)
        if lhs != rhs:
            rep.fail((w, rhs, lhs))
            break
    return rep


def compose_morphisms(g: AInfMorphism, f: AInfMorphism,
                      arity_cap: Optional[int] = None) -> AInfMorphism:
    """(g o f)_. = g_.((f_.)^(x)); exact because missing arities are zero by
    declaration."""
    if f.target is not g.source and f.target.space.gens != g.source.space.gens:
        raise ValueError("composition mismatch")
    cap = arity_cap if arity_cap is not None else max(f.arity_cap, g.arity_cap)
    h = MultiOp(f.ring, 0, cap)
    for w in f.source.words(cap, min_len=1):
        val = f.extended(w).bind(g.f.apply)
        if not val.is_zero():
            h.set(w, val)
    return AInfMorphism(f.source, g.target, h)


def identity_morphism(A: AInfAlgebra, arity_cap: Optional[int] = None) -> AInfMorphism:
    f = MultiOp(A.ring, 0, arity_cap or A.arity_cap)
    for x in A.shift.names:
        f.set((x,), Vector.basis(A.ring, (x,)))
    return AInfMorphism(A, A, f)


def _linear_inverse(f: AInfMorphism) -> Dict[str, Vector]:
    """Invert the arity-one part as a linear map on letters."""
    ring = f.ring
    src = f.source.shift.names
    tgt = f.target.shift.names
    if len(src) != len(tgt):
        raise ValueError("arity-one part cannot be invertible")
    rows = [[f.f.apply((x,)).terms.get((y,), ring.zero) for x in src]
            for y in tgt]
    inv: Dict[str, Vector] = {}
    for y in tgt:
        rhs = [ring.one if z == y else ring.zero for z in tgt]
        if ring.is_field:
            sol = solve_field(ring, rows, rhs)
        else:
            # outside fields only the identity-on-letters case is needed
            sol = rhs if all(rows[i][i] == ring.one and all(
                ring.is_zero(rows[i][j]) for j in range(len(src)) if j != i)
                for i in range(len(src))) else None
        if sol is None:
            raise ValueError("arity-one part is not invertible")
        v = Vector(ring)
        for x, c in zip(src, sol):
            if not ring.is_zero(c):
                v.add_term((x,), c)
        inv[y] = v
    return inv


def invert_morphism_data(f: AInfMorphism, arity_cap: int) -> AInfMorphism:
    """The compositional inverse of unital morphism data with invertible
    arity-one part, computed arity by arity from (g o f) = identity."""
    ring = f.ring
    g1 = _linear_inverse(f)
    g = MultiOp(ring, 0, arity_cap)
    for y in f.target.shift.names:
        g.set((y,), g1[y])
    for ell in range(2, arity_cap + 1):
        # residue R_l(w) = -g(F(w)); the all-singletons term, the one being
        # solved for, contributes nothing because g has no arity-l entry yet
        residue: Dict[Word, Vector] = {}
        for w in f.source.words(ell, min_len=ell):
            acc = f.extended(w).bind(g.apply)
            if not acc.is_zero():
                residue[w] = -acc
        # g_l = R_l o (f_1^{-1})^{(x)l}
        for wt in f.target.words(ell, min_len=ell):
            pre = Vector.basis(ring, ())
            for y in wt:
                pre = pre.concat(g1[y])
            val = Vector(ring)
            for w, c in pre.terms.items():
                r = residue.get(w)
                if r is not None:
                    val.add_vector(r, c)
            if not val.is_zero():
                g.set(wt, val)
    return AInfMorphism(f.target, f.source, g)


def twist_algebra(A: AInfAlgebra, f: AInfMorphism, arity_cap: int) -> AInfAlgebra:
    """Conjugate the structure through invertible morphism data: the new
    family is the corestriction of F^{-1} B F, again a valid structure.

    ``f`` must be unital endomorphism data on A's underlying space (with
    invertible arity-one part); the result is exact up to ``arity_cap``.
    """
    # F never lengthens a word and B adds at most one letter (through b_0),
    # so the inverse is needed up to one arity past the cap
    g = invert_morphism_data(f, arity_cap + 1)
    b2 = MultiOp(A.ring, 1, arity_cap)
    for w in A.words(arity_cap):
        val = f.extended(w).bind(A.B).bind(g.f.apply)
        if not val.is_zero():
            b2.set(w, val)
    return AInfAlgebra(A.space, A.unit, b2)


# ---------------------------------------------------------------------------
# modules

# A module element basis word is any hashable; module-with-tail words are
# pairs (m, alpha) with alpha a word of algebra letters.


class ModuleLike:
    """Protocol for left-A-infinity-module structures.

    ``b_apply(m, aword)`` is the structure family applied to the whole word
    m (.) a_1 (x) ... (x) a_k, returning a Vector over module basis words.
    ``basis(cap)`` yields (m, weight) pairs, where weight counts algebra
    letters hidden inside m (zero for plain table modules).
    """

    algebra: AInfAlgebra
    ring: Ring

    def m_parity(self, m) -> int:
        raise NotImplementedError

    def b_apply(self, m, aword: Word) -> Vector:
        raise NotImplementedError

    def basis(self, cap: int) -> Iterator[Tuple[Any, int]]:
        raise NotImplementedError


def _module_entries(table: Dict[Tuple[Any, Word], Vector],
                    cap: int) -> Dict[Tuple[Any, Word], Vector]:
    """The nonzero entries of a (generator, word) -> vector table whose
    words have at most ``cap`` letters, as ``MultiOp.set`` asks of arities."""
    out: Dict[Tuple[Any, Word], Vector] = {}
    for (m, w), v in table.items():
        if len(w) > cap:
            raise ValueError("entry word %r has %d letters, beyond cap %d"
                             % (tuple(w), len(w), cap))
        if not v.is_zero():
            out[(m, tuple(w))] = v
    return out


class AInfModule(ModuleLike):
    """A table-backed strictly unital module.

    The table maps (m, aword) to Vectors over module generator names; the
    component with k algebra letters is the (k+1)-ary operation (one module
    letter plus k letters of A[1]), all of degree one; a table that is not
    homogeneous and odd is refused with ValueError.
    """

    def __init__(self, algebra: AInfAlgebra, space: GradedSpace,
                 table: Dict[Tuple[str, Word], Vector], arity_cap: int):
        self.algebra = algebra
        self.space = space
        self.ring = algebra.ring
        self.arity_cap = arity_cap
        self.table = _module_entries(table, arity_cap)
        _require_odd("b^M", self.table,
                     lambda k: self.m_parity(k[0]) + algebra.word_parity(k[1]),
                     self.m_parity)

    def m_parity(self, m) -> int:
        return self.space.parity(m)

    def b_apply(self, m, aword: Word) -> Vector:
        v = self.table.get((m, tuple(aword)))
        return v if v is not None else Vector.zero(self.ring)

    def basis(self, cap: int) -> Iterator[Tuple[Any, int]]:
        for n in self.space.names:
            yield n, 0


def module_words(M: ModuleLike, cap: int) -> Iterator[Tuple[Any, Word]]:
    for m, wt in M.basis(cap):
        for alpha in M.algebra.words(cap - wt):
            yield m, alpha


def head_apply(ring: Ring, head: Callable[[Any, Word], Vector], m,
               alpha: Word) -> Vector:
    """f (.) 1^(x) on the word m (.) alpha: the sum over j of
    head(m, alpha[:j]) paired with the untouched rest alpha[j:]."""
    out = Vector(ring)
    for j in range(len(alpha) + 1):
        rest = alpha[j:]
        for n, c in head(m, alpha[:j]).terms.items():
            out.add_term((n, rest), c)
    return out


# B^M as a word map on pairs (m, alpha), for callers that cache it
PairMap = Callable[[Tuple[Any, Word]], Vector]


def module_coderivation(M: ModuleLike, m, alpha: Word) -> Vector:
    """B^M = b^M (.) 1^(x) + 1 (.) B on one word; output words are pairs."""
    ring = M.ring
    A = M.algebra
    out = head_apply(ring, M.b_apply, m, alpha)
    s = M.m_parity(m)
    inner = sandwich(A.b, alpha, A.letter_parity)
    for w2, c in inner.terms.items():
        out.add_term((m, w2), ring.mul(ring.from_int(sign(s)), c))
    return out


def _module_support(M: ModuleLike, cap: int
                    ) -> Optional[Iterator[Tuple[Any, Word]]]:
    """A table module's support words (m, alpha) up to the cap, or None
    when M has no table or its algebra fails b(B) = 0 up to the cap."""
    if not (isinstance(M, AInfModule) and _square_zero(M.algebra, cap)):
        return None
    A = M.algebra
    entries = {((), m, a): v for (m, a), v in M.table.items()}
    return ((m, a) for _, m, a in support_words(entries, None, A,
                                                  M.space.names, cap))


def check_module(M: ModuleLike, cap: int) -> CheckReport:
    """Structure relation b^M(B^M) = 0 and (B^M)^2 = 0, two code paths.
    The words visited are M's support words when M is a table module
    whose algebra passes b(B) = 0 up to the cap, and every word up to the
    cap otherwise (see ``_structure_check``)."""
    words = _module_support(M, cap)
    return _structure_check(
        CheckReport("module", "b^M(B^M) = 0 and (B^M)^2 = 0", cap),
        module_words(M, cap) if words is None else words,
        lambda mw: module_coderivation(M, *mw),
        lambda mw: M.b_apply(*mw), check_module_units(M, cap))


def check_module_units(M: ModuleLike, cap: int) -> CheckReport:
    """Strict unitality: the binary operation against eta is minus the
    (sign-twisted) identity, all other unit insertions vanish.  On a table
    module only the table entries can be nonzero, so only they are
    visited, in enumeration order."""
    rep = CheckReport("module-units", "b^M_2(m,eta) = -(-1)^{|m|} m; "
                      "other eta components vanish", cap)
    ring = M.ring
    A = M.algebra
    e = A.eta
    for m, wt in M.basis(cap):
        got = M.b_apply(m, (e,))
        want = Vector.basis(ring, m, ring.from_int(-sign(M.m_parity(m))))
        if got != want:
            return rep.fail(((m, (e,)), want, got))
        if isinstance(M, AInfModule):
            words = sorted((a for n, a in M.table if n == m
                            and len(a) <= cap - wt),
                           key=_enumeration_key(A))
        else:
            words = A.words(cap - wt)
        for alpha in words:
            if len(alpha) >= 2 and e in alpha:
                got = M.b_apply(m, alpha)
                if not got.is_zero():
                    return rep.fail(((m, alpha), "0", got))
    return rep


# ---------------------------------------------------------------------------
# the hom complex between modules


class HomElement:
    """A table-backed element of Hom(M (.) A[1]^(x), N) of pure degree."""

    def __init__(self, source: ModuleLike, target: ModuleLike, degree: int,
                 table: Dict[Tuple[Any, Word], Vector], cap: int):
        self.source = source
        self.target = target
        self.degree = degree
        self.cap = cap  # letter count up to which the table is meaningful
        self.ring = source.ring
        self.table = _module_entries(table, cap)

    def apply(self, m, aword: Word) -> Vector:
        v = self.table.get((m, tuple(aword)))
        return v if v is not None else Vector.zero(self.ring)

    def operator(self, m, alpha: Word) -> Vector:
        """phi (.) 1^(x) on a module-with-tail word; outputs are pairs."""
        return head_apply(self.ring, self.apply, m, alpha)

    def support_min(self) -> Optional[int]:
        lens = {len(k[1]) for k in self.table}
        return min(lens) if lens else None

    def plus(self, other: "HomElement") -> "HomElement":
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        table = dict(self.table)
        out = HomElement(self.source, self.target, self.degree, table,
                         min(self.cap, other.cap))
        for k, v in other.table.items():
            cur = out.table.get(k)
            s = v if cur is None else cur + v
            if s.is_zero():
                out.table.pop(k, None)
            else:
                out.table[k] = s
        return out

    def negated(self) -> "HomElement":
        return HomElement(self.source, self.target, self.degree,
                          {k: -v for k, v in self.table.items()}, self.cap)


def identity_hom(M: ModuleLike, cap: int) -> HomElement:
    table = {}
    for m, _ in M.basis(cap):
        table[(m, ())] = Vector.basis(M.ring, m)
    return HomElement(M, M, 0, table, cap)


def hom_differential(phi: HomElement, cap: Optional[int] = None,
                     source_B: Optional[PairMap] = None) -> HomElement:
    """[B, phi] = b^N((phi (.) 1^(x)) -) - (-1)^{|phi|} phi(B^M -).

    ``source_B`` is B^M as a word map on pairs (m, alpha), for a caller
    that keeps one cached for its own call; by default each word applies
    ``module_coderivation`` afresh."""
    cap = phi.cap if cap is None else cap
    M, N = phi.source, phi.target
    ring = phi.ring
    s = ring.from_int(-sign(phi.degree))
    B = source_B or (lambda p: module_coderivation(M, p[0], p[1]))
    table: Dict[Tuple[Any, Word], Vector] = {}
    for m, alpha in module_words(M, cap):
        val = phi.operator(m, alpha).bind(lambda mw: N.b_apply(*mw))
        val = val + B((m, alpha)).bind(lambda mw: phi.apply(*mw)).scaled(s)
        if not val.is_zero():
            table[(m, alpha)] = val
    return HomElement(M, N, phi.degree + 1, table, cap)


def compose_hom(psi: HomElement, phi: HomElement,
                cap: Optional[int] = None) -> HomElement:
    """psi_.((phi_. (.) 1^(x)) -), the hom-complex composition."""
    cap = min(psi.cap, phi.cap) if cap is None else cap
    table: Dict[Tuple[Any, Word], Vector] = {}
    for m, alpha in module_words(phi.source, cap):
        val = phi.operator(m, alpha).bind(lambda mw: psi.apply(*mw))
        if not val.is_zero():
            table[(m, alpha)] = val
    return HomElement(phi.source, psi.target, psi.degree + phi.degree,
                      table, cap)


def check_module_morphism(phi: HomElement, cap: int) -> CheckReport:
    """A degree-0 closed hom element is a module morphism."""
    rep = CheckReport("module-morphism", "[B, phi] = 0", cap)
    if phi.degree != 0:
        rep.fail(("degree", 0, phi.degree))
    d = hom_differential(phi, cap)
    for k, v in d.table.items():
        if not v.is_zero():
            rep.fail((k, "0", v))
            break
    return rep


# ---------------------------------------------------------------------------
# bimodules


class BimoduleLike:
    """Protocol for (A, A')-bimodule structures: an odd family taking a word
    of A[1] letters, one bimodule letter, and a word of A'[1] letters."""

    left: AInfAlgebra
    right: AInfAlgebra
    ring: Ring

    def v_parity(self, v) -> int:
        raise NotImplementedError

    def b_apply(self, aword: Word, v, a2word: Word) -> Vector:
        raise NotImplementedError

    def basis(self, cap: int) -> Iterator[Tuple[Any, int]]:
        raise NotImplementedError


class TableBimodule(BimoduleLike):
    """A table-backed bimodule; the table maps (alpha, v, alpha2) to
    Vectors over bimodule generator names, and one that is not homogeneous
    and odd is refused with ValueError."""

    def __init__(self, left: AInfAlgebra, right: AInfAlgebra,
                 space: GradedSpace,
                 table: Dict[Tuple[Word, str, Word], Vector]):
        self.left = left
        self.right = right
        self.space = space
        self.ring = left.ring
        self.table = {(tuple(k[0]), k[1], tuple(k[2])): v
                      for k, v in table.items() if not v.is_zero()}
        _require_odd("b^V", self.table,
                     lambda k: left.word_parity(k[0]) + self.v_parity(k[1])
                     + right.word_parity(k[2]), self.v_parity)

    def v_parity(self, v) -> int:
        return self.space.parity(v)

    def b_apply(self, aword, v, a2word):
        val = self.table.get((tuple(aword), v, tuple(a2word)))
        return val if val is not None else Vector.zero(self.ring)

    def basis(self, cap):
        for n in self.space.names:
            yield n, 0


def bimodule_words(V: BimoduleLike, cap: int) -> Iterator[Tuple[Word, Any, Word]]:
    for v, wt in V.basis(cap):
        budget = cap - wt
        for k in range(budget + 1):
            for alpha in V.left.words(k, min_len=k):
                for alpha2 in V.right.words(budget - k):
                    yield alpha, v, alpha2


def bimodule_coderivation(V: BimoduleLike, alpha: Word, v, alpha2: Word) -> Vector:
    """B (.) 1 (.) 1^(x) + 1^(x) (.) b^V (.) 1^(x) + 1^(x) (.) 1 (.) B'."""
    ring = V.ring
    out = Vector.zero(ring)
    for w2, c in sandwich(V.left.b, alpha, V.left.letter_parity).terms.items():
        out.add_term((w2, v, alpha2), c)
    par = 0
    for i in range(len(alpha) + 1):
        for j in range(len(alpha2) + 1):
            mid = V.b_apply(alpha[i:], v, alpha2[:j])
            for v2, c in mid.terms.items():
                out.add_term((alpha[:i], v2, alpha2[j:]),
                             ring.neg(c) if par else c)
        if i < len(alpha):
            par = (par + V.left.letter_parity(alpha[i])) % 2
    s = ring.from_int(sign(par + V.v_parity(v)))
    for w2, c in sandwich(V.right.b, alpha2, V.right.letter_parity).terms.items():
        out.add_term((alpha, v, w2), ring.mul(s, c))
    return out


def _bimodule_support(V: BimoduleLike, cap: int
                      ) -> Optional[Iterator[Tuple[Word, Any, Word]]]:
    """A table bimodule's support words up to the cap, or None when V has
    no table or one of its algebras fails b(B) = 0 up to the cap."""
    A, A2 = V.left, V.right
    if not (isinstance(V, TableBimodule) and _square_zero(A, cap)
            and (A2 is A or _square_zero(A2, cap))):
        return None
    return support_words(V.table, A, A2, V.space.names, cap)


def check_bimodule(V: BimoduleLike, cap: int) -> CheckReport:
    """Structure relation b^V(B^V) = 0 and (B^V)^2 = 0, two code paths.
    The words visited are V's support words when V is a table bimodule
    whose algebras pass b(B) = 0 up to the cap, and every word up to the
    cap otherwise (see ``_structure_check``)."""
    words = _bimodule_support(V, cap)
    return _structure_check(
        CheckReport("bimodule", "b^V(B^V) = 0 and (B^V)^2 = 0", cap),
        bimodule_words(V, cap) if words is None else words,
        lambda w: bimodule_coderivation(V, *w),
        lambda w: V.b_apply(*w), check_bimodule_units(V, cap))


def check_bimodule_units(V: BimoduleLike, cap: int) -> CheckReport:
    """Unit letters act as (signed) identities in the two binary components
    and annihilate everything longer.  On a table bimodule only the table
    entries can be nonzero, so only they are visited, in enumeration
    order."""
    rep = CheckReport("bimodule-units", "unit letters act as identity in "
                      "arity two, vanish beyond", cap)
    ring = V.ring
    A, A2 = V.left, V.right
    el, er = A.eta, A2.eta
    lkey, rkey = _enumeration_key(A), _enumeration_key(A2)
    for v, wt in V.basis(cap):
        got = V.b_apply((el,), v, ())
        if got != Vector.basis(ring, v):
            return rep.fail((((el,), v, ()), "v", got))
        got = V.b_apply((), v, (er,))
        want = Vector.basis(ring, v, ring.from_int(-sign(V.v_parity(v))))
        if got != want:
            return rep.fail((((), v, (er,)), want, got))
        budget = cap - wt
        if isinstance(V, TableBimodule):
            words = sorted(((a, a2) for a, n, a2 in V.table if n == v
                            and len(a) + len(a2) <= budget),
                           key=lambda p: (lkey(p[0]), rkey(p[1])))
        else:
            words = ((alpha, alpha2) for k in range(budget + 1)
                     for alpha in A.words(k, min_len=k)
                     for alpha2 in A2.words(budget - k))
        for alpha, alpha2 in words:
            if len(alpha) + len(alpha2) >= 2 and (el in alpha
                                                  or er in alpha2):
                got = V.b_apply(alpha, v, alpha2)
                if not got.is_zero():
                    return rep.fail(((alpha, v, alpha2), "0", got))
    return rep


# ---------------------------------------------------------------------------
# curved differential graded algebras


class CurvedDga:
    """A curved dga presented classically: curvature c, differential d and an
    associative product, wrapped together with the induced structure family
    (zero beyond arity two)."""

    def __init__(self, space: GradedSpace, unit: str, curvature: Vector,
                 d: Dict[str, Vector], product: Dict[Tuple[str, str], Vector],
                 arity_cap: int = 4):
        self.space = space
        self.unit = unit
        self.ring = space.ring
        self.curvature = curvature       # element of A, degree 2
        self.d_table = {k: v for k, v in d.items() if not v.is_zero()}
        self.product = dict(product)
        m_table: Dict[Word, Vector] = {}
        if not curvature.is_zero():
            m_table[()] = curvature.map_words(lambda x: (x,))
        for x, v in self.d_table.items():
            m_table[(x,)] = v.map_words(lambda y: (y,))
        for (x, y), v in product.items():
            if not v.is_zero():
                m_table[(x, y)] = v.map_words(lambda z: (z,))
        b = b_from_m(space, m_table, max(arity_cap, 2))
        self.algebra = AInfAlgebra(space, unit, b)

    def d(self, vec: Vector) -> Vector:
        return vec.bind(lambda x: self.d_table.get(x, Vector.zero(self.ring)))

    def mul(self, a: Vector, b: Vector) -> Vector:
        out = Vector.zero(self.ring)
        for x, cx in a.terms.items():
            for y, cy in b.terms.items():
                val = self.product.get((x, y))
                if val is None:
                    continue
                c = self.ring.mul(cx, cy)
                for z, cz in val.terms.items():
                    out.add_term(z, self.ring.mul(c, cz))
        return out

    def element(self, name: str) -> Vector:
        return Vector.basis(self.ring, name)


def curved_dga_axioms(D: CurvedDga, word_cap: int = 3) -> CheckReport:
    """dc = 0, d^2 = [c,-], Leibniz, associativity, unitality of e, de = 0;
    cross-checked against the structure relation of the induced family."""
    rep = CheckReport("curved-dga", "dc=0, d^2=[c,-], Leibniz, assoc, "
                      "unit", word_cap)
    R = D.ring
    e = D.element(D.unit)
    if not D.d(e).is_zero():
        rep.fail(("de", "0", D.d(e)))
    if not D.d(D.curvature).is_zero():
        rep.fail(("dc", "0", D.d(D.curvature)))
    for x in D.space.names:
        a = D.element(x)
        lhs = D.d(D.d(a))
        rhs = D.mul(D.curvature, a) - D.mul(a, D.curvature)
        if lhs != rhs:
            rep.fail((("d^2", x), rhs, lhs))
        if D.mul(e, a) != a:
            rep.fail((("e*", x), a, D.mul(e, a)))
        if D.mul(a, e) != a:
            rep.fail((("*e", x), a, D.mul(a, e)))
    for x in D.space.names:
        for y in D.space.names:
            a, b = D.element(x), D.element(y)
            lhs = D.d(D.mul(a, b))
            s = R.from_int(sign(D.space.parity(x)))
            rhs = D.mul(D.d(a), b) + D.mul(a, D.d(b)).scaled(s)
            if lhs != rhs:
                rep.fail((("leibniz", x, y), rhs, lhs))
            for z in D.space.names:
                c = D.element(z)
                if D.mul(D.mul(a, b), c) != D.mul(a, D.mul(b, c)):
                    rep.fail((("assoc", x, y, z), None, None))
    shifted = check_algebra(D.algebra, word_cap)
    rep.details["structure_relation"] = shifted.verdict
    if shifted.verdict != rep.verdict:
        # the classical axioms and the shifted-side relation must agree
        rep.details["paths_agree"] = False
        rep.verdict = FAIL
    else:
        rep.details["paths_agree"] = True
    return rep
