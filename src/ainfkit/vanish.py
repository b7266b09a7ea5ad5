"""Vanishing and non-vanishing toolkit for curved module categories.

A module M is *zero* when its identity is a boundary: there is a degree -1
operator G on M (.) A[1]^(x) with [B^M, G] = 1.  This file provides

* coefficient base change (a nonzero base-changed module certifies a nonzero
  original -- only that direction is ever claimed);
* the augmentation contraction: an S-linear functional l on A with
  l(m_0(1)) = 1 yields an explicit contracting G for *every* module, via
  H = 1.lambda (.) 1^(x), E = 1 - [B, H], G = (sum_k E^k) H -- the series is
  finite because E strictly lowers the letter count;
* the closed-form even-arity homotopy gamma for modules over a curved
  algebra (operations of arity 0 and 2 only), cross-checked against G;
* augmentation detection: solving l(m_0(1)) = 1 linearly in the values of l
  on even generators, with honest Nonexistence/Undecided verdicts;
* the Maurer-Cartan criterion for uncurved algebras: the category vanishes
  exactly when the unit is in the image of m_1 (the differential at 0 of the
  Maurer-Cartan function);
* matrix factorizations: an odd operator d with d^2 = W.Id, equivalently a
  dg-module over the rank-one curved algebra with curvature -W (both code
  paths are run and must agree).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .ainf import (AInfAlgebra, AInfModule, CurvedDga, ModuleLike, MultiOp,
                   check_module, m_from_b, module_coderivation, module_words)
from .graded import (GradedSpace, Grading, Vector, Word, cached,
                     insert_blocks, sign)
from .linalg import solve_linear
from .report import FAIL, PASS, UNDECIDED, CheckReport
from .rings import PolynomialRing, Ring, RingHom, UnsupportedRing


class UnsupportedStructure(Exception):
    """The operation does not apply to this kind of structure; ``witness``
    holds the offending value when there is one."""

    def __init__(self, message: str, witness: Any = None):
        super().__init__(message)
        self.witness = witness


def perturbation_series(first: Vector, step: Callable[[Vector], Vector],
                        bound: int, name: str,
                        done: Callable[[Vector], bool] = Vector.is_zero
                        ) -> Tuple[int, Vector, Vector]:
    """The series first + step(first) + step(step(first)) + ... of the
    basic perturbation lemma, summed up to the first term that is ``done``
    (by default: zero).

    Returns (number of steps, sum of the terms before the last, last term).
    ``bound`` is the caller's proven bound on the number of steps; a term
    that is not done after that many steps raises UnsupportedStructure with
    the term as witness instead of looping.
    """
    steps, total, term = 0, Vector.zero(first.ring), first
    while not done(term):
        if steps >= bound:
            raise UnsupportedStructure("%s did not terminate within %d steps"
                                       % (name, bound), term)
        total.add_vector(term)
        term = step(term)
        steps += 1
    return steps, total, term


# ---------------------------------------------------------------------------
# base change


def map_vector(vec: Vector, hom: RingHom) -> Vector:
    """Transport a sparse vector coefficient-wise along a ring map."""
    out = Vector(hom.target)
    for w, c in vec.terms.items():
        out.add_term(w, hom(c))
    return out


def base_change(obj, hom: RingHom):
    """Coefficient-wise transport of an algebra or module along S -> T.

    Relation checks are preserved in the PASS direction: every identity that
    holds over S holds over T because the transport is a ring map on tables.
    """
    if not isinstance(hom, RingHom):
        raise UnsupportedStructure("base change needs a RingHom")
    if isinstance(obj, AInfAlgebra):
        if obj.ring != hom.source:
            raise UnsupportedStructure("ring map source does not match")
        space = GradedSpace(hom.target, obj.grading,
                            list(obj.space.gens.items()))
        b = MultiOp(hom.target, 1, obj.b.arity_cap)
        for w, v in obj.b.table.items():
            b.set(w, map_vector(v, hom))
        return AInfAlgebra(space, obj.unit, b)
    if isinstance(obj, AInfModule):
        algebra = base_change(obj.algebra, hom)
        space = GradedSpace(hom.target, obj.space.grading,
                            list(obj.space.gens.items()))
        table = {k: map_vector(v, hom) for k, v in obj.table.items()}
        return AInfModule(algebra, space, table, obj.arity_cap)
    raise UnsupportedStructure("base change supports algebras and table "
                               "modules, got %r" % type(obj).__name__)


# ---------------------------------------------------------------------------
# augmentations


def classical_curvature(A: AInfAlgebra) -> Vector:
    """m_0(1) as a vector over the unshifted generators (= -omega(b_0(1)))."""
    out = Vector(A.ring)
    for w, c in A.b.apply(()).terms.items():
        out.add_term(w[0], A.ring.neg(c))
    return out


class AugmentationMap:
    """An S-linear functional l on A supported on even generators.

    ``values`` gives l on generator names; even support keeps l homogeneous,
    which is what makes the induced lambda = -l o omega an odd functional on
    A[1] (the contraction identity [B_0, H] = 1 needs exactly that).  The
    construction verifies l(m_0(1)) = 1, the hypothesis of the vanishing
    argument.
    """

    def __init__(self, A: AInfAlgebra, values: Dict[str, Any]):
        self.A = A
        self.ring = A.ring
        self.values: Dict[str, Any] = {}
        for x, c in values.items():
            if x not in A.space.gens:
                raise ValueError("unknown generator %r" % x)
            c = self.ring.normalize(c)
            if self.ring.is_zero(c):
                continue
            if A.space.parity(x) != 0:
                raise ValueError("augmentation value on odd generator %r" % x)
            self.values[x] = c
        got = self.ell(classical_curvature(A))
        if got != self.ring.one:
            raise ValueError("l(m_0(1)) = %r, not 1" % (got,))

    def ell(self, vec: Vector) -> Any:
        """l on a vector over unshifted generator names."""
        total = self.ring.zero
        for x, c in vec.terms.items():
            total = self.ring.add(total, self.ring.mul(
                c, self.values.get(x, self.ring.zero)))
        return total

    def ell_letter(self, x: str) -> Any:
        return self.values.get(x, self.ring.zero)

    def lam_letter(self, x: str) -> Any:
        """lambda = -l o omega on a letter of A[1]."""
        return self.ring.neg(self.values.get(x, self.ring.zero))


# ---------------------------------------------------------------------------
# the augmentation contraction G = (sum E^k) H


def h_operator(M: ModuleLike, aug: AugmentationMap) -> Callable:
    """H = 1.lambda (.) 1^(x): strip the first letter through lambda.

    The odd functional crosses the module factor, hence the (-1)^{|m|}.
    """
    ring = M.ring

    def H(pair) -> Vector:
        m, alpha = pair
        if not alpha:
            return Vector.zero(ring)
        lam = aug.lam_letter(alpha[0])
        if ring.is_zero(lam):
            return Vector.zero(ring)
        s = ring.from_int(sign(M.m_parity(m)))
        return Vector.basis(ring, (m, alpha[1:]), ring.mul(s, lam))

    return H


def curvature_insertions(M: ModuleLike, m, alpha: Word) -> Vector:
    """B_0: the part of the module coderivation inserting b_0(1) only."""
    A = M.algebra
    c0 = A.b.apply(())
    inner = insert_blocks(M.ring, alpha, A.letter_parity, True, 0,
                          lambda block: c0)
    if M.m_parity(m):
        inner = -inner
    return inner.map_words(lambda w: (m, w))


def check_curvature_commutator(M: ModuleLike, aug: AugmentationMap,
                               cap: int) -> CheckReport:
    """[B_0, H] = 1 on every word up to the cap (the key exact identity)."""
    rep = CheckReport("curvature-commutator", "[B_0, H] = 1 (.) 1^(x)", cap)
    H = h_operator(M, aug)
    for m, alpha in module_words(M, cap):
        word = (m, alpha)
        got = curvature_insertions(M, m, alpha).bind(H) \
            + H(word).bind(lambda p: curvature_insertions(M, p[0], p[1]))
        if got != Vector.basis(M.ring, word):
            return rep.fail((word, "the word itself", got))
    return rep


def _series_contraction(B: Callable, H: Callable) -> Callable:
    """G = (sum_k E^k) H on one word (m, alpha), with E = 1 - [B, H] built
    from the word maps B and H.  E strictly lowers the letter count, so the
    series stops within len(alpha) + 1 steps."""
    def E(vec: Vector) -> Vector:
        return vec - vec.bind(H).bind(B) - vec.bind(B).bind(H)

    def G(pair) -> Vector:
        return perturbation_series(H(pair), E, 2 + len(pair[1]),
                                   "the contraction series")[1]

    return G


def kp_contraction(M: ModuleLike, aug: AugmentationMap, cap: int
                   ) -> Tuple[Callable, CheckReport]:
    """The contracting operator G with the exact verification [B, G] = 1.

    E = 1 - [B, H] strictly lowers the letter count (its identity part
    cancels against [B_0, H]), so the geometric series is finite on every
    word; no truncation or tolerance is involved.  The check runs on word
    maps cached for this call: B^M, and G on basis words, G being linear.
    The returned G maps vectors and caches nothing.
    """
    if aug.A is not M.algebra and aug.A.b.table != M.algebra.b.table:
        raise ValueError("augmentation is for a different algebra")
    H = h_operator(M, aug)

    def B(pair) -> Vector:
        return module_coderivation(M, pair[0], pair[1])

    G_word = _series_contraction(B, H)

    def G(vec: Vector) -> Vector:
        return vec.bind(G_word)

    Bc = cached(B)
    Gc = cached(_series_contraction(Bc, H))
    rep = CheckReport("augmentation-contraction", "[B, G] = 1 (.) 1^(x)",
                      cap)
    for word in module_words(M, cap):
        got = Gc(word).bind(Bc) + Bc(word).bind(Gc)
        if got != Vector.basis(M.ring, word):
            rep.fail((word, "the word itself", got))
            break
    return G, rep


# ---------------------------------------------------------------------------
# the closed-form homotopy for curved algebras


def _classical_action(M: ModuleLike, mvec: Vector, avec: Vector) -> Vector:
    """The classical right action m.a = -(-1)^{|m|} b^M_2(m (.) sigma a)."""
    ring = M.ring
    out = Vector.zero(ring)
    for m, cm in mvec.terms.items():
        s = ring.from_int(-sign(M.m_parity(m)))
        for a, ca in avec.terms.items():
            piece = M.b_apply(m, (a,))
            for m2, c2 in piece.terms.items():
                out.add_term(m2, ring.mul(ring.mul(s, ring.mul(cm, ca)), c2))
    return out


def gamma_operator(D: CurvedDga, M: ModuleLike,
                   aug: AugmentationMap) -> Callable:
    """The closed-form contracting homotopy over a curved algebra.

    Requires operations of arity 0 and 2 only (no differential, no higher
    operations).  The value on a word with 2i+1 letters is

        m . l(f_1) . L(f_2 (x) f_3) ... L(f_{2i} (x) f_{2i+1}),

    with L(f (x) g) = l(f).g + f.l(g) + l(f.g).e, up to one global sign;
    even letter counts map to zero.  The sign -(-1)^{|m|} comes from the
    suspension bookkeeping: only the first letter is consumed by an odd
    functional (crossing m), every L-factor is even, and the leading minus
    is the one in lambda = -l o omega.  On unit-free words this closed form
    coincides with the series contraction (check_gamma_agreement verifies
    the table equality); on words containing the unit letter the series
    picks up normal-form corrections and the closed form does not apply.
    """
    arities = set(D.algebra.b.arities())
    if not arities <= {0, 2}:
        raise UnsupportedStructure(
            "the closed-form homotopy needs operations of arity 0 and 2 "
            "only; found arities %r" % sorted(arities))
    ring = M.ring

    def L(f: str, g: str) -> Vector:
        fv, gv = D.element(f), D.element(g)
        out = gv.scaled(aug.ell(fv)) + fv.scaled(aug.ell(gv))
        out = out + D.element(D.unit).scaled(aug.ell(D.mul(fv, gv)))
        return out

    def gamma(pair) -> Vector:
        m, alpha = pair
        if len(alpha) % 2 == 0:
            return Vector.zero(ring)
        s = ring.from_int(-sign(M.m_parity(m)))
        cur = Vector.basis(ring, m, ring.mul(s, aug.ell_letter(alpha[0])))
        for j in range(1, len(alpha), 2):
            if cur.is_zero():
                break
            cur = _classical_action(M, cur, L(alpha[j], alpha[j + 1]))
        return cur

    return gamma


def check_gamma_agreement(D: CurvedDga, M: ModuleLike, aug: AugmentationMap,
                          cap: int) -> CheckReport:
    """gamma equals the series contraction G on every unit-free word.

    The closed form is stated on words in the complement of the unit; on
    words containing the unit letter the series homotopy picks up extra
    normal-form corrections (the unit letter is collapsed by strict
    unitality), so the table comparison runs on unit-free words -- the
    [B, G] = 1 verification itself runs on *all* words, with no restriction.
    """
    rep = CheckReport("gamma-agreement",
                      "gamma = (sum E^k) H on unit-free words, "
                      "[B, G] = 1 on all words", cap)
    gamma = gamma_operator(D, M, aug)
    G, inner = kp_contraction(M, aug, cap)
    rep.details["series_contraction"] = inner.verdict
    if inner.verdict != PASS:
        rep.fail(("series contraction", None, inner.witness))
    eta = M.algebra.eta
    for m, alpha in module_words(M, cap):
        if eta in alpha:
            continue
        v = Vector.basis(M.ring, (m, alpha))
        lhs = gamma((m, alpha))
        # the series G lands back in module-with-tail pairs; gamma's
        # nonzero values are bare module elements (empty tails)
        rhs = G(v)
        lhs_pairs = Vector(M.ring, {(w, ()): c
                                    for w, c in lhs.terms.items()})
        if lhs_pairs != rhs:
            rep.fail(((m, alpha), rhs, lhs_pairs))
            break
    return rep


# ---------------------------------------------------------------------------
# augmentation detection


FOUND = "Found"
NONEXISTENT = "Nonexistence"


@dataclass
class AugmentationSearch:
    status: str                 # Found | Nonexistence | UNDECIDED
    augmentation: Optional[AugmentationMap] = None
    reason: str = ""


def detect_augmentation(A: AInfAlgebra) -> AugmentationSearch:
    """Solve l(m_0(1)) = 1 in the values of l on even generators.

    Over a rank-one algebra the equation is W.l(e) = 1, i.e. decidable by
    is_unit.  Polynomial coefficient rings with more than one generator are
    reported Undecided rather than guessed at.
    """
    ring = A.ring
    c = classical_curvature(A)
    evens = [x for x in A.space.names if A.space.parity(x) == 0]
    coeffs = [c.terms.get(x, ring.zero) for x in evens]
    if all(ring.is_zero(v) for v in coeffs):
        return AugmentationSearch(
            NONEXISTENT, reason="the curvature has no even component, so "
            "every homogeneous functional sends it to 0, never 1")
    if isinstance(ring, PolynomialRing):
        if len(A.space.names) == 1:
            w = coeffs[0]
            if ring.is_unit(w):
                aug = AugmentationMap(A, {evens[0]: ring.inv(w)})
                return AugmentationSearch(FOUND, aug)
            return AugmentationSearch(
                NONEXISTENT, reason="rank one: l(W.e) = W.l(e) can be 1 "
                "only when the curvature %r is a unit" % (w,))
        return AugmentationSearch(
            UNDECIDED, reason="polynomial coefficients with more than one "
            "generator: linear solving is not attempted")
    try:
        sol = solve_linear(ring, [coeffs], [ring.one])
    except UnsupportedRing as exc:
        return AugmentationSearch(UNDECIDED, reason=str(exc))
    if sol is None:
        return AugmentationSearch(
            NONEXISTENT, reason="the equation sum_x c_x.l(x) = 1 has no "
            "solution over %s (coefficients %r)" % (ring.describe(), coeffs))
    aug = AugmentationMap(A, dict(zip(evens, sol)))
    return AugmentationSearch(FOUND, aug)


# ---------------------------------------------------------------------------
# the Maurer-Cartan criterion


VANISHES = "Vanishes"
DOES_NOT_VANISH = "DoesNotVanish"


class MaurerCartanProblem:
    """An uncurved algebra packaged with its unshifted operations.

    mc(a) = sum_k (-1)^{k(k-1)/2} m_k(a^{(x)k}) on odd elements a; the
    differential of mc at 0 is m_1, so the module category vanishes exactly
    when the unit is in the image of m_1 on the odd part.
    """

    def __init__(self, A: AInfAlgebra):
        if not A.b.apply(()).is_zero():
            raise ValueError("the criterion needs an uncurved algebra")
        self.A = A
        self.ring = A.ring
        # the dictionary returns vectors over one-letter words; unwrap to
        # generator names so values live in the algebra itself
        self.m_table = {w: v.map_words(lambda out: out[0])
                        for w, v in m_from_b(A.space, A.b).items()}
        self.unit = A.unit

    def m_apply(self, word: Word) -> Vector:
        v = self.m_table.get(tuple(word))
        return v if v is not None else Vector.zero(self.ring)


def mc_evaluate(P: MaurerCartanProblem, a: Vector) -> Vector:
    """The finite Maurer-Cartan sum; the series stops at the arity cap."""
    ring = P.ring
    for x in a.terms:
        if P.A.space.parity(x) != 1:
            raise ValueError("odd argument expected, got %r" % x)
    out = Vector.zero(ring)
    support = sorted(a.terms)
    for k in range(0, P.A.arity_cap + 1):
        s = ring.from_int(sign(k * (k - 1) // 2))
        for word in itertools.product(support, repeat=k):
            coeff = s
            for x in word:
                coeff = ring.mul(coeff, a.terms[x])
            piece = P.m_apply(word)
            for y, c in piece.terms.items():
                out.add_term(y, ring.mul(coeff, c))
    return out


@dataclass
class MCResult:
    status: str                    # Vanishes | DoesNotVanish | UNDECIDED
    witness: Optional[Vector] = None
    reason: str = ""


def mc_criterion(P: MaurerCartanProblem) -> MCResult:
    """Decide whether the unit is in the image of m_1 on the odd part."""
    ring = P.ring
    odd = [x for x in P.A.space.names if P.A.space.parity(x) == 1]
    even = [x for x in P.A.space.names if P.A.space.parity(x) == 0]
    rows = [[P.m_apply((x,)).terms.get(y, ring.zero) for x in odd]
            for y in even]
    rhs = [ring.one if y == P.unit else ring.zero for y in even]
    try:
        sol = solve_linear(ring, rows, rhs) if odd else None
    except UnsupportedRing as exc:
        return MCResult(UNDECIDED, reason=str(exc))
    if sol is None:
        return MCResult(DOES_NOT_VANISH,
                        reason="the unit is not in the image of m_1")
    witness = Vector(ring)
    for x, cx in zip(odd, sol):
        if not ring.is_zero(cx):
            witness.add_term(x, cx)
    return MCResult(VANISHES, witness=witness)


# ---------------------------------------------------------------------------
# matrix factorizations


class MatrixFactorization:
    """An odd operator d on a Z/2-graded free module with d^2 = W.Id.

    ``d`` is a square matrix over S acting on the column basis: the first
    ``even_rank`` basis vectors are even, the rest odd; entry ``d[i][j]`` is
    the coefficient of basis vector i in d(basis vector j).
    """

    def __init__(self, ring: Ring, even_rank: int, odd_rank: int,
                 d: Sequence[Sequence[Any]], potential: Any):
        if even_rank < 0 or odd_rank < 0:
            raise ValueError("ranks must be 0 or more, got %d and %d"
                             % (even_rank, odd_rank))
        n = even_rank + odd_rank
        if len(d) != n or any(len(row) != n for row in d):
            raise ValueError("d must be a %d x %d matrix" % (n, n))
        self.ring = ring
        self.even_rank = even_rank
        self.odd_rank = odd_rank
        self.d = [[ring.normalize(v) for v in row] for row in d]
        self.potential = ring.normalize(potential)

    @property
    def rank(self) -> int:
        return self.even_rank + self.odd_rank

    def basis_parity(self, i: int) -> int:
        return 0 if i < self.even_rank else 1

    def is_odd(self) -> bool:
        """Whether d has no nonzero parity-preserving entry."""
        n = self.rank
        return all(self.ring.is_zero(self.d[i][j])
                   for i in range(n) for j in range(n)
                   if self.basis_parity(i) == self.basis_parity(j))

    def square(self) -> List[List[Any]]:
        n = self.rank
        return [[self._dot(i, j) for j in range(n)] for i in range(n)]

    def _dot(self, i: int, j: int) -> Any:
        total = self.ring.zero
        for k in range(self.rank):
            total = self.ring.add(total,
                                  self.ring.mul(self.d[i][k], self.d[k][j]))
        return total


def mf_module(F: MatrixFactorization, arity_cap: int = 4) -> AInfModule:
    """The companion dg-module over the rank-one curved algebra.

    d^2 = W.Id matches the module axiom d^2 m = -m.c when the curvature is
    c = -W.e; the unit acts as the identity.
    """
    from .fixtures import module_from_classical, trivial_algebra
    ring = F.ring
    A = trivial_algebra(ring, ring.neg(F.potential))
    names = [("g%d" % i, F.basis_parity(i)) for i in range(F.rank)]
    space = GradedSpace(ring, Grading(2), names)
    d_table: Dict[str, Vector] = {}
    for j in range(F.rank):
        col = Vector(ring)
        for i in range(F.rank):
            col.add_term("g%d" % i, F.d[i][j])
        if not col.is_zero():
            d_table["g%d" % j] = col
    action = {(n, "e"): Vector.basis(ring, n) for n, _ in names}
    return module_from_classical(A, space, d_table, action, arity_cap)


def mf_check(F: MatrixFactorization, cap: int = 3) -> CheckReport:
    """d^2 = W.Id entrywise, d odd, and the companion module passes the
    module axioms over the rank-one curved algebra; the two verdicts must
    agree.  The module is built only for an odd d."""
    rep = CheckReport("matrix-factorization",
                      "d^2 = W.Id and the companion curved module is "
                      "valid", cap)
    ring = F.ring
    square_ok = True
    sq = F.square()
    for i in range(F.rank):
        for j in range(F.rank):
            want = F.potential if i == j else ring.zero
            if sq[i][j] != want:
                square_ok = False
                if rep.verdict == PASS:
                    rep.fail((("entry", i, j), want, sq[i][j]))
    rep.details["square_identity"] = PASS if square_ok else FAIL
    odd_ok = F.is_odd()
    rep.details["odd_operator"] = PASS if odd_ok else FAIL
    if odd_ok:
        inner = check_module(mf_module(F), cap)
        rep.details["module_axioms"] = inner.verdict
    else:
        # the companion module's family would not be odd, which AInfModule
        # refuses, so it fails the module axioms unbuilt
        rep.fail(("d has a parity-preserving entry", None, None))
        rep.details["module_axioms"] = FAIL
    module_ok = rep.details["module_axioms"] == PASS
    agree = module_ok == (square_ok and odd_ok)
    rep.details["paths_agree"] = agree
    if not agree:
        rep.verdict = FAIL
    elif not module_ok and rep.verdict == PASS:
        rep.fail(inner.witness)
    return rep
