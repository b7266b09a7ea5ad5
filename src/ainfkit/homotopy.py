"""Interval coalgebra, homotopies, contractions, and obstruction theory.

Four layers live here:

* the three-generator interval coalgebra and the notion of a homotopy
  between structure morphisms: an odd family h assembled with the two
  morphisms into a single map out of (interval) (x) A[1]^(x).  Commutation
  with the coproducts holds by construction (the map is a coalgebra
  morphism fixed by its families on cogenerators), so the checkable content
  is commutation with the codifferentials, and that is decided on the
  one-letter component of each word;
* transports of a homotopy: the induced derivation between the adjoint
  dg-algebra images of the two morphisms, and the contraction of the
  adjoint algebra onto an uncurved base over a field;
* the bar-complex contraction that transfers an S-linear contraction of
  the mapping cone of a dg-algebra morphism to the full two-sided bar
  complex of a module against that cone;
* obstruction complexes for module morphisms: stage-by-stage extension of
  morphisms and homotopies, and the homotopy inversion algorithm that
  upgrades an arity-one homotopy inverse of a module morphism to an
  inverse-up-to-homotopy exact to a requested arity.

The homotopy family has degree -1 on the shifted side: the connecting
generator of the interval sits in degree -1 and the assembled coalgebra
morphism must have degree 0, which forces the component on the connecting
generator to lower degree by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .adjoint import UAlgebra, UWord
from .ainf import (AInfAlgebra, AInfMorphism, CurvedDga, HomElement,
                   ModuleLike, MultiOp, PairMap, TableBimodule,
                   check_module, check_morphism, compose_hom,
                   hom_differential, identity_hom, module_coderivation,
                   module_words)
from .graded import GradedSpace, Vector, Word, cached, memoized, sign
from .linalg import kernel_basis_field, solve_field
from .qmod import TensorModule, check_ue_functor, ue_functor
from .report import FAIL, PASS, UNSUPPORTED, CheckReport
from .rings import Ring
from .vanish import UnsupportedStructure, perturbation_series


class TheoremViolation(Exception):
    """A stage of a guaranteed construction failed: either a hypothesis of
    the inversion statement does not hold on the given data, or a linear
    stage equation that the statement promises solvable has no solution."""

    def __init__(self, stage: int, message: str, witness: Any = None):
        super().__init__("stage %r: %s" % (stage, message))
        self.stage = stage
        self.witness = witness


# ---------------------------------------------------------------------------
# the interval coalgebra


class IntervalCoalgebra:
    """Two grouplike generators in degree 0 and a connecting generator in
    degree -1 whose boundary is their difference."""

    GENS = ("p", "q", "I")

    def __init__(self, ring: Ring):
        self.ring = ring

    def degree(self, x: str) -> int:
        return -1 if x == "I" else 0

    def parity(self, x: str) -> int:
        return self.degree(x) % 2

    def boundary(self, x: str) -> Vector:
        if x == "I":
            return (Vector.basis(self.ring, "p")
                    - Vector.basis(self.ring, "q"))
        return Vector.zero(self.ring)

    def coproduct(self, x: str) -> Vector:
        """Vector over ordered pairs of generator names."""
        R = self.ring
        if x == "I":
            out = Vector.basis(R, ("p", "I"))
            out.add_term(("I", "q"), R.one)
            return out
        return Vector.basis(R, (x, x))


def check_interval_coalgebra(I: IntervalCoalgebra) -> CheckReport:
    """The boundary squares to zero, the coproduct is coassociative, and the
    boundary is a coderivation for it.  All three are finite exact checks."""
    rep = CheckReport("interval-coalgebra",
                      "d^2 = 0, coassociativity, d a coderivation", None)
    R = I.ring
    for x in I.GENS:
        dd = I.boundary(x).bind(I.boundary)
        if not dd.is_zero():
            rep.fail(((x, "d^2"), "0", dd))
    for x in I.GENS:
        lhs = Vector.zero(R)
        rhs = Vector.zero(R)
        for (a, b), c in I.coproduct(x).terms.items():
            for (a1, a2), c2 in I.coproduct(a).terms.items():
                lhs.add_term((a1, a2, b), R.mul(c, c2))
            for (b1, b2), c2 in I.coproduct(b).terms.items():
                rhs.add_term((a, b1, b2), R.mul(c, c2))
        if lhs != rhs:
            rep.fail(((x, "coassoc"), rhs, lhs))
    for x in I.GENS:
        lhs = I.boundary(x).bind(I.coproduct)
        rhs = Vector.zero(R)
        for (a, b), c in I.coproduct(x).terms.items():
            for a2, c2 in I.boundary(a).terms.items():
                rhs.add_term((a2, b), R.mul(c, c2))
            s = R.from_int(sign(I.parity(a)))
            for b2, c2 in I.boundary(b).terms.items():
                rhs.add_term((a, b2), R.mul(R.mul(s, c), c2))
        if lhs != rhs:
            rep.fail(((x, "coderivation"), rhs, lhs))
    return rep


# ---------------------------------------------------------------------------
# homotopies between structure morphisms


class AInfHomotopy:
    """A homotopy between two morphisms with a common source and target: an
    odd degree -1 family h from source words to target letters, assembled
    with the two morphisms into a coalgebra morphism out of the interval
    tensor the source coalgebra."""

    def __init__(self, f: AInfMorphism, g: AInfMorphism, h: MultiOp):
        if f.source is not g.source or f.target is not g.target:
            raise ValueError("the two morphisms must share source and target")
        if h.degree != -1:
            raise ValueError("homotopy families have degree -1")
        if 0 in h.arities():
            raise ValueError("homotopy families start at arity 1")
        self.f = f
        self.g = g
        self.h = h
        self.ring = f.ring

    def extended(self, w: Word) -> Vector:
        """The connecting component: sum over the marked block w[i:j] of
        F(w[:i]) . (-1)^{|w[:i]|} h(w[i:j]) . G(w[j:]), the blocks before
        the marked one through the first morphism and those after it
        through the second."""
        R = self.ring
        n = len(w)
        minus = R.from_int(-1)
        heads = [self.f.extended(w[:i]) for i in range(n)]
        tails = [self.g.extended(w[j:]) for j in range(1, n + 1)]
        out = Vector(R)
        for i, head in enumerate(heads):
            if not head.terms:
                continue
            if self.f.source.word_parity(w[:i]):
                head = head.scaled(minus)
            for j in range(i + 1, min(n, i + self.h.arity_cap) + 1):
                mid = self.h.apply(w[i:j])
                if mid.terms and tails[j - 1].terms:
                    out.add_vector(head.concat(mid).concat(tails[j - 1]))
        return out


def check_ainf_homotopy(f: AInfMorphism, g: AInfMorphism, h: MultiOp,
                        cap: int) -> CheckReport:
    """The assembled map commutes with the codifferential of the interval
    tensor the source coalgebra on every word of weight <= cap.  On the two
    grouplike generators this is the morphism condition for f and g, which
    check_morphism decides; on the connecting generator it is the homotopy
    condition B'H = F - G + s HB.  Once f and g are morphisms,
    B'H - (F - G) - s HB is an (F, G)-coderivation, so each word compares
    its one-letter component b'(H(w)) = f(w) - g(w) + s h(B(w))."""
    rep = CheckReport("ainf-homotopy",
                      "the interval-assembled coalgebra morphism "
                      "commutes with the codifferentials", cap)
    rep.details["f_morphism"] = check_morphism(f, cap).verdict
    rep.details["g_morphism"] = check_morphism(g, cap).verdict
    if FAIL in (rep.details["f_morphism"], rep.details["g_morphism"]):
        return rep.fail(("morphism-precondition", PASS, rep.details))
    H = AInfHomotopy(f, g, h)
    I = IntervalCoalgebra(f.ring)
    s = f.ring.from_int(sign(I.parity("I")))
    ends = {"p": f.f, "q": g.f}
    for w in f.source.words(cap):
        lhs = H.extended(w).bind(f.target.b.apply)
        rhs = I.boundary("I").bind(lambda gen: ends[gen].apply(w))
        rhs = rhs + f.source.B(w).bind(h.apply).scaled(s)
        if lhs != rhs:
            return rep.fail((("I", w), rhs, lhs))
    return rep


# ---------------------------------------------------------------------------
# homotopy -> derivation between adjoint-algebra images


def homotopy_to_derivation(f: AInfMorphism, g: AInfMorphism, h: MultiOp,
                           cap: int) -> Tuple[Callable[[UWord], Vector],
                                              CheckReport]:
    """The derivation between the adjoint-algebra maps induced by the two
    morphisms.  On one packed letter it sums over block decompositions with
    a marked homotopy block, packing the images into a single letter; on a
    concatenation word it applies the letterwise map in each slot with the
    induced map of the first morphism on the left and of the second on the
    right, so it satisfies the twisted Leibniz rule by construction.  The
    report first records check_ue_functor for both morphisms as
    preconditions; once dU(f) = U(f)d and dU(g) = U(g)d, the difference
    [d, D] - (U(f) - U(g)) is a (U(f), U(g))-derivation, so the relation
    [d, D] = U(f) - U(g) is checked on the eta-free letters of weight
    <= cap."""
    Usrc, Utgt = UAlgebra(f.source), UAlgebra(f.target)
    R = f.ring
    H = AInfHomotopy(f, g, h)

    # The interval normalization of the homotopy and the derivation
    # normalization differ by one global sign (the boundary of the
    # connecting generator is the difference of the endpoints, while the
    # commutator [d, D] produces the opposite difference).
    def d_letter(lt) -> Vector:
        packed = H.extended(tuple(lt)).map_words(lambda w: (w,))
        return packed.bind(Utgt.normal_form).scaled(R.from_int(-1))

    def derivation(F, G, d_letter) -> Callable[[UWord], Vector]:
        """D from the induced maps F, G (applied to one letter at a time,
        normal forms being letterwise) and the letterwise map: running
        products F(u[:i]) and G(u[i + 1:]) around d(u[i])."""
        def D(u: UWord) -> Vector:
            tails = [Vector.basis(R, ())]
            for lt in reversed(u[1:]):
                tails.append(G((lt,)).concat(tails[-1]))
            out = Vector.zero(R)
            head = Vector.basis(R, ())
            pre = 0
            for i, lt in enumerate(u):
                piece = head.concat(d_letter(lt)).concat(tails[-1 - i])
                out.add_vector(piece, R.from_int(sign(pre)))
                if i + 1 < len(u):
                    head = head.concat(F((lt,)))
                    pre = (pre + Usrc.letter_parity(lt)) % 2
            return out
        return D

    F = ue_functor(f, Utgt)
    G = ue_functor(g, Utgt)
    D = derivation(F, G, d_letter)
    rep = CheckReport("ue-derivation", "[d, D] = U(f) - U(g) on letters",
                      cap)
    rep.details["f_functor"] = check_ue_functor(f, cap).verdict
    rep.details["g_functor"] = check_ue_functor(g, cap).verdict
    if FAIL in (rep.details["f_functor"], rep.details["g_functor"]):
        return D, rep.fail(("functor-precondition", PASS, rep.details))
    # the check's own D reads F, G and d_letter through caches, which die
    # with this call; the returned D does not hold them
    F, G = cached(F), cached(G)
    Dc = derivation(F, G, cached(d_letter))
    with memoized(Utgt, "d_letter", "ue_differential"):
        for lt in Usrc.letters(cap, eta_free=True):
            u = (lt,)
            # D, F, G and the differentials all return normal forms
            lhs = Usrc.ue_differential(u).bind(Dc) \
                + Dc(u).bind(Utgt.ue_differential)
            rhs = F(u) - G(u)
            if lhs != rhs:
                rep.fail(((u, "commutator"), rhs, lhs))
                break
    return D, rep


# ---------------------------------------------------------------------------
# contraction of the adjoint algebra onto an uncurved base


class UeContraction:
    """The merge-first-letter homotopy on the adjoint algebra of an uncurved
    base over a field: when the first letter of a concatenation word packs a
    single generator, prepend that generator into the next letter; otherwise
    zero.  Iterating 1 - [d, H] pushes every element into the base."""

    def __init__(self, A: AInfAlgebra, cap: int):
        if not A.curvature_letterwise().is_zero():
            raise UnsupportedStructure("the contraction needs an uncurved "
                                       "base")
        if not A.ring.is_field:
            raise UnsupportedStructure("the contraction needs field "
                                       "coefficients")
        self.A = A
        self.U = UAlgebra(A)
        self.ring = A.ring
        self.cap = cap
        self.limit = 2 * cap + 2  # steps allowed before a reduction stalls

    def h_op(self, u: UWord) -> Vector:
        if len(u) >= 2 and len(u[0]) == 1:
            a = u[0][0]
            s = self.ring.from_int(sign(self.A.space.parity(a)))
            merged = ((a,) + u[1],) + u[2:]
            return self.U.normal_form(merged).scaled(s)
        return Vector.zero(self.ring)

    def e_word(self, u: UWord) -> Vector:
        """1 - dH - Hd on one word.  u and the values of H are normal forms,
        on which d is ``ue_differential``."""
        U = self.U
        dh = self.h_op(u).bind(U.ue_differential)
        hd = U.ue_differential(u).bind(self.h_op)
        return Vector.basis(self.ring, u) - dh - hd

    def e_op(self, vec: Vector) -> Vector:
        return vec.bind(self.e_word)

    def in_base(self, vec: Vector) -> bool:
        """Supported on the image of the base: the empty word and single
        letters packing one generator."""
        return all(len(u) == 0 or (len(u) == 1 and len(u[0]) == 1)
                   for u in vec.terms)

    def reduce(self, vec: Vector) -> Tuple[int, Vector, Vector]:
        """Iterate 1 - [d, H] until the element lies in the base; returns
        (number of steps, base element, the accumulated homotopy value whose
        boundary certifies the reduction on closed inputs)."""
        ell, passed, cur = perturbation_series(vec, self.e_op, self.limit,
                                               "reduction", self.in_base)
        return ell, cur, passed.bind(self.h_op)


def ue_contraction(A: AInfAlgebra,
                   cap: int) -> Tuple[UeContraction, CheckReport]:
    """Build the contraction and certify it on all concatenation words of
    weight <= cap: 1 - [d, H] fixes the base pointwise, iterates every word
    into the base, and for every closed element u exhibits a base element a
    with u - a exact via the accumulated homotopy.  The last point shows the
    canonical inclusion of the base is a quasi-isomorphism on the checked
    weight range."""
    C = UeContraction(A, cap)
    return C, _certify(C)


def _certify(C: UeContraction) -> CheckReport:
    """The three checks of ``ue_contraction`` on ``C``, with the word maps
    of C and C.U cached for the call.

    The nilpotence check keeps each word's series: ``passed`` (the sum of
    the terms before the base) and ``last`` (the base element).  E fixes
    the base (the first check) and H kills it, so a closed element
    u = sum c_w w reduces to a = sum c_w last(w) with accumulated homotopy
    hhat = sum c_w passed(w).H, and u - a = hhat.d holds exactly when
    u.bind(residual) is zero, with residual(w) = w - last(w) - passed(w).H.d.
    Only a failing element is reduced again, for its witness."""
    rep = CheckReport("ue-contraction",
                      "1 - [d,H] fixes the base, iterates into it, and "
                      "contracts closed elements onto it", C.cap)
    with memoized(C, "h_op", "e_word"), \
            memoized(C.U, "d_letter", "differential", "ue_differential"):
        R, U = C.ring, C.U
        words = list(U.uwords(C.cap, eta_free=True))
        for u in words:
            uvec = Vector.basis(R, u)
            if C.in_base(uvec) and C.e_op(uvec) != uvec:
                rep.fail(((u, "base-identity"), uvec, C.e_op(uvec)))
                break
        max_ell = 0
        series = {}
        if rep.passed:
            for u in words:
                try:
                    ell, passed, last = perturbation_series(
                        Vector.basis(R, u), C.e_op, C.limit + 1,
                        "reduction", C.in_base)
                except UnsupportedStructure as exc:
                    rep.fail(((u, "nilpotence"), "a base element",
                              exc.witness))
                    break
                series[u] = passed, last
                max_ell = max(max_ell, ell)
        rep.details["max_steps"] = max_ell
        if not rep.passed:
            return rep
        index = {u: i for i, u in enumerate(words)}
        rows = [[R.zero] * len(words) for _ in words]
        for j, u in enumerate(words):
            for u2, c in U.ue_differential(u).terms.items():
                rows[index[u2]][j] = c
        kb = kernel_basis_field(R, rows)
        rep.details["closed_rank"] = len(kb)

        @cached
        def residual(w: UWord) -> Vector:
            passed, last = series[w]
            return (Vector.basis(R, w) - last
                    - passed.bind(C.h_op).bind(U.ue_differential))

        for sol in kb:
            u = Vector(R, {words[j]: c for j, c in sol.items()})
            # a word that took C.limit + 1 steps can make C.reduce refuse u
            if max_ell <= C.limit and u.bind(residual).is_zero():
                continue
            ell, a, hhat = C.reduce(u)
            if u - a != hhat.bind(U.ue_differential):
                rep.fail(((u, "certificate", ell), u - a,
                          hhat.bind(U.ue_differential)))
                break
    return rep


# ---------------------------------------------------------------------------
# bar-complex transfer of a mapping-cone contraction


class DgaMorphism:
    """A strict morphism of curved dg-algebras given on generators."""

    def __init__(self, source: CurvedDga, target: CurvedDga,
                 table: Dict[str, Vector]):
        self.source = source
        self.target = target
        self.ring = source.ring
        self.table = {k: v for k, v in table.items() if not v.is_zero()}

    def apply(self, x: str) -> Vector:
        v = self.table.get(x)
        return v if v is not None else Vector.zero(self.ring)


def identity_dga_morphism(D: CurvedDga) -> DgaMorphism:
    return DgaMorphism(D, D, {x: Vector.basis(D.ring, x)
                              for x in D.space.names})


def check_dga_morphism(F: DgaMorphism) -> CheckReport:
    """Unit, curvature, differential, and product compatibility."""
    rep = CheckReport("dga-morphism",
                      "unital multiplicative chain map matching curvatures",
                      None)
    S, T = F.source, F.target
    if F.apply(S.unit) != Vector.basis(F.ring, T.unit):
        rep.fail((("unit",), T.unit, F.apply(S.unit)))
    if S.curvature.bind(F.apply) != T.curvature:
        rep.fail((("curvature",), T.curvature, S.curvature.bind(F.apply)))
    for x in S.space.names:
        lhs = S.d(S.element(x)).bind(F.apply)
        rhs = T.d(F.apply(x))
        if lhs != rhs:
            rep.fail(((x, "d"), rhs, lhs))
        for y in S.space.names:
            lhs = S.mul(S.element(x), S.element(y)).bind(F.apply)
            rhs = T.mul(F.apply(x), F.apply(y))
            if lhs != rhs:
                rep.fail(((x, y, "mul"), rhs, lhs))
    return rep


def mapping_cone_bimodule(F: DgaMorphism) -> TableBimodule:
    """The mapping cone of a dg-algebra morphism as a bimodule over the
    source: ("s", x) carries a shifted source generator, ("t", y) a target
    generator.  The differential sends the shifted part to minus its own
    differential plus its image under the morphism; the source acts on the
    shifted part with a parity twist and on the target part through the
    morphism.  The bimodule family uses the usual dictionary (differential,
    left action, sign-twisted right action)."""
    A, B = F.source, F.target
    if A.space.grading.modulus != B.space.grading.modulus:
        raise ValueError("source and target must share a grading group")
    R = A.ring
    names = ([("s", x) for x in A.space.names]
             + [("t", y) for y in B.space.names])
    degs = ([A.space.degree(x) - 1 for x in A.space.names]
            + [B.space.degree(y) for y in B.space.names])
    space = GradedSpace(R, A.space.grading, list(zip(names, degs)))

    def s_part(v: Vector) -> Vector:
        return v.map_words(lambda x: ("s", x))

    def t_part(v: Vector) -> Vector:
        return v.map_words(lambda y: ("t", y))

    def left(a: str, c) -> Vector:
        tag, x = c
        if tag == "s":
            return s_part(A.mul(A.element(a), A.element(x))).scaled(
                R.from_int(sign(A.space.parity(a))))
        return t_part(B.mul(F.apply(a), B.element(x)))

    def right(c, a: str) -> Vector:
        tag, x = c
        if tag == "s":
            return s_part(A.mul(A.element(x), A.element(a)))
        return t_part(B.mul(B.element(x), F.apply(a)))

    table: Dict[Tuple[Word, Any, Word], Vector] = {}
    for x in A.space.names:
        val = s_part(A.d(A.element(x))).scaled(R.from_int(-1)) \
            + t_part(F.apply(x))
        if not val.is_zero():
            table[((), ("s", x), ())] = val
    for y in B.space.names:
        val = t_part(B.d(B.element(y)))
        if not val.is_zero():
            table[((), ("t", y), ())] = val
    for a in A.space.names:
        for c in names:
            lv = left(a, c)
            if not lv.is_zero():
                table[((a,), c, ())] = lv
            rv = right(c, a).scaled(R.from_int(-sign(space.parity(c))))
            if not rv.is_zero():
                table[((), c, (a,))] = rv
    return TableBimodule(A.algebra, A.algebra, space, table)


def _bar_weight(t, beta: Word) -> int:
    return len(t[1]) + len(beta)


def bar_transfer_contraction(M: ModuleLike, F: DgaMorphism,
                             h_table: Dict[Any, Vector], cap: int
                             ) -> Tuple[Callable[[Vector], Vector],
                                        CheckReport]:
    """Promote an S-linear contraction of the mapping cone to an exact
    contraction of the two-sided bar complex of the module against the
    cone, truncated by bar weight.

    The bar complex is realized as the module-with-tail word space of the
    module tensored against the cone bimodule; its coderivation splits by
    bar weight into a slotwise part d (weight-preserving) and a merging
    part B (weight-lowering).  The contraction is H = h(1 - Bh + (Bh)^2 -
    ...), which is a finite sum on each word because merging strictly
    lowers the weight.  The report verifies the cone precondition
    1 = dh + hd and the exact identity 1 = (d+B)H + H(d+B) on every basis
    word of bar weight <= cap."""
    V = mapping_cone_bimodule(F)
    if V.left is not M.algebra:
        raise ValueError("the module must live over the source of the "
                         "morphism")
    Q = TensorModule(M, V)
    R = M.ring

    def h_cone(c) -> Vector:
        return h_table.get(c, Vector.zero(R))

    def merging(t, beta: Word) -> Vector:
        """The weight-lowering part B of the coderivation on one word."""
        w0 = _bar_weight(t, beta)
        out = Vector.zero(R)
        for (t2, b2), c in module_coderivation(Q, t, beta).terms.items():
            if _bar_weight(t2, b2) != w0:
                out.add_term((t2, b2), c)
        return out

    def b_op(vec: Vector) -> Vector:
        return vec.bind(lambda p: merging(*p))

    def total_op(vec: Vector) -> Vector:
        return vec.bind(lambda p: module_coderivation(Q, p[0], p[1]))

    def h_prom(vec: Vector) -> Vector:
        def on(p) -> Vector:
            (m, alpha, c), beta = p
            pre = (Q.M.m_parity(m) + Q.M.algebra.word_parity(alpha)) % 2
            s = R.from_int(sign(pre))
            out = Vector.zero(R)
            for c2, k in h_cone(c).terms.items():
                out.add_term(((m, alpha, c2), beta), R.mul(s, k))
            return out
        return vec.bind(on)

    def H(vec: Vector) -> Vector:
        # merging lowers the bar weight, so -h B kills a word of weight w
        # in at most w + 1 steps
        bound = 1 + max([_bar_weight(*p) for p in vec.terms] or [0])
        return perturbation_series(
            h_prom(vec), lambda y: h_prom(b_op(y)).scaled(R.from_int(-1)),
            bound, "the transferred homotopy series")[1]

    rep = CheckReport("bar-transfer",
                      "promoted contraction: 1 = (d+B)H + H(d+B) at "
                      "bounded bar weight", cap)
    cone_ok = True
    for c in V.space.names:
        cv = Vector.basis(R, c)
        dC = cv.bind(lambda n: V.b_apply((), n, ()))
        got = h_cone(c).bind(lambda n: V.b_apply((), n, ())) \
            + dC.bind(h_cone)
        if got != cv:
            cone_ok = False
            rep.fail((("cone", c), cv, got))
            break
    rep.details["cone_contraction"] = PASS if cone_ok else FAIL
    if rep.passed:
        for t, beta in module_words(Q, cap):
            x = Vector.basis(R, (t, beta))
            got = total_op(H(x)) + H(total_op(x))
            if got != x:
                rep.fail(((t, beta), x, got))
                break
    return H, rep


# ---------------------------------------------------------------------------
# obstruction complexes for module morphisms


def _require_uncurved(M: ModuleLike, N: ModuleLike) -> None:
    if not M.algebra.curvature_letterwise().is_zero() \
            or not N.algebra.curvature_letterwise().is_zero():
        raise UnsupportedStructure("obstruction stages need an uncurved "
                                   "base: curvature insertions lower the "
                                   "arity and the arity filtration is not "
                                   "preserved")


def _hom_scaled(phi: HomElement, c) -> HomElement:
    return HomElement(phi.source, phi.target, phi.degree,
                      {k: v.scaled(c) for k, v in phi.table.items()},
                      phi.cap)


def arity_part(phi: HomElement, k: int) -> HomElement:
    """The component of a module hom-element supported on arity exactly k
    (k algebra inputs alongside the module input)."""
    table = {key: v for key, v in phi.table.items() if len(key[1]) == k}
    return HomElement(phi.source, phi.target, phi.degree, table, phi.cap)


@dataclass
class ObstructionElement:
    """A representative of an obstruction class: the arity-`stage` part of a
    hom-element that is closed in the stage quotient complex."""
    stage: int
    rep: HomElement

    def is_zero(self) -> bool:
        return self.rep.support_min() is None


@dataclass
class ExactnessResult:
    status: str  # "Exact", "Nonexact", or "UNDECIDED"
    primitive: Optional[HomElement] = None


@dataclass
class ObstructionWitness:
    """Returned when a stage extension fails: the obstruction class whose
    stage equation has no solution."""
    obstruction: ObstructionElement


def obstruction_class(phi: HomElement, cap: int,
                      stage: Optional[int] = None,
                      source_B: Optional[PairMap] = None
                      ) -> ObstructionElement:
    """The leading obstruction of a degree-0 hom-element phi: the lowest
    arity part of [B, phi], which is closed in the quotient of homs of
    arity >= stage by arity >= stage+1.  If `stage` is given, [B, phi] must
    vanish below it.  `source_B` is passed on to hom_differential."""
    _require_uncurved(phi.source, phi.target)
    d = hom_differential(phi, cap, source_B)
    k = d.support_min()
    if stage is None:
        if k is None:
            k = cap + 1
        stage = k
    elif k is not None and k < stage:
        raise ValueError("the differential has support below the requested "
                         "stage (%d < %d)" % (k, stage))
    return ObstructionElement(stage, arity_part(d, stage))


def _hom_basis(M: ModuleLike, N: ModuleLike, k: int,
               cap: int) -> List[Tuple[Any, Word, Any]]:
    """Basis entries (m, word, n) for arity-k hom-elements.  The hom complex
    is all module maps, so unit letters are allowed in the words."""
    out = []
    words = list(M.algebra.words(k, min_len=k)) if k > 0 else [()]
    for m, _ in M.basis(cap):
        for w in words:
            for n, _ in N.basis(cap):
                out.append((m, w, n))
    return out


def _stage_columns(M: ModuleLike, N: ModuleLike, degree: int, k: int,
                  cap: int, post: Optional[HomElement] = None
                  ) -> Dict[Tuple[Any, Word, Any], Vector]:
    """A stage map on the arity-k homs X from M to N of the given degree, as
    columns: the unit hom at a basis entry (m, w, n) maps to a Vector over
    (m', alpha, n') keys.  The map is X -> the arity-k part of [B, X], or
    X -> post_0 o X, the arity-k part of compose_hom(post, X), when `post` is
    given.  At a row word (m, alpha) with |alpha| = k only length-preserving
    pieces reach X: b^N_0 after it, and before it the terms of B^M(m, alpha)
    whose tail keeps k letters (b^M_0 on the module letter, b_1 on one
    algebra letter).  Columns that map to zero are absent."""
    ring = M.ring
    targets = [n for n, _ in N.basis(cap)]
    first = {n: N.b_apply(n, ()) if post is None else post.apply(n, ())
             for n in targets}
    s = ring.from_int(-sign(degree))
    cols: Dict[Tuple[Any, Word, Any], Vector] = {}
    for m, alpha in module_words(M, cap):
        if len(alpha) != k:
            continue
        for n in targets:
            for n2, c in first[n].terms.items():
                cols.setdefault((m, alpha, n), Vector(ring)).add_term(
                    (m, alpha, n2), c)
        if post is not None:
            continue
        for (m2, w2), c in module_coderivation(M, m, alpha).terms.items():
            if len(w2) == k:
                c = ring.mul(s, c)
                for n in targets:
                    cols.setdefault((m2, w2, n), Vector(ring)).add_term(
                        (m, alpha, n), c)
    return {e: v for e, v in cols.items() if not v.is_zero()}


# One term of a stage equation: (unknown index, coefficient, post), standing
# for coefficient * _stage_columns(..., post) applied to that unknown.
StageTerm = Tuple[int, Any, Optional[HomElement]]


def _solve_multi(ring: Ring,
                 unknown_specs: List[Tuple[ModuleLike, ModuleLike, int]],
                 arity: int,
                 equations: List[Tuple[List[StageTerm], HomElement]],
                 cap: int) -> Optional[List[HomElement]]:
    """Solve a joint linear system over a field for several arity-`arity`
    hom-element unknowns.  Each equation is a sum of stage terms over the
    unknowns and must equal the given right-hand side.  Returns the solved
    hom-elements or None when inconsistent."""
    if not ring.is_field:
        raise UnsupportedStructure("stage solving needs field coefficients")
    col_index: Dict[Tuple[int, Tuple[Any, Word, Any]], int] = {}
    for idx, (M, N, _deg) in enumerate(unknown_specs):
        for entry in _hom_basis(M, N, arity, cap):
            col_index[(idx, entry)] = len(col_index)
    col_meta = list(col_index)
    # per column, one Vector over (m, alpha, n) row keys for each equation
    cols: List[Dict[int, Vector]] = [{} for _ in col_meta]
    for eq_idx, (terms, _rhs) in enumerate(equations):
        for idx, coeff, post in terms:
            M, N, deg = unknown_specs[idx]
            for entry, vec in _stage_columns(M, N, deg, arity, cap,
                                            post).items():
                j = col_index.get((idx, entry))
                if j is not None:
                    cols[j].setdefault(eq_idx, Vector(ring)).add_vector(
                        vec, coeff)

    row_index: Dict[Tuple[int, Any, Word, Any], int] = {}

    def row(key: Tuple[int, Any, Word, Any]) -> int:
        return row_index.setdefault(key, len(row_index))

    entries = [{row((eq_idx,) + key): c
                for eq_idx, vec in col.items()
                for key, c in vec.terms.items()} for col in cols]
    rhs_entries = {row((eq_idx, m, w, n)): c
                   for eq_idx, (_terms, rhs) in enumerate(equations)
                   for (m, w), vec in rhs.table.items()
                   for n, c in vec.terms.items()}
    nrows = len(row_index)
    if nrows == 0:
        sol = [ring.zero] * len(col_meta)
    else:
        matrix = [[ring.zero] * len(col_meta) for _ in range(nrows)]
        for j, col in enumerate(entries):
            for i, c in col.items():
                matrix[i][j] = c
        target = [ring.zero] * nrows
        for i, c in rhs_entries.items():
            target[i] = c
        sol = solve_field(ring, matrix, target)
        if sol is None:
            return None
    out_homs: List[HomElement] = []
    for idx, (M, N, deg) in enumerate(unknown_specs):
        table: Dict[Tuple[Any, Word], Vector] = {}
        for j, (cidx, (m, w, n)) in enumerate(col_meta):
            if cidx != idx or ring.is_zero(sol[j]):
                continue
            vec = table.setdefault((m, w), Vector.zero(ring))
            vec.add_term(n, sol[j])
        table = {k: v for k, v in table.items() if not v.is_zero()}
        out_homs.append(HomElement(M, N, deg, table, cap))
    return out_homs


def _boundary_matches(X: HomElement, rep: HomElement, stage: int,
                      cap: int, source_B: Optional[PairMap] = None) -> bool:
    """The check of a stage solution that does not rely on its assembly:
    the arity-`stage` part of [B, X], computed by hom_differential, equals
    the representative."""
    got = arity_part(hom_differential(X, cap, source_B), stage)
    return got.plus(rep.negated()).support_min() is None


def obstruction_is_exact(obs: ObstructionElement, cap: int,
                         source_B: Optional[PairMap] = None
                         ) -> ExactnessResult:
    """Decide whether the obstruction class vanishes in the stage quotient:
    look for an arity-`stage` hom X, one degree below the representative,
    with the stage part of [B, X] equal to the representative.  Field
    coefficients only; otherwise UNDECIDED, as when the primitive found
    fails the check through hom_differential (given `source_B`, B^M of
    the representative's source as a word map)."""
    M, N = obs.rep.source, obs.rep.target
    ring = M.ring
    if not ring.is_field:
        return ExactnessResult("UNDECIDED")
    sol = _solve_multi(ring, [(M, N, obs.rep.degree - 1)], obs.stage,
                       [([(0, ring.one, None)], obs.rep)], cap)
    if sol is None:
        return ExactnessResult("Nonexact")
    if not _boundary_matches(sol[0], obs.rep, obs.stage, cap, source_B):
        return ExactnessResult("UNDECIDED")
    return ExactnessResult("Exact", sol[0])


def extend_morphism(phi: HomElement, stage: int, cap: int,
                    source_B: Optional[PairMap] = None):
    """Given a degree-0 hom-element that is a morphism up to arity `stage`
    (its differential is supported in arities >= stage), kill the stage
    obstruction: return phi + X, a morphism up to stage+1, or an
    ObstructionWitness when the obstruction class is essential.  Raises
    UnsupportedStructure when exactness is undecided.  `source_B`, B^M of
    phi's source as a word map, goes to every hom_differential made."""
    obs = obstruction_class(phi, cap, stage, source_B)
    if obs.is_zero():
        return phi
    res = obstruction_is_exact(obs, cap, source_B)
    if res.status == "UNDECIDED":
        raise UnsupportedStructure("stage %d: exactness is undecided" % stage)
    if res.status != "Exact":
        return ObstructionWitness(obs)
    return phi.plus(res.primitive.negated())


def homotopy_obstruction(phi: HomElement, psi: HomElement, h: HomElement,
                         stage: int, cap: int) -> ObstructionElement:
    """The obstruction to extending a homotopy between two morphisms: with
    phi - psi - [B, h] supported in arities >= stage, its stage part is the
    class whose exactness governs extending h one stage further."""
    _require_uncurved(phi.source, phi.target)
    diff = phi.plus(psi.negated()).plus(
        hom_differential(h, cap).negated())
    k = diff.support_min()
    if k is not None and k < stage:
        raise ValueError("the homotopy defect has support below the "
                         "requested stage (%d < %d)" % (k, stage))
    return ObstructionElement(stage, arity_part(diff, stage))


def extend_homotopy(phi: HomElement, psi: HomElement, h: HomElement,
                    stage: int, cap: int):
    """Solve the stage equation for a homotopy correction X of degree -1
    with the stage part of [B, X] equal to the homotopy defect; returns
    h + X, or an ObstructionWitness when the defect class is essential.
    Raises UnsupportedStructure when exactness is undecided."""
    obs = homotopy_obstruction(phi, psi, h, stage, cap)
    if obs.is_zero():
        return h
    res = obstruction_is_exact(obs, cap)
    if res.status == "UNDECIDED":
        raise UnsupportedStructure("stage %d: exactness is undecided" % stage)
    if res.status != "Exact":
        return ObstructionWitness(obs)
    return h.plus(res.primitive)


def check_obstruction_ideal(c: HomElement, pre: HomElement,
                            post: HomElement, cap: int) -> CheckReport:
    """Hom-elements supported in arities >= k form a two-sided ideal stable
    under the hom differential: composing on either side and applying
    [B, -] never lowers the minimal supported arity (uncurved base)."""
    _require_uncurved(c.source, c.target)
    rep = CheckReport("obstruction-ideal",
                      "arity >= k homs form a differential ideal", cap)
    k = c.support_min()
    if k is None:
        return rep
    for label, val in (("post-compose", compose_hom(post, c, cap)),
                       ("pre-compose", compose_hom(c, pre, cap)),
                       ("differential", hom_differential(c, cap))):
        got = val.support_min()
        if got is not None and got < k:
            rep.fail(((label,), ">= %d" % k, got))
    return rep


def check_obstruction_derivation(alpha: HomElement, phi: HomElement,
                                 psi: HomElement, beta: HomElement,
                                 stage: int, cap: int) -> CheckReport:
    """In the stage quotient the hom differential is a derivation for
    composition: with closed outer factors,
    [B, a phi psi b] = a ([B,phi] psi + (-1)^phi phi [B,psi]) b
    at arity `stage` whenever both sides are defined there."""
    _require_uncurved(phi.source, phi.target)
    ring = phi.ring
    rep = CheckReport("obstruction-derivation",
                      "the stage differential is a derivation for "
                      "composition", cap)
    whole = compose_hom(alpha,
                        compose_hom(phi, compose_hom(psi, beta, cap),
                                    cap), cap)
    lhs = arity_part(hom_differential(whole, cap), stage)
    s = ring.from_int(sign(phi.degree % 2))
    inner = compose_hom(hom_differential(phi, cap), psi, cap).plus(
        _hom_scaled(compose_hom(phi, hom_differential(psi, cap), cap),
                    s))
    rhs = arity_part(
        compose_hom(alpha, compose_hom(inner, beta, cap), cap), stage)
    diff = lhs.plus(rhs.negated())
    if diff.support_min() is not None:
        rep.fail((("stage", stage), "0", sorted(diff.table)))
    return rep


def check_obstruction_bimodule(phi: HomElement, c: HomElement,
                               psi: HomElement, cap: int) -> CheckReport:
    """The graded Leibniz rule for three-fold composition of hom-elements:
    [B, phi c psi] = [B,phi] c psi + (-1)^phi phi [B,c] psi
    + (-1)^(phi+c) phi c [B,psi], exactly as tables."""
    ring = phi.ring
    rep = CheckReport("hom-leibniz",
                      "[B, -] is a graded derivation for composition",
                      cap)
    whole = compose_hom(phi, compose_hom(c, psi, cap), cap)
    lhs = hom_differential(whole, cap)
    s1 = ring.from_int(sign(phi.degree % 2))
    s2 = ring.from_int(sign((phi.degree + c.degree) % 2))
    rhs = compose_hom(hom_differential(phi, cap),
                      compose_hom(c, psi, cap), cap)
    rhs = rhs.plus(_hom_scaled(compose_hom(
        phi, compose_hom(hom_differential(c, cap), psi, cap), cap), s1))
    rhs = rhs.plus(_hom_scaled(compose_hom(
        phi, compose_hom(c, hom_differential(psi, cap), cap), cap), s2))
    diff = lhs.plus(rhs.negated())
    if diff.support_min() is not None:
        rep.fail((("leibniz",), "0", sorted(diff.table)))
    return rep


# ---------------------------------------------------------------------------
# homotopy inversion


def invert_homotopy(phi: HomElement, psi: HomElement, h: HomElement,
                    ell: HomElement, arity_cap: int
                    ) -> Tuple[HomElement, HomElement, CheckReport]:
    """Upgrade an arity-one homotopy inverse to a full one: given a closed
    degree-0 morphism phi and data (psi, h, ell) with

        1 - phi psi - [B, h]    supported in arity >= 1, and
        1 - psi phi - [B, ell]  supported in arity >= 1,

    produce (psi_hat, h_hat) with psi_hat closed up to the arity cap and
    1 - phi psi_hat - [B, h_hat] supported above the cap.  Stage failures
    raise TheoremViolation with the obstruction as witness; a source or
    target that fails ``check_module`` up to the cap, or a phi that is not
    closed, raises ValueError.

    Every hom_differential of the call, including those of the stage
    extensions, takes the coderivation of its source module from one word
    map per module, cached for this call."""
    M, N = phi.source, phi.target
    ring = phi.ring
    cap = arity_cap
    _require_uncurved(M, N)
    if not ring.is_field:
        raise UnsupportedStructure("the inversion stages need field "
                                   "coefficients")
    coderivations: Dict[int, PairMap] = {}

    def source_B(x: HomElement) -> PairMap:
        S = x.source
        if id(S) not in coderivations:
            coderivations[id(S)] = cached(
                lambda p: module_coderivation(S, p[0], p[1]))
        return coderivations[id(S)]

    def d(x: HomElement) -> HomElement:
        return hom_differential(x, cap, source_B(x))

    for side, S in (("source", M), ("target", N))[:1 if N is M else 2]:
        structure = check_module(S, cap)
        if not structure.passed:
            raise ValueError("the %s must be a module: the module check "
                             "fails at %r" % (side, structure.witness[0]))
    if d(phi).support_min() is not None:
        raise ValueError("the morphism to invert must be closed")

    def residual(ps: HomElement, ho: HomElement) -> HomElement:
        return identity_hom(N, cap).plus(
            compose_hom(phi, ps, cap).negated()).plus(d(ho).negated())

    rep = CheckReport("homotopy-inversion",
                      "stagewise upgrade of an arity-one homotopy "
                      "inverse", cap)
    r0 = residual(psi, h)
    k0 = r0.support_min()
    kpsi = d(psi).support_min()
    k = min(x for x in (k0, kpsi, cap + 1) if x is not None)
    if k < 1:
        raise TheoremViolation(
            0, "the one-sided homotopy-inverse hypothesis fails at "
            "arity 0", arity_part(r0, 0))
    other = identity_hom(M, cap).plus(
        compose_hom(psi, phi, cap).negated()).plus(
        d(ell).negated())
    ko = other.support_min()
    if ko is not None and ko < 1:
        raise TheoremViolation(
            0, "the other-sided homotopy-inverse hypothesis fails at "
            "arity 0", arity_part(other, 0))
    psi_hat, h_hat = psi, h
    for stage in range(k, cap + 1):
        ext = extend_morphism(psi_hat, stage, cap, source_B(psi_hat))
        if isinstance(ext, ObstructionWitness):
            raise TheoremViolation(
                stage, "the morphism-extension stage equation has no "
                "solution", ext.obstruction)
        psi_hat = ext
        rs = residual(psi_hat, h_hat)
        kr = rs.support_min()
        if kr is not None and kr < stage:
            raise TheoremViolation(
                stage, "the residual dropped below the current stage",
                arity_part(rs, kr))
        rep_rs = arity_part(rs, stage)
        if rep_rs.support_min() is not None:
            # unknowns X: N -> M and Y: N -> N with [B, X] = 0 at this
            # stage (so psi_hat - X stays closed) and phi X - [B, Y] equal
            # to minus the residual
            zero_rhs = HomElement(N, M, 1, {}, cap)
            sol = _solve_multi(
                ring, [(N, M, 0), (N, N, -1)], stage,
                [([(0, ring.one, None)], zero_rhs),
                 ([(0, ring.one, phi), (1, ring.neg(ring.one), None)],
                  rep_rs.negated())], cap)
            if sol is None:
                raise TheoremViolation(
                    stage, "the homotopy-correction stage equation has "
                    "no solution", ObstructionElement(stage, rep_rs))
            psi_hat = psi_hat.plus(sol[0].negated())
            h_hat = h_hat.plus(sol[1])
        rep.details["stage"] = stage
    final = residual(psi_hat, h_hat)
    kf = final.support_min()
    if kf is not None and kf <= cap:
        rep.fail((("final-residual",), "> %d" % cap, kf))
    kc = d(psi_hat).support_min()
    if kc is not None and kc <= cap:
        rep.fail((("closedness",), "> %d" % cap, kc))
    return psi_hat, h_hat, rep


# ---------------------------------------------------------------------------
# comparison with the classical derived equivalence, by constituents


def quillen_classical_components(f: AInfMorphism, cap: int,
                                 g: Optional[AInfMorphism] = None,
                                 h: Optional[MultiOp] = None) -> CheckReport:
    """Verify, constituent by constituent, the pieces of the comparison
    between the homotopy-level equivalence and the classical one for
    uncurved algebras over a field: (a) the inclusion square — including
    into the adjoint algebra and then applying the induced dg-map equals
    applying the morphism family and then including; (b) when a homotopy to
    a second morphism is supplied, the induced derivation relates the two
    induced maps; (c) both adjoint algebras contract onto their bases.  Both
    sides of the square are coalgebra maps into a tensor coalgebra, so each
    nonempty word compares their one-letter components: the packed normal
    forms of F(w) against the induced map on the packed letter of w.  The
    verdict covers the labeled constituents only."""
    rep = CheckReport("classical-comparison",
                      "inclusion square, induced derivation, and base "
                      "contractions (constituents only)", cap)
    A, B = f.source, f.target
    if not A.curvature_letterwise().is_zero() \
            or not B.curvature_letterwise().is_zero() \
            or not f.ring.is_field:
        rep.verdict = UNSUPPORTED
        rep.witness = ("uncurved algebras over a field only",)
        return rep
    Usrc, Utgt = UAlgebra(A), UAlgebra(B)
    push = ue_functor(f, Utgt)
    square_ok = True
    for w in A.words(cap, min_len=1):
        lhs = f.extended(w).bind(lambda w2: Utgt.normal_form((w2,)))
        rhs = Usrc.normal_form((w,)).bind(push)
        if lhs != rhs:
            rep.fail((("square", w), rhs, lhs))
            square_ok = False
            break
    rep.details["inclusion_square"] = PASS if square_ok else FAIL
    if g is not None and h is not None:
        _, drep = homotopy_to_derivation(f, g, h, cap)
        rep.details["derivation"] = drep.verdict
        if drep.verdict == FAIL:
            rep.fail((("derivation",), PASS, FAIL))
    for label, alg in (("source", A), ("target", B)):
        _, crep = ue_contraction(alg, cap)
        rep.details["contraction_" + label] = crep.verdict
        if crep.verdict == FAIL:
            rep.fail((("contraction", label), PASS, FAIL))
    return rep
