"""The adjoint curved dg-algebra of a strictly unital A-infinity structure.

A *letter* is a nonempty word of suspension generators (an element of
X = ((A[1])^{(x)>=1})[-1]); the big algebra U(A) is the free graded algebra
on letters, with basis the concatenation words ("uwords", the empty uword
being the multiplicative unit).  The differential is the derivation extension
of a letter-wise map D = D_1 + Dbar_2, where

    D_1    = -omega o B o sigma        (apply the coderivation inside a letter)
    Dbar_2 = -omega^{#2} o Deltabar o sigma   (split one letter into two)

and Deltabar drops the two trivial splittings of the full deconcatenation.
D_1 inserts curvature terms, so d is not square-zero: instead d^2 = [c, -]
with c = -omega(b_0(1)), which is exactly what ``check_u_curvature``
verifies (and what breaks when Deltabar is corrupted to the full Delta --
``UAlgebra(base, full_delta=True)`` builds that mutation).

The unital quotient U_e(A) divides by the two-sided ideal generated by
1 - omega[eta] and all letters containing eta strictly inside a longer word.
Each generator rewrites a letter to zero or deletes it, so normal forms are
immediate and confluent; ``check_ideal_stability`` verifies that the
differential preserves the ideal, making the quotient a curved dg-algebra.

The module identification: a structure family b^M on M turns into a
dg-module over U_e(A) via

    d m                      = b^M_1(m)
    m . omega[sigma-word w]  = -(-1)^{|m|} b^M(m (.) w)

extended to uwords letter by letter.  Note the plus sign on b^M_1: the
module factor is unshifted, so unlike the algebra-side dictionary
(b_1 = -sigma d omega) the conjugation contributes no sign.  The induced
differential then satisfies the curved Leibniz rule and d^2 m = -m.c
(see ``dg_module_axioms``).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterator, List, Tuple

from .ainf import AInfAlgebra, AInfModule, AInfMorphism, CurvedDga
from .graded import (Vector, Word, block_extend, insert_blocks, memoized,
                     sign)
from .report import FAIL, PASS, CheckReport

Letter = Tuple[str, ...]        # nonempty word of A[1] generator names
UWord = Tuple[Letter, ...]      # concatenation word; () is the unit


class UAlgebra:
    """U(A) and its unital quotient U_e(A) for a table-backed algebra;
    ``full_delta`` corrupts Dbar_2 to the full coproduct (a mutation)."""

    def __init__(self, base: AInfAlgebra, full_delta: bool = False):
        self.base = base
        self.ring = base.ring
        self.grading = base.grading
        self.full_delta = full_delta

    # -- degrees ------------------------------------------------------------

    def letter_parity(self, lt: Letter) -> int:
        return (self.base.word_parity(lt) + 1) % 2

    def uword_parity(self, u: UWord) -> int:
        return sum(self.letter_parity(lt) for lt in u) % 2

    def uword_weight(self, u: UWord) -> int:
        return sum(len(lt) for lt in u)

    # -- enumeration --------------------------------------------------------

    def letters(self, weight_cap: int, eta_free: bool = False) -> Iterator[Letter]:
        eta = self.base.eta
        for ln in range(1, weight_cap + 1):
            for w in itertools.product(self.base.shift.names, repeat=ln):
                if eta_free and eta in w:
                    continue
                yield w

    def uwords(self, weight_cap: int, eta_free: bool = False) -> Iterator[UWord]:
        """All uwords of total weight at most the cap, the unit included."""
        def rec(budget: int) -> Iterator[UWord]:
            yield ()
            for lt in self.letters(budget, eta_free):
                for rest in rec(budget - len(lt)):
                    yield (lt,) + rest
        return rec(weight_cap)

    # -- algebra operations -------------------------------------------------

    def curvature(self) -> Vector:
        """c = -omega(b_0(1)) as a vector of one-letter uwords."""
        out = Vector.zero(self.ring)
        for w, c in self.base.curvature_letterwise().terms.items():
            out.add_term((tuple(w),), self.ring.neg(c))
        return out

    def d_letter(self, lt: Letter) -> Vector:
        """D = D_1 + Dbar_2 on one letter (a vector of uwords)."""
        R = self.ring
        out = Vector.zero(R)
        for w, c in self.base.B(lt).terms.items():
            out.add_term((tuple(w),), R.neg(c))
        for i in range(1, len(lt)):
            c = R.from_int(-sign(self.base.word_parity(lt[:i])))
            out.add_term((tuple(lt[:i]), tuple(lt[i:])), c)
        if self.full_delta:
            # the two trivial splittings the reduced coproduct drops, with
            # the empty tensor factor read as the empty uword
            out.add_term((lt,), R.from_int(-1))
            out.add_term((lt,), R.from_int(-sign(self.base.word_parity(lt))))
        return out

    def differential(self, u: UWord) -> Vector:
        """Derivation extension of the letter-wise map to uwords."""
        zero = Vector(self.ring)
        return insert_blocks(
            self.ring, u, self.letter_parity, True, 1,
            lambda block: self.d_letter(block[0]) if block else zero)

    # -- the unital quotient ------------------------------------------------

    def normal_form(self, u: UWord) -> Vector:
        """Canonical representative modulo the unit ideal: letters with eta
        inside a longer word die, the letter omega[eta] is deleted (it is
        even, so deletion carries no sign)."""
        eta = self.base.eta
        kept: List[Letter] = []
        for lt in u:
            if lt == (eta,):
                continue
            if eta in lt:
                return Vector.zero(self.ring)
            kept.append(lt)
        return Vector.basis(self.ring, tuple(kept))

    def ue_differential(self, u: UWord) -> Vector:
        return self.normal_form(u).bind(self.differential).bind(
            self.normal_form)


def check_u_curvature(U: UAlgebra, cap: int,
                      full_delta: bool = False) -> CheckReport:
    """d^2 u = c.u - u.c on every uword of weight <= cap, both in U(A) and,
    after normal forms, in U_e(A).  With ``full_delta`` the check runs on
    the mutant ``UAlgebra(U.base, full_delta=True)``.

    The base algebra's b is odd and its unit even (``AInfAlgebra`` refuses
    anything else), so c is even, d is odd on every letter and the letter
    omega[eta] is even.  The difference d^2 - [c, -] is then an even
    derivation, and so is its image on U_e(A) since ``normal_form`` is
    multiplicative and keeps parities; it vanishes on every uword once it
    vanishes on the letters (eta-free ones for U_e(A)), and a PASS visits
    letters only.  The full-Delta mutant's d is not odd, so for it, or when
    a letter fails, the uwords are enumerated in full, and the first
    failing uword is reported."""
    rep = CheckReport("u-curvature", "d^2 = [c,-] on the adjoint algebra",
                      cap)
    if full_delta:
        U = UAlgebra(U.base, full_delta=True)
    c = U.curvature()

    def first_failure(uwords, quotient_uwords):
        for u in uwords:
            uvec = Vector.basis(U.ring, u)
            lhs = U.differential(u).bind(U.differential)
            rhs = c.concat(uvec) - uvec.concat(c)
            if lhs != rhs:
                return (u, rhs, lhs)
        for u in quotient_uwords:
            uvec = Vector.basis(U.ring, u)
            lhs = U.ue_differential(u).bind(U.ue_differential)
            rhs = (c.concat(uvec) - uvec.concat(c)).bind(U.normal_form)
            if lhs != rhs:
                return (("quotient", u), rhs, lhs)
        return None

    def letters(eta_free: bool) -> Iterator[UWord]:
        return ((lt,) for lt in U.letters(cap, eta_free))

    with memoized(U, "d_letter", "differential", "ue_differential"):
        if not U.full_delta \
                and first_failure(letters(False), letters(True)) is None:
            return rep
        witness = first_failure(U.uwords(cap), U.uwords(cap, eta_free=True))
    if witness is not None:
        rep.fail(witness)
    return rep


def check_ideal_stability(U: UAlgebra, cap: int) -> CheckReport:
    """The differential of every ideal generator of weight <= cap reduces to
    zero, so d descends to the unital quotient."""
    rep = CheckReport("ideal-stability",
                      "normal_form(d g) = 0 for unit-ideal generators",
                      cap)
    eta = U.base.eta
    # d(1 - omega[eta]) = -d(omega[eta])
    got = U.differential(((eta,),)).bind(U.normal_form)
    if not got.is_zero():
        rep.fail(((eta,), "0", got))
    for lt in U.letters(cap):
        if eta not in lt or lt == (eta,):
            continue
        got = U.differential((lt,)).bind(U.normal_form)
        if not got.is_zero():
            rep.fail((lt, "0", got))
            break
    return rep


# ---------------------------------------------------------------------------
# U_e(A) on the shifted side, and the canonical inclusion


def ue_shift_parity(U: UAlgebra, u: UWord) -> int:
    return (U.uword_parity(u) + 1) % 2


def ue_b(U: UAlgebra, word: Tuple[UWord, ...]) -> Vector:
    """The structure family of the curved dg-algebra U_e(A) on words of
    shifted uwords: the arity 0/1/2 dictionary of any classical algebra."""
    R = U.ring
    if len(word) == 0:
        return U.curvature().bind(U.normal_form).scaled(R.from_int(-1))
    if len(word) == 1:
        return U.ue_differential(word[0]).scaled(R.from_int(-1))
    if len(word) == 2:
        s = R.from_int(-sign(ue_shift_parity(U, word[0])))
        return U.normal_form(word[0] + word[1]).scaled(s)
    return Vector.zero(R)


def inclusion_extended(U: UAlgebra, w: Word) -> Vector:
    """Coalgebra-morphism extension of the canonical inclusion, whose l-th
    component packs a whole l-letter word into a single letter of U_e(A)
    and takes its normal form.  All components have degree 0, so no Koszul
    signs appear between blocks."""
    def image(i: int, j: int) -> Vector:
        return U.normal_form((w[i:j],)).map_words(lambda u: (u,))
    return block_extend(U.ring, len(w), len(w), image)


def check_inclusion_morphism(U: UAlgebra, cap: int) -> CheckReport:
    """The canonical inclusion is a morphism of structures: extending it as a
    coalgebra map intertwines the two coderivations on words of weight
    <= cap.  The difference is a coderivation along the inclusion, so each
    word compares its one-letter component: the packed normal forms of B(w)
    against ue_b on the extended inclusion of w."""
    rep = CheckReport("ue-inclusion",
                      "B' o incl = incl o B on the shifted side", cap)
    for w in U.base.words(cap):
        lhs = U.base.B(w).bind(lambda w2: U.normal_form((w2,)))
        rhs = inclusion_extended(U, w).bind(lambda uw: ue_b(U, uw))
        if lhs != rhs:
            rep.fail((w, lhs, rhs))
            break
    return rep


# ---------------------------------------------------------------------------
# module identification


class UeModule:
    """A dg-module over U_e(A) carried by the generators of a module space:
    a differential and an action of single letters, extended to uwords by
    folding."""

    def __init__(self, U: UAlgebra, space, d_fn: Callable[[Any], Vector],
                 act_fn: Callable[[Any, Letter], Vector]):
        self.U = U
        self.space = space
        self.ring = U.ring
        self._d = d_fn
        self._act = act_fn

    def d(self, vec: Vector) -> Vector:
        return vec.bind(lambda m: self._d(m))

    def act_letter(self, vec: Vector, lt: Letter) -> Vector:
        return vec.bind(lambda m: self._act(m, lt))

    def act(self, vec: Vector, u: UWord) -> Vector:
        for lt in u:
            vec = self.act_letter(vec, lt)
        return vec


def module_to_ue(M: AInfModule) -> UeModule:
    """The structure family of a module, read as a dg-module over the
    adjoint algebra of its base."""
    U = UAlgebra(M.algebra)
    R = M.ring

    def d_fn(m) -> Vector:
        return M.b_apply(m, ())

    def act_fn(m, lt: Letter) -> Vector:
        s = R.from_int(-sign(M.m_parity(m)))
        return M.b_apply(m, lt).scaled(s)

    return UeModule(U, M.space, d_fn, act_fn)


def ue_to_module(E: UeModule, arity_cap: int = 4) -> AInfModule:
    """Inverse dictionary: rebuild the structure-family table from the
    differential and the letter action."""
    R = E.ring
    table: Dict[Tuple[str, Word], Vector] = {}
    for m in E.space.names:
        dm = E._d(m)
        if not dm.is_zero():
            table[(m, ())] = dm
        s = R.from_int(-sign(E.space.parity(m)))
        for lt in E.U.letters(arity_cap):
            val = E._act(m, lt).scaled(s)
            if not val.is_zero():
                table[(m, tuple(lt))] = val
    return AInfModule(E.U.base, E.space, table, arity_cap)


def dg_module_axioms(E: UeModule, cap: int) -> CheckReport:
    """The dg-module laws over U_e(A): unitality of the action, vanishing on
    the unit ideal, the curved Leibniz rule against the letter differential,
    and d^2 m = -m.c.  The sign on the curvature term is forced by the
    strict-unit conventions."""
    rep = CheckReport("ue-module",
                      "unital action, Leibniz, d^2 = -(.c)", cap)
    U = E.U
    R = E.ring
    eta = U.base.eta
    c = U.curvature()
    for m in E.space.names:
        mv = Vector.basis(R, m)
        sm = R.from_int(sign(E.space.parity(m)))
        if E.act(mv, ((eta,),)) != mv:
            rep.fail(((m, "unit"), mv, E.act(mv, ((eta,),))))
            break
        lhs = E.d(E.d(mv))
        rhs = c.bind(lambda u: E.act(mv, u)).scaled(R.from_int(-1))
        if lhs != rhs:
            rep.fail(((m, "d^2"), rhs, lhs))
            break
        bad = False
        for lt in U.letters(cap):
            if eta in lt:
                if lt != (eta,) and not E.act(mv, (lt,)).is_zero():
                    rep.fail(((m, lt, "ideal"), "0", E.act(mv, (lt,))))
                    bad = True
                    break
                continue
            lhs = E.d(E.act(mv, (lt,)))
            rhs = E.act(E.d(mv), (lt,)) + U.ue_differential((lt,)).bind(
                lambda u: E.act(mv, u)).scaled(sm)
            if lhs != rhs:
                rep.fail(((m, lt, "leibniz"), rhs, lhs))
                bad = True
                break
        if bad:
            break
    return rep


def check_strict_morphism_transport(M: AInfModule, N: AInfModule,
                                    phi1: Dict[str, Vector],
                                    cap: int) -> CheckReport:
    """A strict module morphism corresponds to a linear chain map over the
    adjoint algebra: the one dictionary commutes with d and with every letter
    action iff the other satisfies the closedness equation."""
    from .ainf import HomElement, check_module_morphism
    rep = CheckReport("strict-transport",
                      "strict morphism <-> linear chain map", cap)
    EM, EN = module_to_ue(M), module_to_ue(N)
    R = M.ring

    def apply_phi(vec: Vector) -> Vector:
        return vec.bind(lambda m: phi1.get(m, Vector.zero(R)))

    linear = True
    wit = None
    for m in M.space.names:
        mv = Vector.basis(R, m)
        if apply_phi(EM.d(mv)) != EN.d(apply_phi(mv)):
            linear = False
            wit = (m, "d")
            break
        for lt in EM.U.letters(cap):
            if apply_phi(EM.act(mv, (lt,))) != EN.act(apply_phi(mv), (lt,)):
                linear = False
                wit = (m, lt)
                break
        if not linear:
            break
    table = {(m, ()): v for m, v in phi1.items() if not v.is_zero()}
    hom = HomElement(M, N, 0, table, cap)
    closed = check_module_morphism(hom, cap).passed
    rep.details["chain_map"] = PASS if linear else FAIL
    rep.details["closed_morphism"] = PASS if closed else FAIL
    if linear != closed:
        rep.fail((wit, "equivalence", (linear, closed)))
    elif not linear:
        rep.fail((wit, "both sides reject", None))
    return rep


# ---------------------------------------------------------------------------
# universality


def universality_transport(f: AInfMorphism, D: CurvedDga,
                           cap: int) -> Tuple[Callable[[UWord], Vector],
                                              CheckReport]:
    """Transport a structure morphism A -> A' (A' a curved dg-algebra) to a
    multiplicative map out of the adjoint algebra of A, and verify it is a
    map of curved dg-algebras: unital, ideal-killing, commuting with the
    differentials, matching the curvatures, and factoring the original
    morphism through the canonical inclusion."""
    if f.target is not D.algebra:
        raise ValueError("the morphism must land in the given dg-algebra")
    U = UAlgebra(f.source)
    R = D.ring

    def on_letter(lt: Letter) -> Vector:
        return f.f.apply(lt).map_words(lambda w: w[0])

    def transport(u: UWord) -> Vector:
        out = Vector.basis(R, D.unit)
        for lt in u:
            out = D.mul(out, on_letter(lt))
        return out

    rep = CheckReport("universality",
                      "transported map is a unital curved-dga morphism",
                      cap)
    eta = U.base.eta
    if transport(((eta,),)) != Vector.basis(R, D.unit):
        rep.fail((("unit",), D.unit, transport(((eta,),))))
    c = U.curvature().bind(transport)
    if c != D.curvature:
        rep.fail((("curvature",), D.curvature, c))
    for lt in U.letters(cap):
        if eta in lt and lt != (eta,):
            if not transport((lt,)).is_zero():
                rep.fail(((lt, "ideal"), "0", transport((lt,))))
                break
            continue
        lhs = D.d(transport((lt,)))
        rhs = U.ue_differential((lt,)).bind(transport)
        if lhs != rhs:
            rep.fail(((lt, "d"), rhs, lhs))
            break
    else:
        # factorization through the canonical inclusion: the letter value
        # on a packed word is the original component on that word
        for w in U.base.words(cap, min_len=1):
            via = U.normal_form((tuple(w),)).bind(transport)
            direct = f.f.apply(w).map_words(lambda ww: ww[0])
            if via != direct:
                rep.fail(((w, "factorization"), direct, via))
                break
    return transport, rep
