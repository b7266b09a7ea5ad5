"""Module functors: the adjoint-algebra bimodule, tensoring, and Q ~ 1.

The adjoint algebra is a bimodule over its base: the bimodule family is the
internal differential together with "pack and multiply on" operations that
absorb a word of suspension letters from either side into a single algebra
letter (with the Koszul sign -(-1)^{|middle|} on the right).  Tensoring a
module M against a bimodule V yields the module M (.) A[1]^(x) (.) V; with V
the adjoint-algebra bimodule this is the functor Q.  The natural maps

    lambda:  m (.) alpha  |->  (m, alpha, 1)   at every splitting
    epsilon: (m, 1, chi)  |->  m.chi           (strict)

are closed, epsilon o lambda is the identity on the nose, and the marching
homotopy H (which unpacks adjoint-algebra letters leftward into the middle
word slot, one at a time, acting the earlier letters on the module)
satisfies

    BH + HB = 1 - lambda epsilon

exactly in every weight.  That identity is the whole content of the
equivalence between Q and the identity functor, and it is what makes the
adjunction transport below an isomorphism of hom complexes.

B^Q and B^M are coderivations, H and epsilon are strict in the right word
and lambda is lambda_0 (.) 1, so the difference of the two sides of each
identity is a comodule map over the bar coalgebra of the base, fixed by its
component into the empty right word.  That needs H and epsilon homogeneous,
of parities one and zero; they are, because every table family is
homogeneous and odd and every unit even (``AInfAlgebra`` and ``AInfModule``
refuse anything else).  The checks compare that component on each word
(t, beta) up to the cap rather than the whole images: b^Q on one pair at a
time, never the coderivation B^Q.  Words come prefixes first, so the verdict
and the first failing word are those of the whole-word comparison, and at
that word the compared vectors differ by the whole difference of the two
sides.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .adjoint import UAlgebra, UeModule, UWord, module_to_ue
from .ainf import (AInfModule, AInfMorphism, BimoduleLike, HomElement,
                   ModuleLike, head_apply, hom_differential,
                   module_coderivation, module_words)
from .graded import Vector, Word, cached, memoized, sign
from .report import FAIL, CheckReport

TElem = Tuple[Any, Word, Any]   # (module letter, A[1]-word, bimodule letter)


class UeBimodule(BimoduleLike):
    """The adjoint algebra as a bimodule over its base algebra.  Elements
    are normal-form (unit-free) concatenation words."""

    def __init__(self, base):
        self.left = base
        self.right = base
        self.U = UAlgebra(base)
        self.ring = base.ring

    def v_parity(self, chi: UWord) -> int:
        return self.U.uword_parity(chi)

    def basis(self, cap: int) -> Iterator[Tuple[UWord, int]]:
        if cap < 0:
            return
        for chi in self.U.uwords(cap, eta_free=True):
            yield chi, self.U.uword_weight(chi)

    def b_apply(self, aword: Word, chi: UWord, a2word: Word) -> Vector:
        U = self.U
        if not aword and not a2word:
            return U.ue_differential(chi)
        if aword and not a2word:
            return U.normal_form((tuple(aword),) + chi)
        if not aword and a2word:
            s = -sign(U.uword_parity(chi))
            return U.normal_form(chi + (tuple(a2word),)).scaled(
                self.ring.from_int(s))
        return Vector.zero(self.ring)


class TensorModule(ModuleLike):
    """M (.) A[1]^(x) (.) V for a module M and a bimodule V whose left
    algebra is the base of M; a module over the right algebra of V.

    The structure family is the corestriction of the total coderivation

        B^M (.) 1 (.) 1^(x)  +  1 (.) b^V (.) 1^(x)  +  1 (.) 1 (.) B

    to the terms with no algebra letters remaining on the right: the
    bimodule family consumes a suffix of the middle word together with the
    whole right word, while the module part contributes only when the right
    word is already empty.
    """

    def __init__(self, M: ModuleLike, V: BimoduleLike):
        if V.left is not M.algebra:
            raise ValueError("the bimodule must live over the module's base")
        self.M = M
        self.V = V
        self.algebra = V.right
        self.ring = M.ring

    def m_parity(self, t: TElem) -> int:
        m, alpha, v = t
        return (self.M.m_parity(m) + self.M.algebra.word_parity(alpha)
                + self.V.v_parity(v)) % 2

    def basis(self, cap: int) -> Iterator[Tuple[TElem, int]]:
        for m, wm in self.M.basis(cap):
            if wm > cap:
                continue
            for v, wv in self.V.basis(cap - wm):
                for alpha in self.M.algebra.words(cap - wm - wv):
                    yield (m, alpha, v), wm + wv + len(alpha)

    def b_apply(self, t: TElem, beta: Word) -> Vector:
        m, alpha, v = t
        R = self.ring
        out = Vector.zero(R)
        if not beta:
            for (m2, a2), c in module_coderivation(self.M, m, alpha).terms.items():
                out.add_term((m2, a2, v), c)
        par = self.M.m_parity(m)
        for i in range(len(alpha) + 1):
            for v2, c in self.V.b_apply(alpha[i:], v, beta).terms.items():
                out.add_term((m, alpha[:i], v2), R.neg(c) if par else c)
            if i < len(alpha):
                par = (par + self.M.algebra.letter_parity(alpha[i])) % 2
        return out


def tensor_hom(QM: TensorModule, QN: TensorModule, phi: HomElement,
               cap: int) -> HomElement:
    """Functoriality of tensoring on morphisms: the operator acts through
    the module-and-left-word part and leaves the bimodule slot and the
    right word alone, so the family is strict in the right word."""
    table: Dict[Tuple[TElem, Word], Vector] = {}
    for t, wt in QM.basis(cap):
        m, alpha, v = t
        val = phi.operator(m, alpha).map_words(lambda p: (p[0], p[1], v))
        if not val.is_zero():
            table[(t, ())] = val
    return HomElement(QM, QN, phi.degree, table, cap)


def q_module(M: AInfModule) -> TensorModule:
    return TensorModule(M, UeBimodule(M.algebra))


def q_action(Q: TensorModule, vec: Vector, chi: UWord) -> Vector:
    """Right multiplication into the adjoint-algebra slot (signless)."""
    U = Q.V.U

    def on(t: TElem) -> Vector:
        m, alpha, v = t
        out = Vector.zero(Q.ring)
        for v2, c in U.normal_form(v + chi).terms.items():
            out.add_term((m, alpha, v2), c)
        return out
    return vec.bind(on)


class _TripleSpace:
    """Just enough of the graded-space interface for the dg-module axioms:
    names and parities of the weight-filtered basis triples."""

    def __init__(self, Q: TensorModule, cap: int):
        self.names = [t for t, wt in Q.basis(cap)]
        self._par = {t: Q.m_parity(t) for t in self.names}

    def parity(self, t: TElem) -> int:
        return self._par[t]


def q_as_ue(Q: TensorModule, cap: int) -> UeModule:
    """The same structure read as a dg-module over the adjoint algebra,
    through the usual dictionary (differential = arity-one part, letter
    action = sign-twisted binary part)."""
    R = Q.ring

    def d_fn(t: TElem) -> Vector:
        return Q.b_apply(t, ())

    def act_fn(t: TElem, lt) -> Vector:
        s = R.from_int(-sign(Q.m_parity(t)))
        return Q.b_apply(t, tuple(lt)).scaled(s)

    return UeModule(Q.V.U, _TripleSpace(Q, cap), d_fn, act_fn)


# ---------------------------------------------------------------------------
# the three natural operators of Q ~ 1


def lambda_operator(Q: TensorModule, m, alpha: Word) -> Vector:
    """(lambda (.) 1^(x)): insert the empty adjoint-algebra word at every
    splitting of the right word."""
    return head_apply(Q.ring, lambda m, a: Vector.basis(Q.ring, (m, a, ())),
                      m, alpha)


def epsilon_operator(Q: TensorModule, EM: UeModule, t: TElem,
                     beta: Word) -> Vector:
    """(epsilon (.) 1^(x)): strict projection to the empty middle word
    followed by the adjoint-algebra action on the module."""
    m, alpha, chi = t
    out = Vector.zero(Q.ring)
    if alpha:
        return out
    for m2, c in EM.act(Vector.basis(Q.ring, m), chi).terms.items():
        out.add_term((m2, beta), c)
    return out


def h_operator(Q: TensorModule, EM: UeModule, t: TElem, beta: Word) -> Vector:
    """The marching homotopy: on elements with empty middle word, carry one
    adjoint-algebra letter at a time into the middle slot, acting the
    earlier letters on the module and tracking the parity of the carried
    element."""
    m, alpha, chi = t
    R = Q.ring
    out = Vector.zero(R)
    if alpha:
        return out
    carried = Vector.basis(R, m)
    prefix_par = Q.M.m_parity(m)
    for i, lt in enumerate(chi):
        s = R.from_int(sign(prefix_par))
        for m2, c in carried.terms.items():
            out.add_term(((m2, tuple(lt), chi[i + 1:]), beta), R.mul(s, c))
        carried = EM.act_letter(carried, lt)
        prefix_par = (prefix_par + EM.U.letter_parity(lt)) % 2
    return out


def _heads(vec: Vector) -> Vector:
    """A vector over head letters as one over pairs (x, ())."""
    return vec.map_words(lambda x: (x, ()))


def check_lambda_closed(Q: TensorModule, cap: int) -> CheckReport:
    """The unit inclusion intertwines the coderivations exactly.

    On (m, alpha) the check compares the components into the empty right
    word: the sum over j of b^Q((m, alpha[:j], 1), alpha[j:]) against
    lambda_0 of B^M(m, alpha).  The packing terms of the two sides cancel
    pairwise whatever the module table, so a PASS checks the sign
    conventions of TensorModule and UeBimodule, not M."""
    rep = CheckReport("lambda-closed", "the unit inclusion is closed", cap)
    M = Q.M
    R = Q.ring
    for m, alpha in module_words(M, cap):
        lhs = Vector.zero(R)
        for j in range(len(alpha) + 1):
            lhs.add_vector(Q.b_apply((m, alpha[:j], ()), alpha[j:]))
        lhs = _heads(lhs)
        rhs = module_coderivation(M, m, alpha).map_words(
            lambda p: ((p[0], p[1], ()), ()))
        if lhs != rhs:
            rep.fail(((m, alpha), rhs, lhs))
            break
    return rep


def check_epsilon_closed(Q: TensorModule, cap: int) -> CheckReport:
    """The counit projection intertwines the coderivations exactly.

    On (t, beta) the check compares the components into the empty right
    word, b^M(epsilon_0(t), beta) against epsilon_0(b^Q(t, beta)), as
    check_lambda_closed does."""
    rep = CheckReport("epsilon-closed", "the counit projection is closed",
                      cap)
    M = Q.M
    R = Q.ring
    EM = module_to_ue(M)
    E = cached(lambda t: epsilon_operator(Q, EM, t, ()))
    with memoized(Q.V.U, "d_letter", "ue_differential"):
        for t, beta in module_words(Q, cap):
            lhs = Vector.zero(R)
            for (n, _), c in E(t).terms.items():
                lhs.add_vector(M.b_apply(n, beta), c)
            lhs = _heads(lhs)
            rhs = Q.b_apply(t, beta).bind(E)
            if lhs != rhs:
                rep.fail(((t, beta), rhs, lhs))
                break
    return rep


def check_triangle(Q: TensorModule, cap: int) -> CheckReport:
    """counit o unit is the identity exactly, not merely up to homotopy."""
    rep = CheckReport("triangle", "counit o unit = 1", cap)
    M = Q.M
    EM = module_to_ue(M)
    for m, alpha in module_words(M, cap):
        got = lambda_operator(Q, m, alpha).bind(
            lambda p: epsilon_operator(Q, EM, p[0], p[1]))
        if got != Vector.basis(Q.ring, (m, alpha)):
            rep.fail(((m, alpha), (m, alpha), got))
            break
    return rep


def reduce_middle(Q: TensorModule, vec: Vector) -> Vector:
    """Kill the words carrying a unit letter in the middle word slot.

    The marching homotopy is defined on normal-form representatives, where
    the packed unit letter has already been collapsed; the price is that H
    is well defined only up to words whose middle slot contains a unit
    letter (such words arise from curvature insertions).  The homotopy
    identity is exact after this reduction and fails without it, precisely
    on unit-carrying words.
    """
    eta = Q.M.algebra.eta
    out = Vector.zero(Q.ring)
    for (t, beta), c in vec.terms.items():
        if eta not in t[1]:
            out.add_term((t, beta), c)
    return out


def check_q_homotopy(Q: TensorModule, cap: int) -> CheckReport:
    """BH + HB = 1 - lambda epsilon on every basis word of weight <= cap
    whose middle slot is unit-free, with unit-carrying middle slots reduced
    away in the output.

    H and epsilon are strict in the right word and lambda is lambda_0 (.) 1,
    so R(BH + HB + lambda epsilon) - 1 is a comodule map over the bar
    coalgebra and is fixed by its component into the empty right word.  On
    (t, beta) that component is

        sum over c t' in h(t) of c b^Q(t', beta) + h(b^Q(t, beta))
            + epsilon_0(t) placed in the lambda slot with beta,

    reduced, against t when beta is empty."""
    rep = CheckReport("q-homotopy", "BH + HB = 1 - lambda epsilon "
                      "on the reduced word space", cap)
    EM = module_to_ue(Q.M)
    R = Q.ring
    eta = Q.M.algebra.eta
    bQ = cached(lambda p: Q.b_apply(p[0], p[1]))
    H = cached(lambda t: h_operator(Q, EM, t, ()))
    E = cached(lambda t: epsilon_operator(Q, EM, t, ()))
    with memoized(Q.V.U, "d_letter", "ue_differential"):
        for t, beta in module_words(Q, cap):
            if eta in t[1]:
                continue
            got = Vector.zero(R)
            for (t2, _), c in H(t).terms.items():
                got.add_vector(bQ((t2, beta)), c)
            got = _heads(got) + bQ((t, beta)).bind(H)
            for (m2, _), c in E(t).terms.items():
                got.add_term(((m2, beta, ()), ()), c)
            got = reduce_middle(Q, got)
            want = Vector.zero(R) if beta else Vector.basis(R, (t, ()))
            if got != want:
                rep.fail(((t, beta), want, got))
                break
    return rep


# ---------------------------------------------------------------------------
# the adjunction transport


def hom_to_dg(Q: TensorModule, N: AInfModule,
              phi: HomElement) -> Callable[[TElem], Vector]:
    """A module morphism M -> N corresponds to the adjoint-algebra-linear
    map Q(M) -> N sending (m, alpha, chi) to phi(m, alpha).chi."""
    EN = module_to_ue(N)

    def g(t: TElem) -> Vector:
        m, alpha, chi = t
        return EN.act(phi.apply(m, alpha), chi)
    return g


def dg_to_hom(Q: TensorModule, N: AInfModule, g: Callable[[TElem], Vector],
              degree: int, cap: int) -> HomElement:
    """Inverse transport: precompose with the unit inclusion."""
    table: Dict[Tuple[Any, Word], Vector] = {}
    for m, alpha in module_words(Q.M, cap):
        val = g((m, alpha, ()))
        if not val.is_zero():
            table[(m, alpha)] = val
    return HomElement(Q.M, N, degree, table, cap)


def check_adjunction_transport(Q: TensorModule, N: AInfModule,
                               phi: HomElement, cap: int) -> CheckReport:
    """The transports roundtrip to the identity and intertwine the hom
    differentials: the transport of [B, phi] is the commutator of the
    dg-module differentials with the transported map."""
    rep = CheckReport("adjunction",
                      "transport roundtrips and intertwines differentials",
                      cap)
    R = Q.ring
    EN = module_to_ue(N)
    g = hom_to_dg(Q, N, phi)
    back = dg_to_hom(Q, N, g, phi.degree, cap)
    mismatches = [key for key in set(back.table) | set(phi.table)
                  if back.apply(*key) != phi.apply(*key)]
    if mismatches:
        key = mismatches[0]
        rep.fail((key, phi.apply(*key), back.apply(*key)))
    gd = hom_to_dg(Q, N, hom_differential(phi, cap))
    s = R.from_int(-sign(phi.degree % 2))
    for t, wt in Q.basis(cap):
        lhs = gd(t)
        rhs = EN.d(g(t)) + Q.b_apply(t, ()).bind(g).scaled(s)
        if lhs != rhs:
            rep.fail((t, rhs, lhs))
            break
    return rep


# ---------------------------------------------------------------------------
# restriction and extension of scalars


def _precompose(f: AInfMorphism, names, family: Callable[[Any, Word], Vector],
                cap: int) -> Dict[Tuple[Any, Word], Vector]:
    """The table of family(m, F(alpha)) over the module generators m and
    the source words alpha up to the cap, F the coalgebra extension of f."""
    table: Dict[Tuple[Any, Word], Vector] = {}
    for m in names:
        for alpha in f.source.words(cap):
            val = f.extended(alpha).bind(lambda w2: family(m, w2))
            if not val.is_zero():
                table[(m, alpha)] = val
    return table


def restrict_scalars(f: AInfMorphism, M2: AInfModule,
                     arity_cap: Optional[int] = None) -> AInfModule:
    """Pull a module back along a morphism of algebras: the new family is
    the old one precomposed with the geometric extension of the morphism,
    built as a table up to the arity cap."""
    if M2.algebra is not f.target:
        raise ValueError("module must live over the morphism target")
    cap = arity_cap if arity_cap is not None else M2.arity_cap
    return AInfModule(f.source, M2.space,
                      _precompose(f, M2.space.names, M2.b_apply, cap), cap)


def restrict_hom(f: AInfMorphism, phi: HomElement, MA: AInfModule,
                 NA: AInfModule, cap: int) -> HomElement:
    """Restriction on morphisms: the same precomposition as on modules.
    Strict morphisms restrict to strict morphisms, since the geometric
    extension of a nonempty word never produces the empty word."""
    return HomElement(MA, NA, phi.degree,
                      _precompose(f, MA.space.names, phi.apply, cap), cap)


def check_restriction_square(f: AInfMorphism, M2: AInfModule,
                             cap: int) -> CheckReport:
    """Coherence of restriction with the adjoint functor: acting a packed
    letter on the restricted module agrees with acting its adjoint-algebra
    image on the original module, and the differentials coincide."""
    rep = CheckReport("restriction-square",
                      "restricted action = action along the adjoint map",
                      cap)
    MR = restrict_scalars(f, M2, max(cap, M2.arity_cap))
    ER, E2 = module_to_ue(MR), module_to_ue(M2)
    F = ue_functor(f, UAlgebra(f.target))
    for m in M2.space.names:
        mv = Vector.basis(M2.ring, m)
        if ER.d(mv) != E2.d(mv):
            rep.fail(((m, "d"), E2.d(mv), ER.d(mv)))
            break
        bad = False
        for lt in ER.U.letters(cap, eta_free=True):
            lhs = ER.act(mv, (lt,))
            rhs = F((lt,)).bind(lambda u: E2.act(mv, u))
            if lhs != rhs:
                rep.fail(((m, lt), rhs, lhs))
                bad = True
                break
        if bad:
            break
    return rep


class FreeUeModule:
    """A dg-module given by a finite free basis over the adjoint algebra of
    a base algebra: generator degrees and a differential with coefficients
    in normal-form words (generator -> {(generator, word): scalar})."""

    def __init__(self, U: UAlgebra, gens: List[Tuple[str, int]],
                 d_table: Dict[str, Dict[Tuple[str, UWord], Any]]):
        self.U = U
        self.ring = U.ring
        self.gens = dict(gens)
        self.d_table = d_table


def ue_functor(f: AInfMorphism, Utgt: UAlgebra) -> Callable[[UWord], Vector]:
    """The induced map of adjoint algebras: on a packed letter it is the
    matching component of the canonical inclusion composed with the
    morphism -- a sum over block decompositions of the letter's word with
    the per-block morphism images concatenated into a single packed letter
    -- extended multiplicatively and reduced to normal form."""
    R = f.source.ring

    def on_letter(lt) -> Vector:
        return f.extended(tuple(lt)).map_words(lambda w: (w,))

    def fn(u: UWord) -> Vector:
        partial = Vector.basis(R, ())
        for lt in u:
            partial = partial.concat(on_letter(lt))
        return partial.bind(Utgt.normal_form)
    return fn


def check_ue_functor(f: AInfMorphism, cap: int) -> CheckReport:
    """The induced map of adjoint algebras preserves the unit, kills the
    unit ideal (the letter omega[eta] goes to 1, and every longer letter
    holding eta goes to 0), matches the curvatures, and commutes with the
    differentials (multiplicativity holds by construction).

    A strictly unital f (``f.check_unit()`` PASSes) kills the unit ideal
    by construction: a block decomposition of a longer letter holding eta
    either has a block of two or more letters holding eta, which f sends
    to 0, or the block (eta), which f sends to eta' inside a longer letter,
    which the normal form kills.  The letters holding eta are then not
    visited."""
    rep = CheckReport("ue-functor",
                      "adjoint-algebra map respects d and curvature", cap)
    Usrc = UAlgebra(f.source)
    Utgt = UAlgebra(f.target)
    F = ue_functor(f, Utgt)
    one = Vector.basis(f.source.ring, ())
    eta = f.source.eta
    if F(()) != one:
        rep.fail((("unit",), "1", F(())))
    if F(((eta,),)) != one:
        rep.fail((("unit-letter",), "1", F(((eta,),))))
    if not f.check_unit().passed:
        for lt in Usrc.letters(cap):
            if eta in lt and lt != (eta,) and not F((lt,)).is_zero():
                rep.fail(((lt, "ideal"), "0", F((lt,))))
                break
    csrc = Usrc.curvature().bind(Usrc.normal_form)
    ctgt = Utgt.curvature().bind(Utgt.normal_form)
    if csrc.bind(F) != ctgt:
        rep.fail((("curvature",), ctgt, csrc.bind(F)))
    for lt in Usrc.letters(cap, eta_free=True):
        lhs = Usrc.ue_differential((lt,)).bind(F)
        rhs = F((lt,)).bind(Utgt.ue_differential)
        if lhs != rhs:
            rep.fail(((lt,), rhs, lhs))
            break
    return rep


def free_differential(M: FreeUeModule, vec: Vector) -> Vector:
    """The differential of a free module on basis elements (generator,
    word), by the right Leibniz rule d(g.u) = dg.u + (-1)^{|g|} g.du."""
    U = M.U
    R = M.ring

    def on(pair) -> Vector:
        g, u = pair
        out = Vector.zero(R)
        for (g2, u2), c in M.d_table.get(g, {}).items():
            for u3, c3 in U.normal_form(u2 + u).terms.items():
                out.add_term((g2, u3), R.mul(c, c3))
        s = R.from_int(sign(M.gens[g] % 2))
        for u2, c in U.ue_differential(u).terms.items():
            out.add_term((g, u2), R.mul(s, c))
        return out
    return vec.bind(on)


def check_free_module(M: FreeUeModule, cap: int) -> CheckReport:
    """Validity of a free presentation: homogeneous differential table and
    d^2 = -(.c) on every basis element of weight <= cap."""
    rep = CheckReport("free-module", "d^2 = -(.c) on a free basis", cap)
    U = M.U
    R = M.ring
    c = U.curvature().bind(U.normal_form)
    for g in M.gens:
        for u in U.uwords(cap, eta_free=True):
            x = Vector.basis(R, (g, u))
            lhs = free_differential(M, free_differential(M, x))
            rhs = c.map_words(lambda u3: (g, u + u3)).scaled(R.from_int(-1))
            if lhs != rhs:
                rep.fail((((g, u),), rhs, lhs))
                break
        if rep.verdict == FAIL:
            break
    return rep


def extend_scalars(f: AInfMorphism, M: FreeUeModule) -> FreeUeModule:
    """Base change of a free module along the adjoint functor: same
    generators, differential coefficients pushed through the induced
    algebra map.  Only free presentations are supported."""
    Utgt = UAlgebra(f.target)
    F = ue_functor(f, Utgt)
    R = f.source.ring
    d_table: Dict[str, Dict[Tuple[str, UWord], Any]] = {}
    for gen, row in M.d_table.items():
        new_row: Dict[Tuple[str, UWord], Any] = {}
        for (g2, u), c in row.items():
            for u2, c2 in F(u).terms.items():
                key = (g2, u2)
                new_row[key] = R.add(new_row.get(key, R.zero), R.mul(c, c2))
        d_table[gen] = {k: v for k, v in new_row.items() if not R.is_zero(v)}
    return FreeUeModule(Utgt, list(M.gens.items()), d_table)
