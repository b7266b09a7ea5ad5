"""The letter-component checks against their whole-word references.

check_morphism, check_inclusion_morphism, check_ainf_homotopy and the
inclusion square of quillen_classical_components compare, on each word, the
one-letter component of a coderivation or a coalgebra map; homotopy_to_
derivation checks its commutator on letters.  The functions below keep the
whole-word comparisons they replaced.  The seeded test runs both forms on
random twisted dgas and on one-term mutants and asserts the same verdict,
the same first failing word and the same lhs - rhs there.
"""

import random

from ainfkit.adjoint import (UAlgebra, check_inclusion_morphism,
                             inclusion_extended, ue_b, ue_shift_parity)
from ainfkit.ainf import (AInfAlgebra, AInfMorphism, CurvedDga,
                          check_morphism)
from ainfkit.fixtures import (dga_rank2, dga_two_odd, random_scalar,
                              twisted_dga)
from ainfkit.graded import (GradedSpace, Grading, MultiOp, Vector,
                            insert_blocks, sign)
from ainfkit.homotopy import (AInfHomotopy, IntervalCoalgebra,
                              check_ainf_homotopy, homotopy_to_derivation,
                              quillen_classical_components)
from ainfkit.qmod import ue_functor
from ainfkit.report import FAIL, PASS, CheckReport
from ainfkit.rings import IntegersMod, Rationals


# ---------------------------------------------------------------------------
# the whole-word references


def reference_morphism(f, cap):
    """B'F = FB on whole words, plus the unit laws."""
    rep = CheckReport("morphism", "B'F = FB", cap)
    rep.details["unit_laws"] = f.check_unit().verdict
    if rep.details["unit_laws"] != PASS:
        rep.fail(("unit-laws", None, None))
    for w in f.source.words(cap):
        lhs = f.extended(w).bind(f.target.B)
        rhs = f.source.B(w).bind(f.extended)
        if lhs != rhs:
            rep.fail((w, rhs, lhs))
            break
    return rep


def reference_ue_coderivation(U, word):
    """1^(x) (x) ue_b (x) 1^(x) on a word of shifted uwords."""
    return insert_blocks(
        U.ring, word, lambda u: ue_shift_parity(U, u), True, 2,
        lambda block: ue_b(U, block).map_words(lambda u: (u,)))


def reference_inclusion(U, cap):
    """B' o incl = incl o B on whole words."""
    rep = CheckReport("ue-inclusion",
                      "B' o incl = incl o B on the shifted side", cap)
    for w in U.base.words(cap):
        lhs = U.base.B(w).bind(lambda w2: inclusion_extended(U, w2))
        rhs = inclusion_extended(U, w).bind(
            lambda uw: reference_ue_coderivation(U, uw))
        if lhs != rhs:
            rep.fail((w, lhs, rhs))
            break
    return rep


def reference_homotopy(f, g, h, cap):
    """The interval-assembled map commutes with the codifferentials on
    whole words of the connecting generator."""
    rep = CheckReport("ainf-homotopy",
                      "the interval-assembled coalgebra morphism "
                      "commutes with the codifferentials", cap)
    rep.details["f_morphism"] = reference_morphism(f, cap).verdict
    rep.details["g_morphism"] = reference_morphism(g, cap).verdict
    if FAIL in (rep.details["f_morphism"], rep.details["g_morphism"]):
        return rep.fail(("morphism-precondition", PASS, rep.details))
    H = AInfHomotopy(f, g, h)
    I = IntervalCoalgebra(f.ring)
    s = f.ring.from_int(sign(I.parity("I")))
    assembled = {"p": f.extended, "q": g.extended, "I": H.extended}
    for w in f.source.words(cap):
        lhs = H.extended(w).bind(f.target.B)
        rhs = I.boundary("I").bind(lambda gen: assembled[gen](w))
        rhs = rhs + f.source.B(w).bind(H.extended).scaled(s)
        if lhs != rhs:
            return rep.fail((("I", w), rhs, lhs))
    return rep


def reference_square(f, cap):
    """The witness of the first word where incl' F and U(f) incl differ as
    whole words, or None."""
    Usrc, Utgt = UAlgebra(f.source), UAlgebra(f.target)
    push = ue_functor(f, Utgt)

    def push_word(wu):
        out = Vector.basis(f.ring, ())
        for u in wu:
            out = out.concat(push(u).map_words(lambda u2: (u2,)))
        return out

    for w in f.source.words(cap):
        lhs = f.extended(w).bind(lambda w2: inclusion_extended(Utgt, w2))
        rhs = inclusion_extended(Usrc, w).bind(push_word)
        if lhs != rhs:
            return (("square", w), rhs, lhs)
    return None


def reference_derivation(f, g, h, cap):
    """[d, D] = U(f) - U(g) on every eta-free uword, then the twisted
    Leibniz rule on every pair of them; the verdict only."""
    D, _ = homotopy_to_derivation(f, g, h, cap)
    Usrc, Utgt = UAlgebra(f.source), UAlgebra(f.target)
    F, G = ue_functor(f, Utgt), ue_functor(g, Utgt)
    R = f.ring
    for u in Usrc.uwords(cap, eta_free=True):
        lhs = Usrc.ue_differential(u).bind(D) \
            + D(u).bind(Utgt.ue_differential)
        if lhs != F(u) - G(u):
            return FAIL
    for u in Usrc.uwords(cap, eta_free=True):
        su = R.from_int(sign(Usrc.uword_parity(u)))
        for v in Usrc.uwords(cap - Usrc.uword_weight(u), eta_free=True):
            if D(u + v) != D(u).concat(G(v)) + F(u).concat(D(v)).scaled(su):
                return FAIL
    return PASS


# ---------------------------------------------------------------------------
# random data


def chain_dga(R, delta, gamma):
    """e, t even and s odd, dt = delta.s, curvature gamma.e, every product
    of two non-unit generators zero: the even t gives the homotopy family
    non-unit values."""
    space = GradedSpace(R, Grading(2), [("e", 0), ("t", 0), ("s", 1)])
    prod = {(x, y): Vector.zero(R) for x in "ts" for y in "ts"}
    for x in "ets":
        prod[("e", x)] = prod[(x, "e")] = Vector.basis(R, x)
    curvature = Vector.basis(R, "e", gamma) if gamma else Vector.zero(R)
    return CurvedDga(space, "e", curvature,
                     {"t": Vector.basis(R, "s", delta)}, prod)


def twisted(R, rng, curved):
    """A random twisted dga and the twisting morphism into its base."""
    gamma = random_scalar(R, rng, True) if curved else 0
    pick = rng.randrange(3)
    if pick == 0:
        base = dga_rank2(R, random_scalar(R, rng), random_scalar(R, rng),
                         gamma)
    elif pick == 1:
        base = dga_two_odd(R, gamma)
    else:
        base = chain_dga(R, random_scalar(R, rng, True), gamma)
    return twisted_dga(base.algebra, rng, 4, 3)


def random_family(A, T, degree, arity, rng):
    """A random family of the given degree on the eta-free words of A."""
    out = MultiOp(A.ring, degree, arity)
    for w in A.shift.words(arity, min_len=1):
        if A.eta in w or rng.random() < 0.4:
            continue
        want = A.shift.word_degree(w) + degree
        for y in T.shift.names:
            if A.grading.equal(T.shift.degree(y), want):
                out.set(w, out.apply(w) + Vector.basis(
                    A.ring, (y,), random_scalar(A.ring, rng)))
    return out


def one_term_mutant(op, A, T, rng, eta_free=False):
    """op plus one term of its degree at a random word of A (one without
    the unit letter if ``eta_free``)."""
    words = [w for w in A.shift.words(op.arity_cap, min_len=1)
             if not (eta_free and A.eta in w)]
    while True:
        w = rng.choice(words)
        want = A.shift.word_degree(w) + op.degree
        ys = [y for y in T.shift.names
              if A.grading.equal(T.shift.degree(y), want)]
        if ys:
            break
    out = MultiOp(op.ring, op.degree, op.arity_cap, dict(op.table))
    out.set(w, op.apply(w) + Vector.basis(
        op.ring, (rng.choice(ys),), random_scalar(op.ring, rng, True)))
    return out


def homotopic_morphism(f, h, arity):
    """The g with b'(H(w)) = f(w) - g(w) - h(B(w)) on words up to the
    arity, solved shortest word first: H(w) reads g on proper suffixes only."""
    A, T = f.source, f.target
    gop = MultiOp(A.ring, 0, arity)
    g = AInfMorphism(A, T, gop)
    H = AInfHomotopy(f, g, h)
    for w in A.words(arity, min_len=1):
        gop.set(w, f.f.apply(w) - A.B(w).bind(h.apply)
                - H.extended(w).bind(T.b.apply))
    return g


# ---------------------------------------------------------------------------
# the comparison


def same_outcome(new, old, wrap=lambda v: v):
    """Same verdict; on a failure, the same witness word and the same
    difference of its two vectors (new ones read through ``wrap``)."""
    assert new.verdict == old.verdict, (new.witness, old.witness)
    if new.passed:
        return
    assert new.witness[0] == old.witness[0], (new.witness, old.witness)
    if isinstance(new.witness[1], Vector):
        assert wrap(new.witness[2] - new.witness[1]) \
            == old.witness[2] - old.witness[1], new.witness[0]
    else:
        assert new.witness == old.witness


def packed(v):
    return v.map_words(lambda u: (u,))


def test_letter_components_match_the_whole_word_references():
    seen = {}
    for seed in range(12):
        rng = random.Random(seed)
        R = IntegersMod(7) if seed % 2 else Rationals()
        curved = seed % 3 != 0
        cap = 3 + seed % 2
        tw, f = twisted(R, rng, curved)
        base = f.target
        h = random_family(tw, base, -1, 2, rng)
        if not tw.curvature_letterwise().bind(h.apply).is_zero():
            h = MultiOp(R, -1, 2)
        g = homotopic_morphism(f, h, cap + 1)
        fs = [f] + [AInfMorphism(tw, base, one_term_mutant(f.f, tw, base, rng,
                                                           eta_free))
                    for eta_free in (True, False)]
        for fm in fs:
            rep = check_morphism(fm, cap)
            same_outcome(rep, reference_morphism(fm, cap))
            seen.setdefault("morphism", set()).add(rep.verdict)
        bad_b = one_term_mutant(tw.b, tw, tw, rng)
        for U in (UAlgebra(tw), UAlgebra(tw, full_delta=True),
                  UAlgebra(AInfAlgebra(tw.space, tw.unit, bad_b))):
            rep = check_inclusion_morphism(U, cap)
            same_outcome(rep, reference_inclusion(U, cap), packed)
            seen.setdefault("inclusion", set()).add(rep.verdict)
        bad_h = one_term_mutant(h, tw, base, rng, True)
        bad_g = AInfMorphism(tw, base, one_term_mutant(g.f, tw, base, rng,
                                                        True))
        for args in ((f, g, h), (f, g, bad_h), (f, bad_g, h), (f, f, h)):
            rep = check_ainf_homotopy(*args, cap)
            same_outcome(rep, reference_homotopy(*args, cap))
            seen.setdefault("homotopy", set()).add(rep.verdict)
        if not curved:
            for fm in fs:
                rep = quillen_classical_components(fm, 3)
                if rep.details["inclusion_square"] == PASS:
                    assert reference_square(fm, 3) is None
                else:
                    want = reference_square(fm, 3)
                    assert rep.witness[0] == want[0]
                    assert packed(rep.witness[2] - rep.witness[1]) \
                        == want[2] - want[1]
                seen.setdefault("square", set()).add(
                    rep.details["inclusion_square"])
        for args in ((f, g, h), (f, g, bad_h), (f, bad_g, h)):
            rep = homotopy_to_derivation(*args, cap - 1)[1]
            assert rep.verdict == reference_derivation(*args, cap - 1), seed
            seen.setdefault("derivation", set()).add(rep.verdict)
    # every check met both verdicts, so neither form agrees vacuously
    assert all(v == {PASS, FAIL} for v in seen.values()), seen
