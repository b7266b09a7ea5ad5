"""Module functors: bimodule, tensoring, Q ~ 1, adjunction, scalars."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import qmod
from ainfkit.adjoint import UAlgebra, dg_module_axioms, module_to_ue
from ainfkit.ainf import (AInfMorphism, check_bimodule, check_module,
                          compose_morphisms,
                          hom_differential, identity_hom, identity_morphism,
                          HomElement, module_coderivation)
from ainfkit.fixtures import (dga_rank2, module_pqab, random_hom_perturbation,
                              trivial_algebra, twisted_dga,
                              twisted_identity_morphism)
from ainfkit.graded import MultiOp, Vector
from ainfkit.homotopy import homotopy_to_derivation
from ainfkit.qmod import (FreeUeModule, TensorModule, UeBimodule,
                          check_adjunction_transport, check_epsilon_closed,
                          check_free_module, check_lambda_closed,
                          check_q_homotopy, check_restriction_square,
                          check_triangle, check_ue_functor, epsilon_operator,
                          extend_scalars, free_differential, h_operator,
                          hom_to_dg, lambda_operator, q_action, q_as_ue,
                          q_module, restrict_hom, restrict_scalars,
                          tensor_hom, ue_functor)
from ainfkit.report import FAIL, PASS, CheckReport
from ainfkit.rings import IntegersMod

from test_homotopy import homotopic_pair
from test_q_head_components import assert_parity_refused
from test_word_cache import module_cases

F7 = IntegersMod(7)


def _pq():
    return module_pqab(F7, 2, 3, 1, 5)


# ---------------------------------------------------------------------------
# the adjoint algebra as a bimodule


def test_ue_bimodule_structure():
    D, M = _pq()
    assert check_bimodule(UeBimodule(D.algebra), 3).passed


def test_ue_bimodule_twisted_base():
    rng = random.Random(2)
    tw, _ = twisted_dga(dga_rank2(F7, 1, 2, 3).algebra, rng, 6, 3)
    assert check_bimodule(UeBimodule(tw), 3).passed


class FlippedRightSign(UeBimodule):
    """A mutant that negates the right packing, dropping its Koszul sign."""

    def b_apply(self, aword, chi, a2word):
        out = super().b_apply(aword, chi, a2word)
        return -out if a2word and not aword else out


def test_ue_bimodule_sign_mutation_detected():
    D, M = _pq()
    assert not check_bimodule(FlippedRightSign(D.algebra), 3).passed


def test_lambda_closed_detects_a_flipped_right_packing():
    # the packing terms of the two sides cancel whatever the module table,
    # so the check tests the sign conventions of the packings
    M = module_cases(1)[0]
    assert check_lambda_closed(q_module(M), 3).passed
    rep = check_lambda_closed(TensorModule(M, FlippedRightSign(M.algebra)),
                              3)
    assert rep.verdict == "FAIL" and rep.witness[0] == ("x", ("e",))


def test_ue_bimodule_packing_oracle():
    # the left packing prepends a single letter with coefficient one
    D, M = _pq()
    V = UeBimodule(D.algebra)
    chi = (("u",),)
    assert V.b_apply(("u", "u"), chi, ()) == \
        Vector.basis(F7, (("u", "u"), ("u",)))
    # a unit inside the packed word lands in the ideal
    assert V.b_apply(("u", "e"), chi, ()).is_zero()
    # the right packing carries -(-1)^{|chi|}; the letter omega[sigma u]
    # is odd (degree |u| + 1), so the sign here is plus
    assert V.v_parity(chi) == 1
    assert V.b_apply((), chi, ("u",)) == \
        Vector.basis(F7, (("u",), ("u",)))
    # against an even word the sign flips
    chi2 = (("u",), ("u",))
    assert V.v_parity(chi2) == 0
    assert V.b_apply((), chi2, ("u",)) == \
        Vector.basis(F7, (("u",), ("u",), ("u",)), 6)


# ---------------------------------------------------------------------------
# tensoring and the Q-module


def test_q_module_is_a_module():
    D, M = _pq()
    assert check_module(q_module(M), 3).passed


def test_q_module_of_restricted_module():
    # restriction along a twist produces a genuinely higher module; its Q
    # still satisfies every axiom
    D, M = _pq()
    rng = random.Random(9)
    tw, f = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    MR = restrict_scalars(f, M, 4)
    assert check_module(MR, 3).passed
    assert check_module(q_module(MR), 3).passed


def test_q_module_dg_reading_agrees():
    D, M = _pq()
    Q = q_module(M)
    cap = 2
    E = q_as_ue(Q, cap)
    assert dg_module_axioms(E, cap).passed
    # the sign-twisted binary part is plain concatenation on the right slot
    for t in E.space.names:
        mv = Vector.basis(F7, t)
        for lt in E.U.letters(cap, eta_free=True):
            assert E.act(mv, (lt,)) == q_action(Q, mv, (lt,))


def test_tensor_against_diagonal_bimodule():
    from ainfkit.fixtures import diagonal_bimodule
    D, M = _pq()
    assert check_module(TensorModule(M, diagonal_bimodule(D)), 3).passed


def test_tensor_hom_identity():
    D, M = _pq()
    Q = q_module(M)
    t1 = tensor_hom(Q, Q, identity_hom(M, 3), 3)
    ih = identity_hom(Q, 3)
    for key in set(t1.table) | set(ih.table):
        assert t1.apply(*key) == ih.apply(*key)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_tensor_hom_differential_compatibility(seed):
    # tensoring commutes with the hom differential; the image table must be
    # built one weight past the comparison cap because curvature insertions
    # raise the letter count by one
    D, M = _pq()
    Q = q_module(M)
    xi = random_hom_perturbation(M, random.Random(seed), 3)
    lhs = tensor_hom(Q, Q, hom_differential(xi, 4), 4)
    rhs = hom_differential(tensor_hom(Q, Q, xi, 5), 4)
    for t, wt in Q.basis(3):
        for beta in Q.algebra.words(3 - wt):
            assert lhs.apply(t, beta) == rhs.apply(t, beta), (seed, t, beta)


# ---------------------------------------------------------------------------
# the three pillars of Q ~ 1


def test_unit_counit_pillars():
    D, M = _pq()
    Q = q_module(M)
    assert check_lambda_closed(Q, 3).passed
    assert check_epsilon_closed(Q, 3).passed
    assert check_triangle(Q, 3).passed


def test_lambda_on_bare_element():
    D, M = _pq()
    Q = q_module(M)
    assert lambda_operator(Q, "x", ()).terms == {(("x", (), ()), ()): 1}


def test_epsilon_multiplies_the_packed_word():
    D, M = _pq()
    Q = q_module(M)
    EM = module_to_ue(M)
    got = epsilon_operator(Q, EM, ("x", (), (("u",),)), ("u",))
    # x . omega[sigma u] = p y = 2 y, the right word rides along
    assert got == Vector.basis(F7, ("y", ("u",)), 2)
    # nonempty middle slot projects to zero
    assert epsilon_operator(Q, EM, ("x", ("u",), ()), ()).is_zero()


def test_homotopy_marching_oracle():
    # H unpacks the leading letter, acts it on the module, and marches on
    D, M = _pq()
    Q = q_module(M)
    EM = module_to_ue(M)
    got = h_operator(Q, EM, ("x", (), (("u",), ("u",))), ())
    want = Vector.basis(F7, (("x", ("u",), (("u",),)), ()))
    # second step: x.omega[sigma u] = 2y and the marched letter is odd, so
    # the sign (-1)^{|x| + |x_1|} is minus
    want.add_term((("y", ("u",), ()), ()), F7.from_int(-2))
    assert got == want


def test_homotopy_identity():
    D, M = _pq()
    assert check_q_homotopy(q_module(M), 3).passed


def test_homotopy_identity_more_fixtures():
    for (p, q, a, b) in [(1, 1, 0, 0), (0, 5, 2, 6), (3, 3, 3, 3)]:
        D, M = module_pqab(F7, p, q, a, b)
        assert check_q_homotopy(q_module(M), 3).passed, (p, q, a, b)


def test_homotopy_identity_twisted_restriction():
    D, M = _pq()
    rng = random.Random(11)
    tw, f = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    MR = restrict_scalars(f, M, 4)
    Q = q_module(MR)
    assert check_q_homotopy(Q, 3).passed
    assert check_triangle(Q, 2).passed
    assert check_lambda_closed(Q, 2).passed
    assert check_epsilon_closed(Q, 2).passed


def test_homotopy_vanishes_on_the_unit_word():
    # on m (.) 1 (.) 1 (.) 1 the unit-counit composite is already the
    # identity, so the boundary of H contributes nothing
    D, M = _pq()
    Q = q_module(M)
    EM = module_to_ue(M)
    for m in ("x", "y"):
        t = (m, (), ())
        bh = h_operator(Q, EM, t, ()).bind(
            lambda p: module_coderivation(Q, p[0], p[1]))
        hb = module_coderivation(Q, t, ()).bind(
            lambda p: h_operator(Q, EM, p[0], p[1]))
        assert (bh + hb).is_zero()


def test_homotopy_weight_bookkeeping():
    # the i-th marching term absorbs the first i-1 letters into the module,
    # moves the i-th letter's word into the left slot, and keeps the tail:
    # the letter count strictly drops, the right word never changes, and no
    # output weight exceeds the input weight
    D, M = _pq()
    Q = q_module(M)
    EM = module_to_ue(M)
    U = EM.U
    for t, wt in Q.basis(3):
        for beta in Q.algebra.words(3 - wt):
            for (t2, b2), _ in h_operator(Q, EM, t, beta).terms.items():
                assert b2 == beta
                assert len(t2[2]) < len(t[2])
                assert t[2][-len(t2[2]):] == t2[2] if t2[2] else True
                got = len(t2[1]) + U.uword_weight(t2[2])
                assert got <= len(t[1]) + U.uword_weight(t[2])


def test_q_checks_take_no_whole_word_path(monkeypatch):
    # the Q ~ 1 checks compare head components: B^Q is never applied to a
    # whole word; a wrong-parity table, on which the head component would
    # not decide the identity, is refused when the module is built
    whole = [0]
    coderivation = qmod.module_coderivation

    def counting_coderivation(M, *args):
        whole[0] += isinstance(M, TensorModule)
        return coderivation(M, *args)

    monkeypatch.setattr(qmod, "module_coderivation", counting_coderivation)
    verdicts = set()
    for seed in range(4, 8):
        for N in module_cases(seed):
            Q = q_module(N)
            for check in (check_q_homotopy, check_lambda_closed,
                          check_epsilon_closed):
                verdicts.add(check(Q, 3).verdict)
        assert_parity_refused(module_cases(seed)[0], random.Random(seed))
    assert verdicts == {"PASS", "FAIL"}
    assert whole[0] == 0


# ---------------------------------------------------------------------------
# the adjunction


def test_identity_transports_to_the_counit():
    D, M = _pq()
    Q = q_module(M)
    EM = module_to_ue(M)
    g = hom_to_dg(Q, M, identity_hom(M, 3))
    for t, wt in Q.basis(3):
        want = epsilon_operator(Q, EM, t, ())
        assert g(t) == Vector(F7, {m: c for (m, b), c in want.terms.items()})


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_adjunction_transport_random(seed):
    D, M = _pq()
    Q = q_module(M)
    rng = random.Random(seed)
    xi = random_hom_perturbation(M, rng, 3)
    assert check_adjunction_transport(Q, M, xi, 3).passed
    phi = twisted_identity_morphism(M, rng, 3)
    assert check_adjunction_transport(Q, M, phi, 3).passed


# ---------------------------------------------------------------------------
# restriction of scalars


def test_restriction_identity():
    D, M = _pq()
    Rid = restrict_scalars(identity_morphism(D.algebra, 4), M)
    assert Rid.table == M.table


def test_restriction_functorial():
    D, M = _pq()
    rng = random.Random(4)
    tw1, f1 = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    tw2, f2 = twisted_dga(tw1, rng, arity_cap=6, f_cap=2)
    comp = compose_morphisms(f1, f2, 4)
    lhs = restrict_scalars(comp, M, 4)
    rhs = restrict_scalars(f2, restrict_scalars(f1, M, 4), 4)
    words = [w for w in tw2.words(3)]
    for m in M.space.names:
        for w in words:
            assert lhs.b_apply(m, w) == rhs.b_apply(m, w), (m, w)


def test_restriction_square():
    D, M = _pq()
    rng = random.Random(9)
    tw, f = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    assert check_restriction_square(f, M, 3).passed


def test_restriction_on_morphisms():
    # a strict closed morphism restricts to a strict closed morphism
    from ainfkit.ainf import check_module_morphism
    D, M = _pq()
    rng = random.Random(6)
    tw, f = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    MR = restrict_scalars(f, M, 4)
    phi = HomElement(M, M, 0,
                     {(m, ()): Vector.basis(F7, m, 4) for m in ("x", "y")}, 3)
    assert check_module_morphism(phi, 3).passed
    phir = restrict_hom(f, phi, MR, MR, 3)
    assert all(len(k[1]) == 0 for k in phir.table)  # strictness preserved
    assert check_module_morphism(phir, 3).passed


# ---------------------------------------------------------------------------
# the adjoint functor and extension of scalars


def test_ue_functor_identity_and_twist():
    D, M = _pq()
    assert check_ue_functor(identity_morphism(D.algebra, 4), 3).passed
    rng = random.Random(9)
    tw, f = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    assert check_ue_functor(f, 3).passed


def test_ue_functor_refuses_broken_unit_laws():
    # f_1(eta) = 2 eta sends omega[eta] to 2; f_2(eta, u) = u sends the
    # ideal letter omega[eta u] to omega[u]
    A = dga_rank2(F7, 2, 3, 0).algebra
    scaled, inserted = identity_morphism(A, 4), identity_morphism(A, 4)
    scaled.f.set(("e",), Vector.basis(F7, ("e",), 2))
    inserted.f.set(("e", "u"), Vector.basis(F7, ("u",)))
    zero = MultiOp(F7, -1, 4)
    cases = ((scaled, ("unit-letter",)), (inserted, (("e", "u"), "ideal")))
    for f, where in cases:
        rep = check_ue_functor(f, 3)
        assert rep.verdict == "FAIL" and rep.witness[0] == where
        _, drep = homotopy_to_derivation(f, f, zero, 3)
        assert drep.verdict == "FAIL"
        assert drep.witness[0] == "functor-precondition"


def test_ue_functor_skips_the_unit_ideal_only_for_unital_maps(monkeypatch):
    # a strictly unital f kills the unit ideal by construction, so the
    # letters holding eta are visited only when f.check_unit() FAILs; the
    # reports are the same with the skip and without it
    f, g, _ = homotopic_pair()
    broken = AInfMorphism(f.source, f.target,
                          MultiOp(F7, 0, 4, dict(f.f.table)))
    broken.f.set(("x", "e"), Vector.basis(F7, ("t",)))
    extended = AInfMorphism.extended
    calls = [0]

    def counting(self, w):
        calls[0] += 1
        return extended(self, w)

    monkeypatch.setattr(AInfMorphism, "extended", counting)
    runs = []
    for skip in (True, False):
        if not skip:
            monkeypatch.setattr(
                AInfMorphism, "check_unit",
                lambda self: CheckReport("morphism-unit", "", None, FAIL))
        calls[0] = 0
        reports = [check_ue_functor(h, 4).to_dict() for h in (f, g, broken)]
        runs.append((reports, calls[0]))
    (with_skip, fewer), (without, more) = runs
    assert with_skip == without
    assert [r["verdict"] for r in with_skip] == [PASS, PASS, FAIL]
    assert with_skip[2]["witness"].startswith("((('x', 'e'), 'ideal')")
    assert fewer < more


def test_ue_functor_identity_is_identity():
    D, M = _pq()
    U = UAlgebra(D.algebra)
    F = ue_functor(identity_morphism(D.algebra, 4), U)
    for u in U.uwords(3, eta_free=True):
        assert F(u) == Vector.basis(F7, u)


def test_free_matrix_factorization():
    # over the rank-one algebra with curvature W, a valid free module is a
    # matrix factorization of -W
    W = 3
    U = UAlgebra(trivial_algebra(F7, W))
    a = 2
    b = F7.mul(F7.inv(a), F7.neg(W))
    MF = FreeUeModule(U, [("x", 0), ("y", 1)],
                      {"x": {("y", ()): a}, "y": {("x", ()): b}})
    assert check_free_module(MF, 2).passed
    bad = FreeUeModule(U, [("x", 0), ("y", 1)],
                       {"x": {("y", ()): a}, "y": {("x", ()): 1}})
    assert not check_free_module(bad, 2).passed


def test_free_differential_leibniz_readout():
    D, M = _pq()
    U = UAlgebra(D.algebra)
    cone = FreeUeModule(U, [("x", 1), ("y", 0)], {"x": {("y", ()): 1}})
    # d(x . omega[sigma u]) = y . omega[sigma u] - x . d(omega[sigma u])
    got = free_differential(cone, Vector.basis(F7, ("x", (("u",),))))
    want = Vector.basis(F7, ("y", (("u",),)))
    for u2, c in U.ue_differential((("u",),)).terms.items():
        want.add_term(("x", u2), F7.neg(c))
    assert got == want


def test_extension_identity():
    U = UAlgebra(trivial_algebra(F7, 3))
    MF = FreeUeModule(U, [("x", 0), ("y", 1)],
                      {"x": {("y", ()): 2}, "y": {("x", ()): 2}})
    E = extend_scalars(identity_morphism(U.base, 4), MF)
    assert E.d_table == MF.d_table and E.gens == MF.gens


def test_extension_preserves_validity():
    base = dga_rank2(F7, 1, 2, 0).algebra
    rng = random.Random(5)
    tw, f = twisted_dga(base, rng, arity_cap=6, f_cap=3)
    Usrc = UAlgebra(tw)
    cone = FreeUeModule(Usrc, [("x", 1), ("y", 0)],
                        {"x": {("y", ()): 1, ("y", (("u",), ("u",))): 3}})
    if not check_free_module(cone, 2).passed:
        cone = FreeUeModule(Usrc, [("x", 1), ("y", 0)],
                            {"x": {("y", ()): 1}})
        assert check_free_module(cone, 2).passed
    ext = extend_scalars(f, cone)
    assert check_free_module(ext, 2).passed
    # the unit of the adjunction is the adjoint map on coefficients
    F = ue_functor(f, UAlgebra(f.target))
    for g, row in cone.d_table.items():
        want = {}
        for (g2, u), c in row.items():
            for u2, c2 in F(u).terms.items():
                key = (g2, u2)
                want[key] = F7.add(want.get(key, 0), F7.mul(c, c2))
        want = {k: v for k, v in want.items() if v}
        assert ext.d_table[g] == want
