"""Algebra/module/bimodule structure checkers and the m <-> b dictionary."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit.ainf import (AInfAlgebra, AInfModule, AInfMorphism, HomElement,
                          MultiOp, _structure_check, b_from_m, check_algebra,
                          check_bimodule, check_module,
                          check_module_morphism, check_morphism,
                          check_unit_laws, compose_morphisms,
                          curved_dga_axioms, hom_differential, identity_hom,
                          identity_morphism, invert_morphism_data, m_from_b,
                          module_coderivation, twist_algebra)
from ainfkit.fixtures import (diagonal_bimodule, dga_rank2, dga_two_odd,
                              module_pqab, random_hom_perturbation,
                              random_unital_table, random_unital_twist_data,
                              trivial_algebra, twisted_dga,
                              twisted_identity_morphism)
from ainfkit.graded import GradedSpace, Grading, Vector
from ainfkit.report import CheckReport
from ainfkit.rings import Integers, IntegersMod, Rationals

F7 = IntegersMod(7)
Z = Integers()
Q = Rationals()


def test_trivial_algebra_curved_is_valid():
    A = trivial_algebra(F7, 3)
    assert check_unit_laws(A).passed
    assert check_algebra(A, 4).passed
    assert not A.curvature_letterwise().is_zero()


def test_algebra_checker_fails_on_unit_laws():
    # the zero family satisfies B^2 = 0 but not the unit laws
    space = GradedSpace(F7, Grading(2), [("e", 0), ("u", 1)])
    rep = check_algebra(AInfAlgebra(space, "e", MultiOp(F7, 1, 2)), 3)
    assert not rep.passed
    assert rep.witness == ("unit-laws", None, None)
    assert rep.details["unit_laws"] == "FAIL"
    assert rep.details["paths_agree"]


def test_structure_check_records_disagreeing_paths():
    # B is the identity, so B^2 never vanishes, while the whole-word
    # family is zero: the two paths disagree on the first word
    rep = _structure_check(CheckReport("t", "t", 1), [("a",)],
                           lambda w: Vector.basis(F7, w),
                           lambda w: Vector.zero(F7),
                           CheckReport("units", "units", 1))
    assert not rep.passed
    assert rep.details["paths_agree"] is False
    assert set(rep.details["inconsistency"]) == {"B^2"}


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_dga_rank2_valid_for_all_parameters(w, delta, gamma):
    D = dga_rank2(F7, w, delta, gamma)
    assert curved_dga_axioms(D, 3).passed
    assert check_algebra(D.algebra, 3).passed


def test_dga_two_odd_valid():
    D = dga_two_odd(F7, 5)
    assert curved_dga_axioms(D, 3).passed


def test_dga_axioms_catch_broken_leibniz():
    D = dga_rank2(F7, 1, 2, 3)
    # corrupt the differential after construction
    D.d_table["u"] = Vector.basis(F7, "u", 1)
    rep = curved_dga_axioms(D, 3)
    assert not rep.passed


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mb_dictionary_roundtrip(seed):
    rng = random.Random(seed)
    A = random_unital_table(F7, 3, 3, rng)
    m = m_from_b(A.space, A.b)
    back = b_from_m(A.space, m, A.b.arity_cap)
    assert back.table == A.b.table


def test_mb_dictionary_unit_oracle():
    # m_2(e (x) a) = a = m_2(a (x) e) turns into the two signed unit laws
    D = dga_rank2(F7, 1, 1, 1)
    b = D.algebra.b
    assert b.apply(("e", "u")) == Vector.basis(F7, ("u",))
    # |u| odd: b_2(u, e) = (-1)^{|u|} u = -u
    assert b.apply(("u", "e")) == Vector.basis(F7, ("u",), 6)
    assert b.apply(("e", "e")) == Vector.basis(F7, ("e",))


def test_classical_curvature_sign():
    # curvature gamma.e comes back as b_0(1) = -gamma.eta
    D = dga_rank2(F7, 0, 0, 4)
    assert D.algebra.curvature_letterwise() == Vector.basis(F7, ("e",), 3)


def test_random_tables_mostly_fail_but_paths_agree():
    failed = 0
    for seed in range(12):
        rng = random.Random(seed)
        A = random_unital_table(F7, 3, 3, rng)
        rep = check_algebra(A, 3)
        assert rep.details["paths_agree"], seed
        if not rep.passed:
            failed += 1
            assert rep.witness is not None
    assert failed > 0  # random tables are not all structures


def test_twisted_algebra_is_valid_and_higher():
    rng = random.Random(11)
    base = dga_rank2(F7, 2, 3, 4).algebra
    tw, f = twisted_dga(base, rng, arity_cap=5, f_cap=3)
    assert check_unit_laws(tw).passed
    assert check_algebra(tw, 4).passed
    assert any(len(w) >= 3 for w in tw.b.table), "twist should be higher"
    assert tw.curvature_letterwise() == base.curvature_letterwise()
    assert check_morphism(f, 4).passed


def test_twist_table_is_stable_in_the_cap():
    # a higher cap only adds arities.  At the top arity b_0 lengthens the
    # word, so the inverse data is needed one arity past the cap; random
    # tables put curvature on letters other than the unit, which the
    # higher inverse components do not kill
    for seed in range(1, 4):
        rng = random.Random(seed)
        A = random_unital_table(F7, 3, 3, rng)
        f = random_unital_twist_data(A, rng, 3)
        lower, higher = twist_algebra(A, f, 4), twist_algebra(A, f, 5)
        assert {w: v for w, v in higher.b.table.items()
                if len(w) <= 4} == lower.b.table, seed


def test_invert_morphism_data_roundtrip():
    for ring, seed in ((F7, 5), (F7, 11), (Q, 5), (Q, 11)):
        rng = random.Random(seed)
        base = dga_rank2(ring, 1, 0, 2).algebra
        tw, f = twisted_dga(base, rng, arity_cap=4, f_cap=3)
        g = invert_morphism_data(f, 4)
        gf = compose_morphisms(g, f, arity_cap=4)
        ident = identity_morphism(tw, 4)
        assert gf.f.table == ident.f.table
        # the inverse is computed arity by arity, so a higher cap only adds
        # arities; twist_algebra relies on this
        longer = invert_morphism_data(f, 6)
        assert {w: v for w, v in longer.f.table.items()
                if len(w) <= 4} == g.f.table, (ring, seed)


def test_compose_morphisms_against_direct_check():
    rng = random.Random(7)
    base = dga_rank2(F7, 0, 1, 3).algebra
    tw, f = twisted_dga(base, rng, arity_cap=5, f_cap=2)
    tw2, g = twisted_dga(tw, rng, arity_cap=4, f_cap=2)
    h = compose_morphisms(f, g, arity_cap=3)
    assert check_morphism(h, 3).passed
    assert h.source is tw2 and h.target is base


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 6))
def test_module_family_valid(p, q, a, b):
    D, M = module_pqab(F7, p, q, a, b)
    assert check_module(M, 3).passed


def test_module_checker_catches_broken_action():
    D, M = module_pqab(F7, 1, 2, 3, 4)
    M.table[("x", ("u",))] = Vector.basis(F7, "y", 5)  # wrong coefficient
    rep = check_module(M, 3)
    assert not rep.passed
    assert rep.details["paths_agree"]


def test_constructors_refuse_entries_beyond_their_cap():
    # module_pqab's action entries carry one algebra letter: fine at cap 1,
    # refused at cap 0 (as MultiOp.set refuses an arity beyond its cap)
    D, M = module_pqab(F7, 1, 2, 3, 4)
    assert AInfModule(M.algebra, M.space, M.table, 1).table == M.table
    beyond = r"entry word \('[eu]',\) has 1 letters, beyond cap 0"
    with pytest.raises(ValueError, match=beyond):
        AInfModule(M.algebra, M.space, M.table, 0)
    with pytest.raises(ValueError, match=beyond):
        HomElement(M, M, 1, M.table, 0)


def test_module_coderivation_squares_to_zero():
    D, M = module_pqab(F7, 2, 3, 1, 5)
    for m in M.space.names:
        for alpha in M.algebra.words(3):
            out = module_coderivation(M, m, alpha).bind(
                lambda mw: module_coderivation(M, *mw))
            assert out.is_zero(), (m, alpha)


def test_hom_differential_squares_to_zero():
    rng = random.Random(3)
    D, M = module_pqab(F7, 2, 1, 4, 3)
    xi = random_hom_perturbation(M, rng, 3)
    ddxi = hom_differential(hom_differential(xi, 3), 3)
    assert not ddxi.table, ddxi.table


def test_twisted_identity_is_closed_morphism():
    rng = random.Random(9)
    D, M = module_pqab(F7, 1, 3, 2, 6)
    phi = twisted_identity_morphism(M, rng, 3)
    assert check_module_morphism(phi, 2).passed
    assert phi.apply("x", ()) == Vector.basis(F7, "x")
    assert any(k[1] for k in phi.table), "expected higher components"


def test_diagonal_bimodule_valid():
    D = dga_rank2(F7, 2, 5, 3)
    V = diagonal_bimodule(D)
    rep = check_bimodule(V, 2)
    assert rep.passed, rep


def test_diagonal_bimodule_mutation_detected():
    D = dga_rank2(F7, 2, 5, 3)
    V = diagonal_bimodule(D)
    V.table[(("u",), "x", ())] = Vector.basis(F7, "y", 1)
    # nonsense entry on a generator that is not even in the space
    rep = check_bimodule(D and diagonal_bimodule(D), 2)
    assert rep.passed  # fresh copy unaffected
    V2 = diagonal_bimodule(D)
    V2.table[(("u",), "u", ())] = Vector.basis(F7, "e", 1)  # u.u = e wrong
    rep = check_bimodule(V2, 2)
    assert not rep.passed and rep.details["paths_agree"]


def test_check_algebra_on_integer_coefficients():
    D = dga_rank2(Z, 2, -1, 3)
    assert check_algebra(D.algebra, 3).passed
