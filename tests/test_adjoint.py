"""Adjoint algebra: differential, curvature identity, ideal, identification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit.adjoint import (UAlgebra, check_ideal_stability,
                             check_inclusion_morphism, check_u_curvature,
                             check_strict_morphism_transport,
                             dg_module_axioms, module_to_ue, ue_to_module,
                             universality_transport)
from ainfkit.ainf import identity_morphism
from ainfkit.fixtures import dga_rank2, module_pqab, twisted_dga
from ainfkit.graded import Vector
from ainfkit.rings import IntegersMod

F7 = IntegersMod(7)


def test_differential_of_unit_words():
    U = UAlgebra(dga_rank2(F7, 2, 3, 4).algebra)
    assert U.differential(()).is_zero()
    # d omega[eta] lands in the ideal: every term keeps an eta letter
    assert U.differential((("e",),)).bind(U.normal_form).is_zero()


def test_differential_single_letter_oracle():
    # du = 3e, curvature 4e: the letter omega[sigma u] maps to
    # 3 omega[sigma e] + 4 omega[sigma e (x) sigma u] + 4 omega[sigma u (x) sigma e]
    U = UAlgebra(dga_rank2(F7, 0, 3, 4).algebra)
    got = U.differential(((("u",),)))
    assert got.terms == {((("e",)),): 3, (("e", "u"),): 4, (("u", "e"),): 4}


def test_differential_splits_two_letter_words():
    # pure product algebra: u^2 = 2e, no differential, no curvature
    D = dga_rank2(F7, 2, 0, 0)
    assert D.algebra.b.apply(("u", "u")) == Vector.basis(F7, ("e",), 5)
    U = UAlgebra(D.algebra)
    got = U.differential(((("u", "u"),)))
    # -omega[b_2(u,u)] gives +2 on the letter (e), the reduced split -1
    assert got.terms == {((("e",)),): 2, (("u",), ("u",)): 6}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_differential_is_a_derivation(seed):
    rng = random.Random(seed)
    base = dga_rank2(F7, 2, 1, 3).algebra
    tw, _ = twisted_dga(base, rng, arity_cap=6, f_cap=3)
    U = UAlgebra(tw)
    words = [u for u in U.uwords(2)]
    for _ in range(12):
        u = rng.choice(words)
        v = rng.choice(words)
        lhs = U.differential(u + v)
        s = F7.from_int((-1) ** U.uword_parity(u))
        rhs = U.differential(u).concat(Vector.basis(F7, v)) \
            + Vector.basis(F7, u).concat(U.differential(v)).scaled(s)
        assert lhs == rhs, (seed, u, v)


def test_u_curvature_identity_dga():
    U = UAlgebra(dga_rank2(F7, 2, 3, 4).algebra)
    assert check_u_curvature(U, 3).passed


def test_u_curvature_identity_uncurved():
    U = UAlgebra(dga_rank2(F7, 1, 2, 0).algebra)
    assert U.curvature().is_zero()
    assert check_u_curvature(U, 3).passed


def test_u_curvature_identity_twisted():
    rng = random.Random(2)
    tw, _ = twisted_dga(dga_rank2(F7, 1, 2, 3).algebra, rng, 6, 3)
    assert check_u_curvature(UAlgebra(tw), 3).passed


def test_full_coproduct_mutation_breaks_curvature():
    U = UAlgebra(dga_rank2(F7, 2, 3, 4).algebra)
    assert not check_u_curvature(U, 3, full_delta=True).passed


def test_ideal_stability():
    assert check_ideal_stability(UAlgebra(dga_rank2(F7, 2, 3, 4).algebra), 3).passed
    rng = random.Random(7)
    tw, _ = twisted_dga(dga_rank2(F7, 0, 1, 2).algebra, rng, 6, 3)
    assert check_ideal_stability(UAlgebra(tw), 3).passed


def test_normal_form_rules():
    U = UAlgebra(dga_rank2(F7, 1, 1, 1).algebra)
    # omega[eta] deletes, interior-eta letters annihilate
    assert U.normal_form((("e",), ("u",))) == Vector.basis(F7, (("u",),))
    assert U.normal_form((("u",), ("u", "e"))).is_zero()
    assert U.normal_form((("u", "u"),)) == Vector.basis(F7, (("u", "u"),))
    # multiplying any word by an ideal generator stays in the ideal
    gen = Vector.basis(F7, (("u", "e", "u"),))
    w = Vector.basis(F7, (("u",),))
    assert w.concat(gen).bind(U.normal_form).is_zero()
    assert gen.concat(w).bind(U.normal_form).is_zero()
    unit_gen = Vector.basis(F7, ()) - Vector.basis(F7, (("e",),))
    assert w.concat(unit_gen).bind(U.normal_form).is_zero()


def test_word_maps_refuse_a_vector():
    # a Vector goes through bind; a word map given a whole Vector raises
    # rather than read it as a uword
    U = UAlgebra(dga_rank2(F7, 1, 1, 1).algebra)
    vec = Vector.basis(F7, (("u",),))
    for word_map in (U.normal_form, U.differential):
        with pytest.raises(TypeError):
            word_map(vec)


def test_inclusion_is_a_structure_morphism():
    rng = random.Random(4)
    tw, _ = twisted_dga(dga_rank2(F7, 2, 1, 3).algebra, rng, 6, 3)
    assert check_inclusion_morphism(UAlgebra(tw), 3).passed


def test_inclusion_morphism_detects_corruption():
    U = UAlgebra(dga_rank2(F7, 2, 3, 4).algebra)
    assert check_inclusion_morphism(U, 3).passed
    # corrupting the reduced coproduct to the full one on the quotient side
    # breaks the intertwining identity
    assert not check_inclusion_morphism(UAlgebra(U.base, full_delta=True),
                                        3).passed


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 6))
def test_module_identification_axioms(p, q, a, b):
    D, M = module_pqab(F7, p, q, a, b)
    E = module_to_ue(M)
    assert dg_module_axioms(E, 3).passed


def test_module_identification_roundtrip():
    D, M = module_pqab(F7, 2, 3, 1, 5)
    back = ue_to_module(module_to_ue(M), M.arity_cap)
    assert back.table == M.table


def test_identification_classical_readout():
    # dm and the letter action recover the classical differential and action
    D, M = module_pqab(F7, 2, 3, 1, 5)
    E = module_to_ue(M)
    assert E.d(Vector.basis(F7, "x")) == Vector.basis(F7, "y", 1)   # dx = a y
    assert E.act(Vector.basis(F7, "x"), (("u",),)) == Vector.basis(F7, "y", 2)
    assert E.act(Vector.basis(F7, "y"), (("u",),)) == Vector.basis(F7, "x", 3)
    assert E.act(Vector.basis(F7, "y"), (("e",),)) == Vector.basis(F7, "y")


def test_strict_morphism_transport_equivalence():
    D, M = module_pqab(F7, 2, 3, 1, 5)
    # scaling by a unit is a strict morphism; its transport is a chain map
    phi = {m: Vector.basis(F7, m, 4) for m in M.space.names}
    rep = check_strict_morphism_transport(M, M, phi, 3)
    assert rep.passed and rep.details["chain_map"] == "PASS"
    # a degree-preserving but non-equivariant map fails on both sides
    bad = {"x": Vector.basis(F7, "x", 1), "y": Vector.basis(F7, "y", 2)}
    rep = check_strict_morphism_transport(M, M, bad, 3)
    assert not rep.passed
    assert rep.details["chain_map"] == rep.details["closed_morphism"] == "FAIL"


def test_universality_identity_morphism():
    D = dga_rank2(F7, 2, 3, 4)
    f = identity_morphism(D.algebra, 4)
    transport, rep = universality_transport(f, D, 3)
    assert rep.passed
    assert transport(((("u",),))) == Vector.basis(F7, "u")
    assert transport(((("u",), ("u",)))) == Vector.basis(F7, "e", 2)


def test_universality_twisted_morphism():
    rng = random.Random(11)
    D = dga_rank2(F7, 1, 2, 3)
    tw, f = twisted_dga(D.algebra, rng, arity_cap=6, f_cap=3)
    transport, rep = universality_transport(f, D, 3)
    assert rep.passed
