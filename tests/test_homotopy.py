"""Interval homotopies, contractions, bar transfer, and obstruction stages."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit import homotopy
from ainfkit.adjoint import UAlgebra
from ainfkit.ainf import (AInfAlgebra, AInfModule, AInfMorphism, CurvedDga,
                          HomElement, check_bimodule,
                          check_bimodule_units, check_module,
                          check_module_morphism, compose_hom,
                          hom_differential, identity_hom, identity_morphism)
from ainfkit.fixtures import (dga_rank2, dga_two_odd, module_from_classical,
                              module_pqab, random_hom_perturbation,
                              trivial_algebra, twisted_identity_morphism)
from ainfkit.graded import GradedSpace, Grading, MultiOp, Vector, sign
from ainfkit.homotopy import (AInfHomotopy, DgaMorphism, IntervalCoalgebra,
                              ObstructionElement, ObstructionWitness,
                              TheoremViolation, _hom_basis, _stage_columns,
                              arity_part,
                              bar_transfer_contraction, check_ainf_homotopy,
                              check_dga_morphism, check_interval_coalgebra,
                              check_obstruction_bimodule,
                              check_obstruction_derivation,
                              check_obstruction_ideal, extend_homotopy,
                              extend_morphism, homotopy_to_derivation,
                              identity_dga_morphism, invert_homotopy,
                              mapping_cone_bimodule, obstruction_class,
                              obstruction_is_exact,
                              quillen_classical_components, ue_contraction)
from ainfkit.qmod import ue_functor
from ainfkit.report import FAIL, PASS
from ainfkit.rings import Integers, IntegersMod
from ainfkit.vanish import UnsupportedStructure

F7 = IntegersMod(7)
F5 = IntegersMod(5)


# ---------------------------------------------------------------------------
# fixtures


def square_zero_pair():
    """Source (e, x odd, x^2 = 0, d = 0) and target (e, t even, s odd,
    dt = s, all non-unit products zero), Z-graded over F7."""
    R = F7
    gr = Grading(None)
    srcsp = GradedSpace(R, gr, [("e", 0), ("x", 1)])
    src = CurvedDga(srcsp, "e", Vector.zero(R), {},
                    {("e", "e"): Vector.basis(R, "e"),
                     ("e", "x"): Vector.basis(R, "x"),
                     ("x", "e"): Vector.basis(R, "x"),
                     ("x", "x"): Vector.zero(R)})
    tgtsp = GradedSpace(R, gr, [("e", 0), ("t", 0), ("s", 1)])
    prod = {}
    for z in ("e", "t", "s"):
        prod[("e", z)] = Vector.basis(R, z)
        prod[(z, "e")] = Vector.basis(R, z)
    for z in ("t", "s"):
        for z2 in ("t", "s"):
            prod[(z, z2)] = Vector.zero(R)
    tgt = CurvedDga(tgtsp, "e", Vector.zero(R),
                    {"t": Vector.basis(R, "s")}, prod)
    return src, tgt


def homotopic_pair():
    """f: x -> s and g: x -> 0 between the square-zero pair, with the
    connecting family x -> -t (the classical homotopy t picks up the same
    sign as the differential does under the degree shift)."""
    src, tgt = square_zero_pair()
    A, Ap = src.algebra, tgt.algebra
    fop = MultiOp(F7, 0, 4)
    fop.set(("e",), Vector.basis(F7, ("e",)))
    fop.set(("x",), Vector.basis(F7, ("s",)))
    gop = MultiOp(F7, 0, 4)
    gop.set(("e",), Vector.basis(F7, ("e",)))
    f = AInfMorphism(A, Ap, fop)
    g = AInfMorphism(A, Ap, gop)
    h = MultiOp(F7, -1, 4)
    h.set(("x",), Vector.basis(F7, ("t",), F7.from_int(-1)))
    return f, g, h


def point_dga():
    gr = Grading(None)
    ksp = GradedSpace(F7, gr, [("e", 0)])
    return CurvedDga(ksp, "e", Vector.zero(F7), {},
                     {("e", "e"): Vector.basis(F7, "e")})


def uncurved_module():
    """A rank-two module with a nontrivial action over an uncurved rank-two
    dga (u^2 = 3e, du = 6e)."""
    _, M = module_pqab(F7, 3, 1, 0, 2)
    return M


def complexes_over_point(gens_m, gens_n, d_m=None, d_n=None):
    """Two plain complexes viewed as modules over the trivial algebra."""
    triv = trivial_algebra(F7)

    def build(gens, d):
        sp = GradedSpace(F7, Grading(2), gens)
        action = {(m, "e"): Vector.basis(F7, m) for m, _ in gens}
        return module_from_classical(triv, sp, d or {}, action)
    return build(gens_m, d_m), build(gens_n, d_n)


# ---------------------------------------------------------------------------
# the interval coalgebra and homotopies


def test_interval_coalgebra_axioms():
    assert check_interval_coalgebra(IntervalCoalgebra(F7)).passed
    assert check_interval_coalgebra(IntervalCoalgebra(Integers())).passed


def test_interval_boundary_is_difference_of_endpoints():
    I = IntervalCoalgebra(F7)
    assert I.boundary("I").terms == {"p": 1, "q": 6}
    assert I.boundary("p").is_zero()
    assert I.degree("I") == -1


def test_homotopy_family_degree_is_forced():
    f, g, h = homotopic_pair()
    wrong = MultiOp(F7, 1, 4)
    wrong.set(("x",), Vector.basis(F7, ("t",)))
    with pytest.raises(ValueError):
        AInfHomotopy(f, g, wrong)
    AInfHomotopy(f, g, h)  # degree -1 accepted


def test_homotopy_fixture_passes():
    f, g, h = homotopic_pair()
    rep = check_ainf_homotopy(f, g, h, 4)
    assert rep.passed, rep.witness
    assert rep.details["f_morphism"] == PASS
    assert rep.details["g_morphism"] == PASS


def test_homotopy_wrong_sign_fails():
    # the un-twisted classical homotopy x -> +t violates the shifted-side
    # commutation: the witness names the connecting generator
    f, g, h = homotopic_pair()
    hbad = MultiOp(F7, -1, 4)
    hbad.set(("x",), Vector.basis(F7, ("t",)))
    rep = check_ainf_homotopy(f, g, hbad, 4)
    assert rep.verdict == FAIL
    assert rep.witness[0][0] == "I"


def test_homotopy_zero_only_between_equal_morphisms():
    f, g, _ = homotopic_pair()
    zero = MultiOp(F7, -1, 4)
    assert check_ainf_homotopy(f, f, zero, 4).passed
    assert check_ainf_homotopy(f, g, zero, 4).verdict == FAIL


# ---------------------------------------------------------------------------
# derivation transport


def test_derivation_transport_laws():
    f, g, h = homotopic_pair()
    _, rep = homotopy_to_derivation(f, g, h, 3)
    assert rep.passed, rep.witness


def test_derivation_transport_identity_pair_is_zero():
    f, _, _ = homotopic_pair()
    zero = MultiOp(F7, -1, 4)
    D, rep = homotopy_to_derivation(f, f, zero, 3)
    assert rep.passed
    for u in ((), (("x",),), (("x",), ("x",))):
        assert D(u).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_derivation_satisfies_the_twisted_leibniz_rule(data):
    # D(u + v) = D(u)G(v) + (-1)^{|u|} F(u)D(v) on pairs of eta-free uwords
    f, g, h = homotopic_pair()
    D, _ = homotopy_to_derivation(f, g, h, 2)
    Usrc, Utgt = UAlgebra(f.source), UAlgebra(f.target)
    F, G = ue_functor(f, Utgt), ue_functor(g, Utgt)
    words = list(Usrc.uwords(2, eta_free=True))
    u = data.draw(st.sampled_from(words))
    v = data.draw(st.sampled_from(words))
    su = F7.from_int(sign(Usrc.uword_parity(u)))
    assert D(u + v) == D(u).concat(G(v)) + F(u).concat(D(v)).scaled(su)


def test_derivation_transport_fails_on_a_wrong_homotopy():
    f, g, _ = homotopic_pair()
    hbad = MultiOp(F7, -1, 4)
    hbad.set(("x",), Vector.basis(F7, ("t",)))
    _, rep = homotopy_to_derivation(f, g, hbad, 3)
    assert rep.verdict == FAIL
    assert rep.witness[0] == ((("x",),), "commutator")
    assert rep.details == {"f_functor": PASS, "g_functor": PASS}


def test_derivation_transport_refuses_a_mutated_morphism():
    # g scales u by 2, so U(g) no longer commutes with d (du = 3e): the
    # precondition fails before any letter is visited
    A = dga_rank2(F7, 2, 3, 0).algebra
    f = identity_morphism(A, 4)
    gop = MultiOp(F7, 0, 4, dict(f.f.table))
    gop.set(("u",), Vector.basis(F7, ("u",), 2))
    g = AInfMorphism(A, A, gop)
    _, rep = homotopy_to_derivation(f, g, MultiOp(F7, -1, 4), 3)
    assert rep.verdict == FAIL
    assert rep.witness[0] == "functor-precondition"
    assert rep.details == {"f_functor": PASS, "g_functor": FAIL}


# ---------------------------------------------------------------------------
# contraction of the adjoint algebra


def test_ue_contraction_trivial_base():
    C, rep = ue_contraction(trivial_algebra(F7), 3)
    assert rep.passed, rep.witness
    assert rep.details["max_steps"] == 0


def test_ue_contraction_uncurved_fixtures():
    for alg in (dga_two_odd(F7, 0).algebra,
                dga_rank2(F7, 3, 2, 0).algebra):
        _, rep = ue_contraction(alg, 3)
        assert rep.passed, rep.witness
        assert rep.details["closed_rank"] > 0


def test_ue_contraction_homotopy_merges_first_letter():
    C, _ = ue_contraction(dga_two_odd(F7, 0).algebra, 2)
    got = C.h_op(((("u",)), (("v",))))
    # |u| odd means the shifted letter is even... the sign is the parity of
    # the unshifted generator
    assert got == Vector.basis(F7, ((("u", "v")),), F7.from_int(-1))
    assert C.h_op(((("u", "v")),)).is_zero()


def test_ue_contraction_refuses_curved_and_integer_bases():
    with pytest.raises(UnsupportedStructure):
        ue_contraction(trivial_algebra(F7, 2), 2)
    with pytest.raises(UnsupportedStructure):
        ue_contraction(trivial_algebra(Integers()), 2)


# ---------------------------------------------------------------------------
# mapping cone and bar transfer


def two_odd_module():
    D = dga_two_odd(F7, 0)
    msp = GradedSpace(F7, Grading(2), [("m", 0), ("n", 1)])
    M = module_from_classical(D.algebra, msp, {}, {
        ("m", "e"): Vector.basis(F7, "m"),
        ("n", "e"): Vector.basis(F7, "n"),
        ("m", "u"): Vector.basis(F7, "n"),
    })
    return D, M


def test_mapping_cone_is_a_valid_bimodule():
    D, _ = two_odd_module()
    V = mapping_cone_bimodule(identity_dga_morphism(D))
    assert check_bimodule(V, 3).passed
    assert check_bimodule_units(V, 3).passed


def test_dga_morphism_checker():
    D, _ = two_odd_module()
    assert check_dga_morphism(identity_dga_morphism(D)).passed
    _, tgt = square_zero_pair()
    frak = DgaMorphism(point_dga(), tgt, {"e": Vector.basis(F7, "e")})
    assert check_dga_morphism(frak).passed
    bad = DgaMorphism(point_dga(), tgt, {"e": Vector.basis(F7, "t")})
    assert check_dga_morphism(bad).verdict == FAIL


def test_bar_transfer_identity_morphism():
    D, M = two_odd_module()
    assert check_module(M, 3).passed
    h = {("t", y): Vector.basis(F7, ("s", y)) for y in ("e", "u", "v")}
    _, rep = bar_transfer_contraction(M, identity_dga_morphism(D), h, 3)
    assert rep.passed, rep.witness
    assert rep.details["cone_contraction"] == PASS


def test_bar_transfer_point_to_acyclic_target():
    tgt = square_zero_pair()[1]
    frak = DgaMorphism(point_dga(), tgt, {"e": Vector.basis(F7, "e")})
    ksp = GradedSpace(F7, Grading(None), [("m", 0)])
    M = module_from_classical(frak.source.algebra, ksp, {},
                              {("m", "e"): Vector.basis(F7, "m")})
    h = {("t", "e"): Vector.basis(F7, ("s", "e")),
         ("t", "s"): Vector.basis(F7, ("t", "t"))}
    _, rep = bar_transfer_contraction(M, frak, h, 3)
    assert rep.passed, rep.witness


def test_bar_transfer_corrupt_contraction_fails_with_witness():
    # a wrong cone homotopy yields a FAIL report, not an exception
    D, M = two_odd_module()
    h = {("t", y): Vector.basis(F7, ("s", y)) for y in ("e", "u", "v")}
    h[("t", "u")] = Vector.basis(F7, ("s", "u"), F7.from_int(2))
    _, rep = bar_transfer_contraction(M, identity_dga_morphism(D), h, 2)
    assert rep.verdict == FAIL
    assert rep.details["cone_contraction"] == FAIL
    assert rep.witness is not None


# ---------------------------------------------------------------------------
# obstruction stages


def test_obstruction_of_closed_morphism_is_zero():
    M = uncurved_module()
    phi = twisted_identity_morphism(M, random.Random(1), 3)
    assert check_module_morphism(phi, 3).passed
    assert obstruction_class(phi, 3).is_zero()


def test_obstruction_requires_uncurved_base():
    _, M = module_pqab(F7, 3, 1, 2, 2)  # curvature -4e
    phi = identity_hom(M, 3)
    with pytest.raises(UnsupportedStructure):
        obstruction_class(phi, 3)


def test_obstruction_stage_below_support_raises():
    M = uncurved_module()
    junk = HomElement(M, M, 0,
                      {("x", ("e", "e")): Vector.basis(F7, "x")}, 3)
    phi = identity_hom(M, 3).plus(junk)
    k = hom_differential(phi, 3).support_min()
    assert k is not None and k <= 2
    with pytest.raises(ValueError):
        obstruction_class(phi, 3, stage=k + 1)


def test_stagewise_repair_of_perturbed_morphism():
    # identity + even junk is not closed; every stage class is exact, and
    # repeated extension restores a closed morphism
    M = uncurved_module()
    rng = random.Random(3)
    names = [n for n, _ in M.basis(3)]
    table = {}
    for m in names:
        for w in M.algebra.words(2, min_len=1):
            if rng.random() < 0.4:
                tgt = rng.choice(names)
                if (M.m_parity(tgt) - M.m_parity(m)
                        - M.algebra.word_parity(w)) % 2 == 0:
                    table.setdefault((m, w), Vector.zero(F7)).add_term(
                        tgt, rng.randrange(1, 7))
    phi = identity_hom(M, 3).plus(HomElement(M, M, 0, table, 3))
    assert hom_differential(phi, 3).support_min() is not None
    for _ in range(6):
        k = hom_differential(phi, 3).support_min()
        if k is None or k > 3:
            break
        out = extend_morphism(phi, k, 3)
        assert not isinstance(out, ObstructionWitness)
        phi = out
    assert hom_differential(phi, 3).support_min() is None


def test_essential_obstruction_is_nonexact():
    # complexes over a point with mismatched homology parities: the class
    # x (x) e -> p represents a nonzero map on homology and has no primitive
    M, N = complexes_over_point([("x", 0)], [("p", 1)])
    rep = HomElement(M, N, 1, {("x", ("e",)): Vector.basis(F7, "p")}, 3)
    obs = ObstructionElement(1, rep)
    assert arity_part(hom_differential(rep, 3), 1).support_min() is None
    assert obstruction_is_exact(obs, 3).status == "Nonexact"


def test_exactness_undecided_over_the_integers():
    Z = Integers()
    triv = trivial_algebra(Z)
    sp = GradedSpace(Z, Grading(2), [("x", 0)])
    M = module_from_classical(triv, sp, {},
                              {("x", "e"): Vector.basis(Z, "x")})
    rep = HomElement(M, M, 1, {}, 3)
    assert obstruction_is_exact(ObstructionElement(1, rep),
                                3).status == "UNDECIDED"


def _random_table_module(rng, A, gens):
    """A table module over A with random entries of arity <= 2 and no
    relation imposed: the stage maps are linear in the tables.  Each
    entry keeps its drawn terms of the parity of its key plus one."""
    table = {}
    for m, dm in gens:
        for ln in range(3):
            for w in itertools.product(A.shift.names, repeat=ln):
                val = Vector(F5)
                for y, dy in gens:
                    if rng.random() < 0.5:
                        c = rng.randrange(1, 5)
                        if (dy - dm - A.word_parity(w)) % 2:
                            val.add_term(y, c)
                table[(m, w)] = val
    return AInfModule(A, GradedSpace(F5, Grading(2), gens), table, 2)


def _entries(phi):
    return {(m, w, n): c for (m, w), v in phi.table.items()
            for n, c in v.terms.items()}


@pytest.mark.parametrize("seed", range(3))
def test_stage_columns_match_hom_differential_of_unit_homs(seed):
    # e and a are odd letters of A[1], b is even; the module letters x and
    # p are even, y and q odd
    rng = random.Random(seed)
    sp = GradedSpace(F5, Grading(2), [("e", 0), ("a", 0), ("b", 1)])
    b = MultiOp(F5, 1, 2)
    shift = sp.shifted()
    for ln in (1, 2):
        for w in itertools.product(sp.names, repeat=ln):
            # the drawn terms of the parity of w plus one
            terms = {(y,): rng.randrange(5) for y in sp.names}
            b.set(w, Vector(F5, {y: c for y, c in terms.items()
                                 if shift.parity(y[0])
                                 != shift.word_parity(w)}))
    A = AInfAlgebra(sp, "e", b)
    M = _random_table_module(rng, A, [("x", 0), ("y", 1)])
    N = _random_table_module(rng, A, [("p", 0), ("q", 1), ("r", 1)])
    post = HomElement(N, M, 1, {
        (n, w): Vector(F5, {m: rng.randrange(5) for m in ("x", "y")})
        for n in ("p", "q", "r") for w in ((), ("a",))}, 3)
    for degree in (0, -1):
        for k in (1, 2, 3):
            cols = _stage_columns(M, N, degree, k, 3)
            post_cols = _stage_columns(M, N, degree, k, 3, post)
            for m, w, n in _hom_basis(M, N, k, 3):
                unit = HomElement(M, N, degree, {(m, w): Vector.basis(F5, n)},
                                  3)
                want = arity_part(hom_differential(unit, 3), k)
                got = cols.get((m, w, n), Vector(F5))
                assert got.terms == _entries(want), (degree, k, m, w, n)
                want = arity_part(compose_hom(post, unit, 3), k)
                got = post_cols.get((m, w, n), Vector(F5))
                assert got.terms == _entries(want), (degree, k, m, w, n)


def test_a_wrong_stage_assembly_never_passes(monkeypatch):
    # doubling every assembled column halves each primitive found; the
    # check through hom_differential must catch it
    real = homotopy._stage_columns
    monkeypatch.setattr(homotopy, "_stage_columns", lambda *args: {
        e: v.scaled(F7.from_int(2)) for e, v in real(*args).items()})
    M = uncurved_module()
    junk = HomElement(M, M, 0, {("x", ("u",)): Vector.basis(F7, "x")}, 3)
    phi = identity_hom(M, 3).plus(junk)
    obs = obstruction_class(phi, 3)
    assert not obs.is_zero()
    assert obstruction_is_exact(obs, 3).status == "UNDECIDED"
    with pytest.raises(UnsupportedStructure, match="undecided"):
        extend_morphism(phi, obs.stage, 3)
    rng = random.Random(5)
    f = twisted_identity_morphism(M, rng, 3)
    g = twisted_identity_morphism(M, rng, 3)
    with pytest.raises(UnsupportedStructure, match="undecided"):
        for stage in range(0, 4):
            extend_homotopy(f, g, HomElement(M, M, -1, {}, 3), stage, 3)
    phi = twisted_identity_morphism(M, random.Random(1), 3)
    psi0 = arity_part(identity_hom(M, 3), 0)
    hz = HomElement(M, M, -1, {}, 3)
    # the inversion re-checks each stage's residual through
    # hom_differential
    with pytest.raises(TheoremViolation, match="residual dropped"):
        invert_homotopy(phi, psi0, hz, hz, 3)


def test_homotopy_extension_between_homotopic_morphisms():
    M = uncurved_module()
    rng = random.Random(5)
    phi = twisted_identity_morphism(M, rng, 3)
    psi = twisted_identity_morphism(M, rng, 3)
    h = HomElement(M, M, -1, {}, 3)
    for stage in range(0, 4):
        out = extend_homotopy(phi, psi, h, stage, 3)
        assert not isinstance(out, ObstructionWitness)
        h = out
    defect = phi.plus(psi.negated()).plus(
        hom_differential(h, 3).negated())
    assert defect.support_min() is None


def test_obstruction_ideal_property():
    M = uncurved_module()
    rng = random.Random(7)
    phi = twisted_identity_morphism(M, rng, 3)
    xi = random_hom_perturbation(M, rng, 3)
    rep = check_obstruction_ideal(hom_differential(xi, 3), phi, phi, 3)
    assert rep.passed, rep.witness


def test_obstruction_derivation_law():
    M = uncurved_module()
    rng = random.Random(9)
    phi = twisted_identity_morphism(M, rng, 3)
    psi = twisted_identity_morphism(M, rng, 3)
    for stage in (1, 2):
        rep = check_obstruction_derivation(phi, psi, phi, psi, stage, 3)
        assert rep.passed, rep.witness


def test_hom_differential_leibniz_for_composition():
    M = uncurved_module()
    rng = random.Random(11)
    phi = twisted_identity_morphism(M, rng, 3)
    xi = random_hom_perturbation(M, rng, 3)
    rep = check_obstruction_bimodule(phi, xi, phi, 3)
    assert rep.passed, rep.witness


# ---------------------------------------------------------------------------
# homotopy inversion


def test_invert_homotopy_strict_identity():
    M = uncurved_module()
    phi = identity_hom(M, 3)
    psi0 = arity_part(phi, 0)
    hz = HomElement(M, M, -1, {}, 3)
    psi_hat, h_hat, rep = invert_homotopy(phi, psi0, hz, hz, 3)
    assert rep.passed, rep.witness
    assert hom_differential(psi_hat, 3).support_min() is None


def test_invert_homotopy_twisted_quasi_isomorphisms():
    M = uncurved_module()
    hz = HomElement(M, M, -1, {}, 3)
    for seed in (1, 3, 7):
        phi = twisted_identity_morphism(M, random.Random(seed), 3)
        assert 2 in {len(k[1]) for k in phi.table}  # nontrivial arity two
        psi0 = arity_part(identity_hom(M, 3), 0)
        psi_hat, h_hat, rep = invert_homotopy(phi, psi0, hz, hz, 3)
        assert rep.passed, rep.witness
        assert rep.details["stage"] == 3
        resid = identity_hom(M, 3).plus(
            compose_hom(phi, psi_hat, 3).negated()).plus(
            hom_differential(h_hat, 3).negated())
        k = resid.support_min()
        assert k is None or k > 3


def test_invert_homotopy_violated_right_hypothesis():
    # N has a summand the candidate inverse misses: the defect survives at
    # arity zero and the hypothesis check reports it as a stage failure
    M, N = complexes_over_point([("x", 0)], [("n", 0), ("p", 1)])
    phi = HomElement(M, N, 0, {("x", ()): Vector.basis(F7, "n")}, 3)
    psi = HomElement(N, M, 0, {("n", ()): Vector.basis(F7, "x")}, 3)
    hz = HomElement(N, N, -1, {}, 3)
    lz = HomElement(M, M, -1, {}, 3)
    with pytest.raises(TheoremViolation) as exc:
        invert_homotopy(phi, psi, hz, lz, 3)
    assert exc.value.stage == 0
    assert exc.value.witness.support_min() == 0


def test_invert_homotopy_violated_left_hypothesis():
    M, N = complexes_over_point([("x", 0), ("z", 1)], [("n", 0)])
    phi = HomElement(M, N, 0, {("x", ()): Vector.basis(F7, "n")}, 3)
    psi = HomElement(N, M, 0, {("n", ()): Vector.basis(F7, "x")}, 3)
    hz = HomElement(N, N, -1, {}, 3)
    lz = HomElement(M, M, -1, {}, 3)
    with pytest.raises(TheoremViolation) as exc:
        invert_homotopy(phi, psi, hz, lz, 3)
    assert exc.value.stage == 0
    assert "other-sided" in str(exc.value)


def test_invert_homotopy_refuses_open_morphism():
    M = uncurved_module()
    junk = HomElement(M, M, 0,
                      {("x", ("e", "e")): Vector.basis(F7, "x")}, 3)
    phi = identity_hom(M, 3).plus(junk)
    assert hom_differential(phi, 3).support_min() is not None
    hz = HomElement(M, M, -1, {}, 3)
    with pytest.raises(ValueError):
        invert_homotopy(phi, arity_part(identity_hom(M, 3), 0), hz, hz, 3)


# ---------------------------------------------------------------------------
# comparison with the classical picture, by constituents


def test_quillen_components_identity():
    rep = quillen_classical_components(
        identity_morphism(dga_two_odd(F7, 0).algebra), 3)
    assert rep.passed, rep.witness
    assert rep.details["inclusion_square"] == PASS
    assert rep.details["contraction_source"] == PASS


def test_quillen_components_with_homotopy():
    f, g, h = homotopic_pair()
    rep = quillen_classical_components(f, 3, g=g, h=h)
    assert rep.passed, rep.witness
    assert rep.details["derivation"] == PASS


def test_quillen_components_unsupported_for_curved_base():
    A = trivial_algebra(F7, 3)
    rep = quillen_classical_components(identity_morphism(A), 3)
    assert rep.verdict == "UNSUPPORTED"
