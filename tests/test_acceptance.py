"""Acceptance suite: one test per release criterion, all at exact equality.

Each test prints as a single pass/fail line under ``pytest -v``.  No
tolerances appear anywhere: every comparison is ring arithmetic.
"""

import contextlib
import io
import json
import random

import pytest

import test_cli as cli_docs
from ainfkit import cli
from ainfkit.docio import load_dict
from ainfkit.adjoint import (UAlgebra, check_ideal_stability,
                             check_strict_morphism_transport,
                             check_u_curvature, dg_module_axioms,
                             module_to_ue, ue_to_module)
from ainfkit.ainf import (AInfMorphism, CurvedDga, HomElement, MultiOp,
                          b_from_m, check_module, compose_hom,
                          hom_differential, identity_hom, m_from_b)
from ainfkit.fixtures import (dga_rank2, module_from_classical, module_pqab,
                              random_unital_table, trivial_algebra,
                              twisted_dga, twisted_identity_morphism)
from ainfkit.graded import GradedSpace, Grading, Vector
from ainfkit.homotopy import (DgaMorphism, TheoremViolation, arity_part,
                              bar_transfer_contraction, invert_homotopy)
from ainfkit.qmod import (check_epsilon_closed, check_lambda_closed,
                          check_q_homotopy, check_triangle, q_module)
from ainfkit.rings import (IntegersMod, PolynomialRing, Rationals,
                           constants_hom)
from ainfkit.vanish import (NONEXISTENT, AugmentationMap,
                            MatrixFactorization, MaurerCartanProblem,
                            base_change, check_gamma_agreement,
                            detect_augmentation, kp_contraction,
                            mc_criterion, mc_evaluate, mf_check, mf_module)

F7 = IntegersMod(7)


def test_01_structure_relation_agrees_between_both_code_paths():
    # For 100 random strictly unital tables the letterwise evaluation
    # b(B(w)) vanishes on all words of length <= 4 exactly when the
    # coderivation square B(B(w)) does; the two paths share no code.
    verdicts = set()
    for seed in range(100):
        rng = random.Random(seed)
        A = random_unital_table(F7, 2 + seed % 2, 3, rng)
        path_letterwise = all(A.B(w).bind(A.b.apply).is_zero()
                              for w in A.words(4))
        path_coderivation = all(A.B(w).bind(A.B).is_zero()
                                for w in A.words(4))
        assert path_letterwise == path_coderivation, seed
        verdicts.add(path_letterwise)
    assert verdicts == {True, False}  # both outcomes occur


def test_02_operation_dictionary_roundtrip_and_unit_laws():
    # b -> m -> b is the identity on 100 random unital tables, and the
    # unit laws transform exactly: m_2(e, a) = a = m_2(a, e) on the
    # m side against the signed laws b(e, u) = u, b(u, e) = -u.
    for seed in range(100):
        rng = random.Random(1000 + seed)
        A = random_unital_table(F7, 3, 3, rng)
        m = m_from_b(A.space, A.b)
        back = b_from_m(A.space, m, A.b.arity_cap)
        assert back.table == A.b.table, seed
    D = dga_rank2(F7, 1, 1, 1)
    b, m = D.algebra.b, m_from_b(D.algebra.space, D.algebra.b)
    assert m[("e", "u")] == Vector.basis(F7, ("u",))
    assert m[("u", "e")] == Vector.basis(F7, ("u",))
    assert b.apply(("e", "u")) == Vector.basis(F7, ("u",))
    assert b.apply(("u", "e")) == Vector.basis(F7, ("u",), 6)


def _twenty_curved_algebras():
    algs = [dga_rank2(F7, w, d, g).algebra
            for w in (0, 1, 2, 3) for d in (0, 1, 2) for g in (1, 2, 3)][:10]
    for i in range(10):
        rng = random.Random(100 + i)
        base = dga_rank2(F7, (i % 3) + 1, i % 4, (i % 5) + 1).algebra
        algs.append(twisted_dga(base, rng, 6, 3)[0])
    return algs


def test_03_adjoint_algebra_curvature_identity_with_mutation_kill():
    # d^2 u = [c, u] on every unit-word of weight <= 4 for 20 curved
    # algebras; replacing the reduced coproduct with the full one breaks
    # the identity on every one of the 20 mutants.
    for A in _twenty_curved_algebras():
        U = UAlgebra(A)
        assert check_u_curvature(U, 4).passed
        assert not check_u_curvature(U, 4, full_delta=True).passed


def test_04_adjoint_ideal_is_differential_stable():
    # the normal form of d(g) vanishes for every ideal generator of
    # weight <= 4 on the same 20 algebras
    for A in _twenty_curved_algebras():
        assert check_ideal_stability(UAlgebra(A), 4).passed


def test_05_module_identification_is_a_table_identity():
    # object roundtrip, induced dg-module axioms, and the strict-morphism
    # equivalence, on 20 random module pairs
    for seed in range(20):
        rng = random.Random(seed)
        p, q = rng.randrange(1, 7), rng.randrange(1, 7)
        a, b = rng.randrange(7), rng.randrange(7)
        _, M = module_pqab(F7, p, q, a, b)
        E = module_to_ue(M)
        assert dg_module_axioms(E, 3).passed, seed
        assert ue_to_module(E, M.arity_cap).table == M.table, seed
        scale = rng.randrange(1, 7)
        phi = {m: Vector.basis(F7, m, scale) for m in M.space.names}
        rep = check_strict_morphism_transport(M, M, phi, 3)
        assert rep.passed and rep.details["chain_map"] == "PASS", seed


def test_06_tensor_functor_is_homotopic_to_the_identity():
    # BH + HB = 1 - Lambda E exactly on every basis word of weight <= 4
    # for 10 (algebra, module) pairs, at least 3 of them curved; the
    # triangle identity holds and both comparison maps are closed
    params = [(1, 1, 1, 1), (2, 3, 1, 5), (3, 1, 2, 2),   # curved (ab != 0)
              (3, 1, 0, 2), (2, 3, 0, 0), (1, 2, 3, 0),
              (4, 5, 0, 1), (1, 1, 0, 0), (2, 2, 2, 0), (5, 1, 0, 4)]
    curved = 0
    for p, q, a, b in params:
        _, M = module_pqab(F7, p, q, a, b)
        curved += (a * b) % 7 != 0
        Q = q_module(M)
        assert check_q_homotopy(Q, 4).passed, (p, q, a, b)
        assert check_triangle(Q, 4).passed, (p, q, a, b)
        assert check_lambda_closed(Q, 4).passed, (p, q, a, b)
        assert check_epsilon_closed(Q, 4).passed, (p, q, a, b)
    assert curved >= 3


def test_07_augmentation_contraction_and_closed_form_agree():
    # [B, G] = 1 on words of tensor degree <= 5 for 10 augmented curved
    # algebras; the closed-form homotopy agrees where it applies; the
    # rank-one polynomial potential x^2 admits no augmentation
    params = [(p, q, a, b) for p in (1, 2) for q in (1, 3)
              for a in (1, 2) for b in (1, 3)][:10]
    gamma_cases = 0
    for p, q, a, b in params:
        D, M = module_pqab(F7, p, q, a, b)
        gamma = (-a * b) % 7
        assert gamma != 0
        aug = AugmentationMap(D.algebra, {"e": F7.inv(F7.from_int(gamma))})
        _, rep = kp_contraction(M, aug, 5)
        assert rep.passed, (p, q, a, b)
        if (p * b - q * a) % 7 == 0:  # no differential: closed form applies
            assert check_gamma_agreement(D, M, aug, 4).passed, (p, q, a, b)
            gamma_cases += 1
    assert gamma_cases >= 1
    QX = PolynomialRing(Rationals(), ["x"])
    x2 = QX.normalize([((2,), Rationals().one)])
    assert detect_augmentation(trivial_algebra(QX, x2)).status == NONEXISTENT


def test_08_maurer_cartan_criterion_and_linearization():
    # the criterion decides both ways, and the eps-linear part of the
    # Maurer-Cartan series at eps.a over S[eps] equals m_1(a) on every
    # odd basis vector
    hits = mc_criterion(MaurerCartanProblem(dga_rank2(F7, 2, 3, 0).algebra))
    assert hits.status == "Vanishes" and hits.witness is not None
    misses = mc_criterion(MaurerCartanProblem(dga_rank2(F7, 2, 0, 0).algebra))
    assert misses.status == "DoesNotVanish"
    Pe = PolynomialRing(F7, ["eps"])
    eps = Pe.variable("eps")
    for w, delta in ((2, 3), (1, 0), (0, 5)):
        A = base_change(dga_rank2(F7, w, delta, 0).algebra,
                        constants_hom(Pe))
        P = MaurerCartanProblem(A)
        for x in A.space.names:
            if A.space.parity(x) != 1:
                continue
            val = mc_evaluate(P, Vector.basis(Pe, x, eps))
            linear = Vector(Pe, {y: Pe.truncate_degree(c, "eps", 2)
                                 for y, c in val.terms.items()})
            expected = Vector(Pe, {y: Pe.mul(eps, c)
                                   for y, c in P.m_apply((x,)).terms.items()})
            assert linear == expected, (w, delta, x)


def test_09_matrix_factorization_paths_agree():
    # the symmetric x^2 factorization passes both code paths; 10 random
    # factorizations pass and 10 mutants fail, with the matrix-identity
    # and module-axiom verdicts agreeing throughout
    QX = PolynomialRing(Rationals(), ["x"])
    x = QX.variable("x")
    F = MatrixFactorization(QX, 1, 1, [[QX.zero, x], [x, QX.zero]],
                            QX.mul(x, x))
    rep = mf_check(F)
    assert rep.passed and rep.details["paths_agree"] is True
    assert check_module(mf_module(F), 3).passed
    for seed in range(10):
        rng = random.Random(seed)
        a, W = rng.randrange(1, 7), rng.randrange(7)
        b = F7.mul(F7.from_int(W), F7.inv(F7.from_int(a)))
        good = mf_check(MatrixFactorization(F7, 1, 1, [[0, a], [b, 0]], W))
        assert good.passed and good.details["paths_agree"] is True, seed
        mut = mf_check(MatrixFactorization(
            F7, 1, 1, [[0, a], [F7.add(b, F7.one), 0]], W))
        assert not mut.passed, seed
        assert mut.details["paths_agree"] is True, seed


def test_10_homotopy_inversion_reaches_stage_three_exactly():
    # five quasi-isomorphisms with nontrivial arity-two parts invert up
    # to stage 3 with the contraction identity exact on all words <= 3;
    # a hypothesis violation yields a stage witness, never silent success
    _, M = module_pqab(F7, 3, 1, 0, 2)
    hz = HomElement(M, M, -1, {}, 3)
    for seed in (1, 3, 7, 8, 9):
        phi = twisted_identity_morphism(M, random.Random(seed), 3)
        assert 2 in {len(k[1]) for k in phi.table}, seed
        psi0 = arity_part(identity_hom(M, 3), 0)
        psi_hat, h_hat, rep = invert_homotopy(phi, psi0, hz, hz, 3)
        assert rep.passed and rep.details["stage"] == 3, seed
        assert hom_differential(psi_hat, 3).support_min() is None, seed
        resid = identity_hom(M, 3).plus(
            compose_hom(phi, psi_hat, 3).negated()).plus(
            hom_differential(h_hat, 3).negated())
        k = resid.support_min()
        assert k is None or k > 3, seed
    with pytest.raises(TheoremViolation) as err:
        invert_homotopy(identity_hom(M, 3), HomElement(M, M, 0, {}, 3),
                        hz, hz, 3)
    assert err.value.stage == 0 and err.value.witness is not None


def test_11_bar_transfer_contracts_the_acyclic_cone():
    # transferring the contraction of an acyclic two-generator cone
    # (dt = s) along the unit inclusion contracts the bar complex at
    # bar weight <= 3
    gr = Grading(None)
    ksp = GradedSpace(F7, gr, [("e", 0)])
    point = CurvedDga(ksp, "e", Vector.zero(F7), {},
                      {("e", "e"): Vector.basis(F7, "e")})
    tgtsp = GradedSpace(F7, gr, [("e", 0), ("t", 0), ("s", 1)])
    prod = {}
    for z in ("e", "t", "s"):
        prod[("e", z)] = Vector.basis(F7, z)
        prod[(z, "e")] = Vector.basis(F7, z)
        for z2 in ("t", "s"):
            if z != "e":
                prod[(z, z2)] = Vector.zero(F7)
    tgt = CurvedDga(tgtsp, "e", Vector.zero(F7),
                    {"t": Vector.basis(F7, "s")}, prod)
    frak = DgaMorphism(point, tgt, {"e": Vector.basis(F7, "e")})
    msp = GradedSpace(F7, gr, [("m", 0)])
    M = module_from_classical(point.algebra, msp, {},
                              {("m", "e"): Vector.basis(F7, "m")})
    h = {("t", "e"): Vector.basis(F7, ("s", "e")),
         ("t", "s"): Vector.basis(F7, ("t", "t"))}
    _, rep = bar_transfer_contraction(M, frak, h, 3)
    assert rep.passed, rep.witness
    assert rep.details["cone_contraction"] == "PASS"


COMMAND_DOCS = {
    "check-algebra": cli_docs.DOC_CURVED,
    "check-morphism": cli_docs.DOC_HOMOTOPY,
    "check-module": cli_docs.DOC_CURVED,
    "check-bimodule": cli_docs.DOC_BIMODULE,
    "build-ue": cli_docs.DOC_CURVED,
    "check-ue": cli_docs.DOC_CURVED,
    "check-ideal": cli_docs.DOC_CURVED,
    "identify-modules": cli_docs.DOC_CURVED,
    "check-q-adjunction": cli_docs.DOC_CURVED,
    "check-q-homotopy": cli_docs.DOC_CURVED,
    "kp-vanish": cli_docs.DOC_GAMMA,
    "gamma-check": cli_docs.DOC_GAMMA,
    "mc-test": cli_docs.DOC_MC,
    "mf-check": cli_docs.DOC_MF_BROKEN,
    "base-change": cli_docs.DOC_BASE_CHANGE,
    "invert-homotopy": cli_docs.DOC_BIMODULE,
    "ue-contract": cli_docs.DOC_MC,
    "homotopy-check": cli_docs.DOC_HOMOTOPY,
    "quillen-components": cli_docs.DOC_HOMOTOPY,
}


def test_12_cli_reports_are_byte_identical_across_runs_and_jobs(tmp_path):
    # every command, run twice and with --jobs 4, prints byte-identical
    # reports in both output formats
    assert set(COMMAND_DOCS) == set(cli.COMMANDS)
    for command, doc in COMMAND_DOCS.items():
        path = tmp_path / (command + ".json")
        path.write_text(json.dumps(doc))
        outputs = []
        for extra in ((), (), ("--jobs", "4"), ("--format=json",),
                      ("--format=json", "--jobs", "4")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main([command, str(path), *extra])
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1] == outputs[2], command
        assert outputs[3] == outputs[4], command
        assert json.loads(outputs[3]) is not None, command


# the target labels of every command at cap 4, in order; they are part of
# the CLI output
PINNED_LABELS = {
    "check-algebra": ["algebra:A"],
    "check-morphism": ["morphism:f", "morphism:g"],
    "check-module": ["module:M"],
    "check-bimodule": ["bimodule:C"],
    "build-ue": ["algebra:A"],
    "check-ue": ["algebra:A"],
    "check-ideal": ["algebra:A"],
    "identify-modules": ["module:M:axioms", "module:M:roundtrip"],
    "check-q-adjunction": ["module:M:lambda", "module:M:epsilon",
                           "module:M:triangle"],
    "check-q-homotopy": ["module:M"],
    "kp-vanish": ["augmentation:l:module:M"],
    "gamma-check": ["augmentation:l:module:M"],
    "mc-test": ["algebra:good", "algebra:zero"],
    "mf-check": ["factorization:F", "factorization:F:module",
                 "factorization:broken", "factorization:broken:module"],
    "base-change": ["algebra:A"],
    "invert-homotopy": ["inversion:0:id"],
    "ue-contract": ["algebra:good", "algebra:zero"],
    "homotopy-check": ["homotopy:f~g"],
    "quillen-components": ["morphism:f", "morphism:g"],
}


def test_13_cli_target_labels_and_their_order_are_pinned():
    assert list(PINNED_LABELS) == cli.COMMANDS
    for command, doc in COMMAND_DOCS.items():
        tasks = cli.build_tasks(command, load_dict(doc), 4)
        assert [label for label, _ in tasks] == PINNED_LABELS[command], \
            command
