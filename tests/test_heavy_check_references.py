"""The letter decision of check_u_curvature and the per-call caches of
kp_contraction and invert_homotopy, against their whole-word references.

check_u_curvature decides d^2 = [c, -] on letters unless d is the
full-Delta mutant, and enumerates every uword then or after a letter fails;
kp_contraction checks [B, G] = 1 through word maps cached for the call;
invert_homotopy keeps one cached B^M per module for the call.  The
functions below keep the uncached forms they replaced.  The seeded tests
run both forms on valid inputs, one-term mutants and full-Delta mutants and
assert equal reports (and, for the inversion, equal results or equal
exceptions).  Wrong-parity mutants cannot be built, and an inversion
between structures that are not modules is refused.
"""

import random
import re

import pytest

from ainfkit.adjoint import UAlgebra, check_u_curvature
from ainfkit.ainf import (AInfAlgebra, AInfModule, HomElement,
                          check_module, compose_hom, hom_differential,
                          identity_hom, module_coderivation, module_words)
from ainfkit.fixtures import random_hom_perturbation, random_scalar
from ainfkit.graded import MultiOp, Vector, memoized
from ainfkit.homotopy import (ObstructionElement, ObstructionWitness, TheoremViolation,
                              _require_uncurved, _solve_multi, arity_part,
                              extend_morphism, invert_homotopy)
from ainfkit.report import FAIL, PASS, CheckReport
from ainfkit.vanish import (FOUND, UnsupportedStructure, detect_augmentation,
                            h_operator, kp_contraction, perturbation_series)

from test_q_head_components import assert_parity_refused
from test_word_cache import (algebra_cases, inversion_case, module_cases,
                             module_mutant, twisted_inversion)


# ---------------------------------------------------------------------------
# the uncached references


def reference_u_curvature(U, cap, full_delta=False):
    """d^2 u = c.u - u.c on every uword, in U(A) and then in U_e(A)."""
    rep = CheckReport("u-curvature", "d^2 = [c,-] on the adjoint algebra",
                      cap)
    if full_delta:
        U = UAlgebra(U.base, full_delta=True)
    c = U.curvature()
    with memoized(U, "d_letter", "differential", "ue_differential"):
        for u in U.uwords(cap):
            uvec = Vector.basis(U.ring, u)
            lhs = U.differential(u).bind(U.differential)
            rhs = c.concat(uvec) - uvec.concat(c)
            if lhs != rhs:
                rep.fail((u, rhs, lhs))
                break
        else:
            for u in U.uwords(cap, eta_free=True):
                uvec = Vector.basis(U.ring, u)
                lhs = U.ue_differential(u).bind(U.ue_differential)
                rhs = (c.concat(uvec) - uvec.concat(c)).bind(U.normal_form)
                if lhs != rhs:
                    rep.fail((("quotient", u), rhs, lhs))
                    break
    return rep


def reference_kp_contraction(M, aug, cap):
    """[B, G] = 1 with B^M, H and the series G applied to whole vectors."""
    H = h_operator(M, aug)

    def B_vec(vec):
        return vec.bind(lambda p: module_coderivation(M, p[0], p[1]))

    def H_vec(vec):
        return vec.bind(H)

    def E_vec(vec):
        return vec - B_vec(H_vec(vec)) - H_vec(B_vec(vec))

    def G(vec):
        guard = 2 + max([len(p[1]) for p in vec.terms] or [0])
        return perturbation_series(H_vec(vec), E_vec, guard,
                                   "the contraction series")[1]

    rep = CheckReport("augmentation-contraction", "[B, G] = 1 (.) 1^(x)",
                      cap)
    for m, alpha in module_words(M, cap):
        v = Vector.basis(M.ring, (m, alpha))
        got_v = B_vec(G(v)) + G(B_vec(v))
        if got_v != v:
            rep.fail(((m, alpha), "the word itself", got_v))
            break
    return G, rep


def reference_invert_homotopy(phi, psi, h, ell, cap):
    """The stagewise inversion with every [B, -] made afresh."""
    M, N = phi.source, phi.target
    ring = phi.ring
    _require_uncurved(M, N)
    if not ring.is_field:
        raise UnsupportedStructure("the inversion stages need field "
                                   "coefficients")
    if hom_differential(phi, cap).support_min() is not None:
        raise ValueError("the morphism to invert must be closed")

    def residual(ps, ho):
        return identity_hom(N, cap).plus(
            compose_hom(phi, ps, cap).negated()).plus(
            hom_differential(ho, cap).negated())

    rep = CheckReport("homotopy-inversion",
                      "stagewise upgrade of an arity-one homotopy "
                      "inverse", cap)
    r0 = residual(psi, h)
    k0 = r0.support_min()
    kpsi = hom_differential(psi, cap).support_min()
    k = min(x for x in (k0, kpsi, cap + 1) if x is not None)
    if k < 1:
        raise TheoremViolation(
            0, "the one-sided homotopy-inverse hypothesis fails at "
            "arity 0", arity_part(r0, 0))
    other = identity_hom(M, cap).plus(
        compose_hom(psi, phi, cap).negated()).plus(
        hom_differential(ell, cap).negated())
    ko = other.support_min()
    if ko is not None and ko < 1:
        raise TheoremViolation(
            0, "the other-sided homotopy-inverse hypothesis fails at "
            "arity 0", arity_part(other, 0))
    psi_hat, h_hat = psi, h
    for stage in range(k, cap + 1):
        ext = extend_morphism(psi_hat, stage, cap)
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
    kc = hom_differential(psi_hat, cap).support_min()
    if kc is not None and kc <= cap:
        rep.fail((("closedness",), "> %d" % cap, kc))
    return psi_hat, h_hat, rep


# ---------------------------------------------------------------------------
# random data


def assert_algebra_parity_refused(A, rng):
    """Adding to b a term of its input's own parity, on a random word of
    one or two letters, makes a family that AInfAlgebra refuses, naming
    the word."""
    words = [w for w in A.shift.words(2, min_len=1)
             if any(A.shift.parity(y) == A.word_parity(w)
                    for y in A.shift.names)]
    w = rng.choice(words)
    y = rng.choice([y for y in A.shift.names
                    if A.shift.parity(y) == A.word_parity(w)])
    b = MultiOp(A.ring, 1, A.b.arity_cap, dict(A.b.table))
    b.set(w, b.apply(w) + Vector.basis(A.ring, (y,),
                                       random_scalar(A.ring, rng, True)))
    with pytest.raises(ValueError, match=re.escape("b entry %r:" % (w,))):
        AInfAlgebra(A.space, A.unit, b)


def curvature_cases(seed):
    """A twisted dga and its one-term mutant."""
    return algebra_cases(seed)[:2]


def hom_mutant(phi, rng):
    """phi plus one term of its degree at a random word (m, (x,)), x not
    the unit letter."""
    M, N, R = phi.source, phi.target, phi.ring
    A = M.algebra
    entries = [(m, (x,), n) for m in M.space.names for x in A.shift.names
               for n in N.space.names if x != A.eta
               and N.space.grading.equal(
                   N.space.degree(n), M.space.degree(m)
                   + A.word_degree((x,)) + phi.degree)]
    m, alpha, n = rng.choice(entries)
    table = dict(phi.table)
    table[(m, alpha)] = phi.apply(m, alpha) + Vector.basis(
        R, n, random_scalar(R, rng, True))
    return HomElement(M, N, phi.degree, table, phi.cap)


def inversion_cases(seed, cap):
    """Inversions of a twisted identity: on a seeded uncurved module, on
    its one-term mutant, with phi or psi given one more term, with a random
    h, and into a second module object equal to the first.  The module's
    wrong-parity mutant is refused on the way."""
    valid = inversion_case(seed, cap)
    phi, psi0, hz, _ = valid
    M = phi.source
    rng = random.Random(seed)
    out = [valid, twisted_inversion(module_mutant(M, rng), rng, cap)]
    assert_parity_refused(M, rng)
    out.append((hom_mutant(phi, rng), psi0, hz, hz))
    out.append((phi, hom_mutant(psi0, rng), hz, hz))
    out.append((phi, psi0, random_hom_perturbation(M, rng, cap), hz))
    N = AInfModule(M.algebra, M.space, dict(M.table), M.arity_cap)

    def rehome(x, source, target):
        return HomElement(source, target, x.degree, x.table, x.cap)

    out.append((rehome(phi, M, N), rehome(psi0, N, M),
                rehome(hz, N, N), hz))
    return out


def inversion_outcome(invert, args, cap):
    """The tables and report of an inversion, or its exception: type,
    message, stage and witness tables."""
    try:
        psi_hat, h_hat, rep = invert(*args, cap)
    except (TheoremViolation, UnsupportedStructure, ValueError) as exc:
        wit = getattr(exc, "witness", None)
        if isinstance(wit, ObstructionElement):
            wit = (wit.stage, wit.rep.table)
        elif wit is not None:
            wit = wit.table
        return type(exc).__name__, str(exc), getattr(exc, "stage", None), wit
    return psi_hat.table, h_hat.table, rep.to_dict()


# ---------------------------------------------------------------------------
# the comparisons


def test_letter_decision_matches_the_uword_reference(monkeypatch):
    enumerated = []
    uwords = UAlgebra.uwords

    def recording(self, cap, eta_free=False):
        enumerated.append(cap)
        return uwords(self, cap, eta_free)

    monkeypatch.setattr(UAlgebra, "uwords", recording)
    seen = {}
    for seed in range(16):
        cases = curvature_cases(seed)
        assert_algebra_parity_refused(cases[0], random.Random(seed))
        for kind, A in enumerate(cases):
            for cap in (2, 3, 4):
                for full_delta in (False, True):
                    U = UAlgebra(A)
                    enumerated.clear()
                    rep = check_u_curvature(U, cap, full_delta)
                    fallback = bool(enumerated)
                    assert rep.to_dict() == reference_u_curvature(
                        U, cap, full_delta).to_dict(), (seed, kind, cap)
                    seen.setdefault((kind, full_delta), set()).add(
                        rep.verdict)
                    # a PASS visits letters only; the full-Delta mutant
                    # and a failing letter enumerate uwords
                    assert fallback == (full_delta
                                        or not rep.passed), (seed, kind)
    assert seen[(0, False)] == {PASS}
    assert seen[(0, True)] == {FAIL}
    assert FAIL in seen[(1, False)]


def test_a_curvature_pass_visits_letters_only(monkeypatch):
    args = []
    differential = UAlgebra.differential

    def recording(self, u):
        args.append(u)
        return differential(self, u)

    monkeypatch.setattr(UAlgebra, "differential", recording)
    monkeypatch.setattr(UAlgebra, "uwords", None)
    for seed in range(4):
        U = UAlgebra(curvature_cases(seed)[0])
        args.clear()
        assert check_u_curvature(U, 4).passed
        # each top-level visit is a letter; the other uwords d is applied
        # to are the terms of d on those letters and their normal forms
        # (d^2 on a letter, in U(A) and in U_e(A))
        letters = {(lt,) for lt in U.letters(4)}
        reached = {u for lt in letters for u in differential(U, lt).terms}
        reached |= {v for u in reached for v in U.normal_form(u).terms}
        assert letters <= set(args) <= letters | reached


def test_cached_contraction_matches_the_whole_vector_reference():
    seen = {}
    for seed in range(16):
        M, scaled = module_cases(seed)
        search = detect_augmentation(M.algebra)
        if search.status != FOUND:
            continue
        aug = search.augmentation
        assert_parity_refused(M, random.Random(seed))
        for kind, N in enumerate((M, scaled)):
            for cap in (2, 3, 4):
                G, rep = kp_contraction(N, aug, cap)
                G_ref, ref = reference_kp_contraction(N, aug, cap)
                assert rep.to_dict() == ref.to_dict(), (seed, kind, cap)
                seen.setdefault(kind, set()).add(rep.verdict)
                for word in module_words(N, 2):
                    v = Vector.basis(N.ring, word)
                    assert G(v) == G_ref(v)
    assert seen[0] == {PASS}
    assert FAIL in seen[1]


@pytest.mark.parametrize("seed", range(16))
def test_cached_inversion_matches_the_uncached_reference(seed):
    cap = 2 + seed % 3
    outcomes = []
    for i, args in enumerate(inversion_cases(seed, cap)):
        got = inversion_outcome(invert_homotopy, args, cap)
        modules = [check_module(S, cap).passed
                   for S in (args[0].source, args[0].target)]
        if i == 1:
            # the one-term module mutant is not a module, so its inversion
            # is refused before any stage
            assert modules == [False, False], seed
            assert got[0] == "ValueError", got
            assert got[1].startswith("the source must be a module"), got
        else:
            assert modules == [True, True], (seed, i)
            assert got == inversion_outcome(reference_invert_homotopy,
                                            args, cap), (seed, i)
        outcomes.append(got)
    # the valid inversion passes, also into a second module object
    assert outcomes[0][2]["verdict"] == PASS
    assert outcomes[-1][2] == outcomes[0][2]
