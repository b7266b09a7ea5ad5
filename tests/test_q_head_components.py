"""The head-component Q ~ 1 checks against their whole-word references.

check_q_homotopy, check_lambda_closed and check_epsilon_closed compare, on
each word, the component of their identity into the empty right word.  The
functions below keep the whole-word comparisons they replaced.  The seeded
test runs both forms on module_pqab modules and on one-term scaled mutants
and asserts the same verdict, the same first failing word and the same
difference of the two sides there.  A wrong-parity mutant, on which the
head component would not decide the identity, cannot be built.
"""

import random
import re

import pytest

from ainfkit.adjoint import module_to_ue
from ainfkit.ainf import AInfModule, module_coderivation, module_words
from ainfkit.fixtures import random_scalar
from ainfkit.graded import Vector
from ainfkit.qmod import (check_epsilon_closed, check_lambda_closed,
                          check_q_homotopy, epsilon_operator, h_operator,
                          lambda_operator, q_module, reduce_middle)
from ainfkit.report import FAIL, PASS, CheckReport

from test_word_cache import module_cases


# ---------------------------------------------------------------------------
# the whole-word references


def reference_lambda_closed(Q, cap):
    """B^Q lambda = lambda B^M on whole words."""
    rep = CheckReport("lambda-closed", "the unit inclusion is closed", cap)
    M = Q.M
    for m, alpha in module_words(M, cap):
        lhs = lambda_operator(Q, m, alpha).bind(
            lambda p: module_coderivation(Q, *p))
        rhs = module_coderivation(M, m, alpha).bind(
            lambda p: lambda_operator(Q, *p))
        if lhs != rhs:
            return rep.fail(((m, alpha), rhs, lhs))
    return rep


def reference_epsilon_closed(Q, cap):
    """B^M epsilon = epsilon B^Q on whole words."""
    rep = CheckReport("epsilon-closed", "the counit projection is closed",
                      cap)
    M = Q.M
    EM = module_to_ue(M)

    def E(p):
        return epsilon_operator(Q, EM, *p)

    for t, beta in module_words(Q, cap):
        lhs = E((t, beta)).bind(lambda p: module_coderivation(M, *p))
        rhs = module_coderivation(Q, t, beta).bind(E)
        if lhs != rhs:
            return rep.fail(((t, beta), rhs, lhs))
    return rep


def reference_q_homotopy(Q, cap):
    """R(BH + HB + lambda epsilon) = 1 on whole words with a unit-free
    middle slot."""
    rep = CheckReport("q-homotopy", "BH + HB = 1 - lambda epsilon "
                      "on the reduced word space", cap)
    EM = module_to_ue(Q.M)
    eta = Q.M.algebra.eta

    def B(p):
        return module_coderivation(Q, *p)

    def H(p):
        return h_operator(Q, EM, *p)

    for t, beta in module_words(Q, cap):
        if eta in t[1]:
            continue
        w = (t, beta)
        lam_eps = epsilon_operator(Q, EM, t, beta).bind(
            lambda p: lambda_operator(Q, *p))
        got = reduce_middle(Q, H(w).bind(B) + B(w).bind(H) + lam_eps)
        if got != Vector.basis(Q.ring, w):
            return rep.fail((w, Vector.basis(Q.ring, w), got))
    return rep


# ---------------------------------------------------------------------------
# random data


def parity_mutant(M, rng):
    """M's table with one entry given a term of its input's own parity,
    the parity a degree-one family never reaches, and that entry's key."""
    R = M.ring
    m, alpha = rng.choice(sorted(M.table))
    want = (M.m_parity(m) + M.algebra.word_parity(alpha)) % 2
    n = rng.choice([n for n in M.space.names if M.m_parity(n) == want])
    table = dict(M.table)
    table[(m, alpha)] = table[(m, alpha)] + Vector.basis(
        R, n, random_scalar(R, rng, True))
    return table, (m, alpha)


def assert_parity_refused(M, rng):
    """Building M's wrong-parity mutant raises ValueError naming the
    mutated entry."""
    table, key = parity_mutant(M, rng)
    with pytest.raises(ValueError, match=re.escape("b^M entry %r:" % (key,))):
        AInfModule(M.algebra, M.space, table, M.arity_cap)


CHECKS = ((check_q_homotopy, reference_q_homotopy),
          (check_lambda_closed, reference_lambda_closed),
          (check_epsilon_closed, reference_epsilon_closed))


def same_outcome(new, old):
    """Same verdict; on a failure, the same word and the same difference of
    the two sides there."""
    assert new.verdict == old.verdict, (new.witness, old.witness)
    if new.passed:
        return
    assert new.witness[0] == old.witness[0], (new.witness, old.witness)
    assert new.witness[2] - new.witness[1] \
        == old.witness[2] - old.witness[1], new.witness[0]


# ---------------------------------------------------------------------------
# the comparison


def test_head_components_match_the_whole_word_references():
    seen = {}
    for seed in range(9):
        cap = 2 + seed % 3
        for kind, M in enumerate(module_cases(seed)):
            Q = q_module(M)
            for check, reference in CHECKS:
                rep = check(Q, cap)
                same_outcome(rep, reference(Q, cap))
                seen.setdefault((check.__name__, kind), set()).add(
                    rep.verdict)
        assert_parity_refused(module_cases(seed)[0], random.Random(seed))
    # the unit inclusion is closed for every module table (its packing
    # terms cancel pairwise); the other checks meet both verdicts on the
    # mutants, so neither form agrees vacuously
    for (name, kind), verdicts in seen.items():
        if name == "check_lambda_closed" or kind == 0:
            assert verdicts == {PASS}, (name, kind, verdicts)
    for name in ("check_q_homotopy", "check_epsilon_closed"):
        assert FAIL in seen[(name, 1)], name
