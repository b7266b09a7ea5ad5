"""Parity is an invariant of construction.

AInfAlgebra, AInfModule and TableBimodule refuse a family that is not
homogeneous and odd, naming the entry and the term, and AInfAlgebra refuses
a unit of odd degree.  The structure checks therefore never re-decide
parity: check_algebra always visits the support words of its table, and so
do check_module and check_bimodule on a table over passing algebras.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit.ainf import (AInfAlgebra, AInfModule, TableBimodule,
                          check_algebra, check_bimodule, check_module)
from ainfkit.fixtures import (diagonal_bimodule, dga_rank2, module_pqab,
                              random_scalar, random_unital_table)
from ainfkit.graded import GradedSpace, MultiOp, Vector
from ainfkit.rings import IntegersMod, Rationals

from test_letter_components import twisted
from test_support_words import (algebra_mutant, passes, random_bimodule,
                                random_module, support_calls, valid_dga)

F7 = IntegersMod(7)


def refused(build, family, key, term):
    """Building the structure raises ValueError naming entry and term."""
    with pytest.raises(ValueError, match=re.escape(
            "%s entry %r: term %r does not have the parity of its key "
            "plus one" % (family, key, term))):
        build()


def wrong_parity_mutants(table, names, parity_of, key_parity, wrap):
    """Every one-term mutant of the table with a term of the parity of its
    key: (mutated table, key, term)."""
    for k in table:
        for n in names:
            if parity_of(n) == key_parity(k) % 2:
                t = wrap(n)
                out = dict(table)
                out[k] = table[k] + Vector.basis(F7, t, 3)
                yield out, k, t


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_homogeneous_tables_build_and_wrong_parity_mutants_do_not(seed):
    rng = random.Random(seed)
    A = random_unital_table(F7, 3, 2, rng)
    M = random_module(A, rng, cap=2)
    V = random_bimodule(A, rng, cap=1)
    for b, k, t in wrong_parity_mutants(
            A.b.table, A.shift.names, A.letter_parity, A.word_parity,
            lambda n: (n,)):
        refused(lambda: AInfAlgebra(A.space, A.unit,
                                    MultiOp(F7, 1, A.arity_cap, b)),
                "b", k, t)
    # the module and bimodule letters x and y have both parities, so each
    # of their entries has one wrong-parity mutant
    count = 0
    for table, k, t in wrong_parity_mutants(
            M.table, M.space.names, M.m_parity,
            lambda k: M.m_parity(k[0]) + A.word_parity(k[1]),
            lambda n: n):
        refused(lambda: AInfModule(A, M.space, table, M.arity_cap),
                "b^M", k, t)
        count += 1
    for table, k, t in wrong_parity_mutants(
            V.table, V.space.names, V.v_parity,
            lambda k: A.word_parity(k[0]) + V.v_parity(k[1])
            + A.word_parity(k[2]), lambda n: n):
        refused(lambda: TableBimodule(A, A, V.space, table), "b^V", k, t)
        count += 1
    assert count == len(M.table) + len(V.table)


def test_an_odd_unit_is_refused():
    A = dga_rank2(F7, 2, 3, 4).algebra
    space = GradedSpace(F7, A.space.grading,
                        [(n, d + (n == A.unit))
                         for n, d in A.space.gens.items()])
    with pytest.raises(ValueError, match="unit 'e' has odd degree 1"):
        AInfAlgebra(space, A.unit, A.b)


def test_structure_checks_never_enumerate_every_word(monkeypatch):
    # check_algebra never enumerates A's words, and a table module or
    # bimodule over passing algebras always takes its support words
    enumerated = []
    real = AInfAlgebra.words

    def counting(self, cap, min_len=0):
        enumerated.append(cap)
        return real(self, cap, min_len)

    monkeypatch.setattr(AInfAlgebra, "words", counting)
    calls = support_calls(monkeypatch)
    checked = 0
    for seed in range(8):
        rng = random.Random(seed)
        R = F7 if seed % 2 else Rationals()
        cap = 2 + seed % 3
        tw, _ = twisted(R, rng, seed % 3 != 0)
        D = valid_dga(R, rng)
        table = random_unital_table(R, 3, 3, rng)
        for A in (tw, D.algebra, table, algebra_mutant(tw, rng)):
            del enumerated[:]
            check_algebra(A, cap)
            assert not enumerated, seed
        _, M = module_pqab(R, *(random_scalar(R, rng) for _ in range(4)))
        for check, S in (
                (check_module, M),
                (check_module, random_module(D.algebra, rng)),
                (check_module, random_module(table, rng)),
                (check_bimodule, diagonal_bimodule(D)),
                (check_bimodule, random_bimodule(D.algebra, rng)),
                (check_bimodule, random_bimodule(table, rng))):
            algebras = (S.algebra,) if check is check_module \
                else (S.left, S.right)
            if not all(passes(B, cap) for B in algebras):
                continue
            del enumerated[:], calls[:]
            check(S, cap)
            assert not enumerated, (seed, check.__name__)
            assert tuple(S.space.names) in calls, (seed, check.__name__)
            checked += 1
    # M, the random module and the two bimodules over the dga, every seed
    assert checked >= 4 * 8
