"""The structure checks on support words against the full enumeration.

check_algebra visits only the support words of its table, check_module and
check_bimodule do so for a table whose base algebras pass, and
check_module_units and check_bimodule_units visit only the table entries.
The functions below keep the enumeration of every word up to the cap.  The
seeded tests run both forms over Z/7 and Q at caps 2-5 and assert equal
reports, on valid structures, on random tables, on one-term mutants of the
right parity, on modules and bimodules over a mutated algebra, and on a
TensorModule and a UeBimodule, which have no table.  One-term mutants of
the wrong parity cannot be built: the constructors refuse them, naming the
mutated entry.
"""

import random
import re

import pytest

from ainfkit import ainf
from ainfkit.ainf import (AInfAlgebra, AInfModule, TableBimodule,
                          _structure_check, bimodule_coderivation,
                          bimodule_words, check_algebra, check_bimodule,
                          check_bimodule_units, check_module,
                          check_module_units, check_unit_laws,
                          module_coderivation, module_words)
from ainfkit.fixtures import (dga_rank2, dga_two_odd, diagonal_bimodule,
                              module_pqab, random_scalar,
                              random_unital_table)
from ainfkit.graded import GradedSpace, Grading, MultiOp, Vector, sign
from ainfkit.qmod import UeBimodule, q_module
from ainfkit.report import FAIL, PASS, CheckReport
from ainfkit.rings import IntegersMod, Rationals

from test_letter_components import twisted

F7 = IntegersMod(7)


# ---------------------------------------------------------------------------
# the full enumeration


def reference_module_units(M, cap):
    rep = CheckReport("module-units", "b^M_2(m,eta) = -(-1)^{|m|} m; "
                      "other eta components vanish", cap)
    ring = M.ring
    e = M.algebra.eta
    for m, wt in M.basis(cap):
        got = M.b_apply(m, (e,))
        want = Vector.basis(ring, m, ring.from_int(-sign(M.m_parity(m))))
        if got != want:
            return rep.fail(((m, (e,)), want, got))
        for alpha in M.algebra.words(cap - wt, min_len=2):
            if e in alpha:
                got = M.b_apply(m, alpha)
                if not got.is_zero():
                    return rep.fail(((m, alpha), "0", got))
    return rep


def reference_bimodule_units(V, cap):
    rep = CheckReport("bimodule-units", "unit letters act as identity in "
                      "arity two, vanish beyond", cap)
    ring = V.ring
    el, er = V.left.eta, V.right.eta
    for v, wt in V.basis(cap):
        got = V.b_apply((el,), v, ())
        if got != Vector.basis(ring, v):
            return rep.fail((((el,), v, ()), "v", got))
        got = V.b_apply((), v, (er,))
        want = Vector.basis(ring, v, ring.from_int(-sign(V.v_parity(v))))
        if got != want:
            return rep.fail((((), v, (er,)), want, got))
        budget = cap - wt
        for k in range(budget + 1):
            for alpha in V.left.words(k, min_len=k):
                for alpha2 in V.right.words(budget - k):
                    if k + 1 + len(alpha2) <= 2:
                        continue
                    if el in alpha or er in alpha2:
                        got = V.b_apply(alpha, v, alpha2)
                        if not got.is_zero():
                            return rep.fail(((alpha, v, alpha2), "0", got))
    return rep


def reference_algebra(A, cap):
    return _structure_check(
        CheckReport("algebra", "b(B) = 0 and B^2 = 0", cap),
        A.words(cap), A.B, A.b.apply, check_unit_laws(A))


def reference_module(M, cap):
    return _structure_check(
        CheckReport("module", "b^M(B^M) = 0 and (B^M)^2 = 0", cap),
        module_words(M, cap), lambda mw: module_coderivation(M, *mw),
        lambda mw: M.b_apply(*mw), reference_module_units(M, cap))


def reference_bimodule(V, cap):
    return _structure_check(
        CheckReport("bimodule", "b^V(B^V) = 0 and (B^V)^2 = 0", cap),
        bimodule_words(V, cap), lambda w: bimodule_coderivation(V, *w),
        lambda w: V.b_apply(*w), reference_bimodule_units(V, cap))


# ---------------------------------------------------------------------------
# random data


def term(rng, R, names, parity_of, want):
    """A random nonzero multiple of a generator of parity ``want``, or
    None when there is none."""
    ns = [n for n in names if parity_of(n) == want % 2]
    return Vector.basis(R, rng.choice(ns), random_scalar(R, rng, True)) \
        if ns else None


def family_mutant(A, rng, odd=True):
    """A's b plus one term at a random unit-free word (the empty one
    included), of the parity a degree-one family reaches, or of the other
    one; and that word."""
    S = A.shift
    words = [w for w in S.words(A.arity_cap) if A.eta not in w]
    while True:
        w = rng.choice(words)
        t = term(rng, A.ring, S.names, S.parity, S.word_parity(w) + odd)
        if t is not None:
            break
    b = MultiOp(A.ring, 1, A.arity_cap, dict(A.b.table))
    b.set(w, b.apply(w) + t.map_words(lambda x: (x,)))
    return b, w


def algebra_mutant(A, rng):
    """A with a one-term mutant of b of the right parity."""
    return AInfAlgebra(A.space, A.unit, family_mutant(A, rng)[0])


def refused(build, family, key):
    """Building the structure raises ValueError naming the entry."""
    with pytest.raises(ValueError,
                       match=re.escape("%s entry %r:" % (family, key))):
        build()


def table_mutant(table, rng, keys, names, parity_of, key_parity, odd=True):
    """The table plus one term, of the parity a degree-one family reaches
    or of the other one, at a random key among ``keys``; and that key."""
    R = next(iter(table.values())).ring
    while True:
        k = rng.choice(keys)
        t = term(rng, R, names, parity_of, key_parity(k) + odd)
        if t is not None:
            break
    out = dict(table)
    out[k] = out.get(k, Vector.zero(R)) + t
    return out, k


def random_module(A, rng, density=0.4, cap=3):
    """A random homogeneous strictly unital table module over A on an even
    x and an odd y; the structure relation is not imposed."""
    R = A.ring
    space = GradedSpace(R, Grading(2), [("x", 0), ("y", 1)])
    table = {}
    for m in space.names:
        table[(m, (A.eta,))] = Vector.basis(
            R, m, R.from_int(-sign(space.parity(m))))
        for alpha in A.words(cap):
            if A.eta in alpha or rng.random() > density:
                continue
            t = term(rng, R, space.names, space.parity,
                     space.parity(m) + A.word_parity(alpha) + 1)
            table[(m, alpha)] = t
    return AInfModule(A, space, table, cap)


def random_bimodule(A, rng, density=0.4, cap=2):
    """A random homogeneous strictly unital table bimodule over A on both
    sides, on an even x and an odd y."""
    R = A.ring
    space = GradedSpace(R, Grading(2), [("x", 0), ("y", 1)])
    table = {}
    for v in space.names:
        table[((A.eta,), v, ())] = Vector.basis(R, v)
        table[((), v, (A.eta,))] = Vector.basis(
            R, v, R.from_int(-sign(space.parity(v))))
        for k in range(cap + 1):
            for a in A.words(k, min_len=k):
                for a2 in A.words(cap - k):
                    if A.eta in a + a2 or rng.random() > density:
                        continue
                    table[(a, v, a2)] = term(
                        rng, R, space.names, space.parity,
                        A.word_parity(a) + space.parity(v)
                        + A.word_parity(a2) + 1)
    return TableBimodule(A, A, space, table)


def module_variants(M, rng):
    """M's one-term mutant of the right parity, the table and key of its
    wrong-parity mutant (at a unit-free key with at most two algebra
    letters), and M over a mutated algebra."""
    A = M.algebra

    def key_parity(k):
        return M.m_parity(k[0]) + A.word_parity(k[1])

    keys = [(m, a) for m in M.space.names for a in A.words(2)
            if A.eta not in a]

    def mutant(odd):
        return table_mutant(M.table, rng, keys, M.space.names, M.m_parity,
                            key_parity, odd)

    return (AInfModule(A, M.space, mutant(True)[0], M.arity_cap),
            mutant(False),
            AInfModule(algebra_mutant(A, rng), M.space, M.table,
                       M.arity_cap))


def bimodule_variants(V, rng):
    """V's one-term mutant of the right parity, the table and key of its
    wrong-parity mutant (at a unit-free key with at most two algebra
    letters), V over a mutated left algebra and V over a mutated right
    one."""
    A, A2 = V.left, V.right

    def key_parity(k):
        return A.word_parity(k[0]) + V.v_parity(k[1]) + A2.word_parity(k[2])

    keys = [(a, v, a2) for v in V.space.names for k in range(3)
            for a in A.words(k, min_len=k) for a2 in A2.words(2 - k)
            if A.eta not in a and A2.eta not in a2]

    def mutant(odd):
        return table_mutant(V.table, rng, keys, V.space.names, V.v_parity,
                            key_parity, odd)

    return (TableBimodule(A, A2, V.space, mutant(True)[0]), mutant(False),
            TableBimodule(algebra_mutant(A, rng), A2, V.space, V.table),
            TableBimodule(A, algebra_mutant(A2, rng), V.space, V.table))


def valid_dga(R, rng, rank3=True):
    """A seeded dga_rank2, or half the time a dga_two_odd if ``rank3``."""
    if rank3 and rng.random() < 0.5:
        return dga_two_odd(R, random_scalar(R, rng))
    return dga_rank2(R, *(random_scalar(R, rng) for _ in range(3)))


# ---------------------------------------------------------------------------
# the comparisons


def support_calls(monkeypatch):
    """Record the heads argument of every support_words call."""
    calls = []
    real = ainf.support_words

    def recording(entries, left, right, heads, cap):
        calls.append(tuple(heads))
        return real(entries, left, right, heads, cap)

    monkeypatch.setattr(ainf, "support_words", recording)
    return calls


def passes(A, cap):
    """Whether b(B) = 0 on A's words up to the cap (the mutants keep the
    unit laws)."""
    return reference_algebra(A, cap).passed


def compare(check, reference, structure, cap, calls, heads, supported,
            seen, kind):
    """Equal reports from the check and its reference; the support words
    were used exactly when ``supported``."""
    del calls[:]
    rep = check(structure, cap)
    assert rep.to_dict() == reference(structure, cap).to_dict(), (kind, cap)
    assert (heads in calls) == supported, (kind, calls)
    seen.setdefault(kind, set()).add(rep.verdict)


def test_algebra_support_matches_the_full_enumeration(monkeypatch):
    calls = support_calls(monkeypatch)
    seen = {}
    for seed in range(16):
        rng = random.Random(seed)
        R = F7 if seed % 2 else Rationals()
        cap = 2 + seed % 4
        tw, _ = twisted(R, rng, seed % 3 != 0)
        table = random_unital_table(R, 3, 3, rng)
        for kind, A in (
                ("twisted", tw),
                ("dga", valid_dga(R, rng).algebra),
                ("random", table),
                ("mutant", algebra_mutant(tw, rng)),
                ("random-mutant", algebra_mutant(table, rng))):
            compare(check_algebra, reference_algebra, A, cap, calls,
                    (None,), True, seen, kind)
        b, w = family_mutant(tw, rng, False)
        refused(lambda: AInfAlgebra(tw.space, tw.unit, b), "b", w)
    # twisted algebras are exact up to arity 4, so they may fail at cap 5
    assert seen["dga"] == {PASS} and PASS in seen["twisted"]
    for kind in ("random", "mutant", "random-mutant"):
        assert FAIL in seen[kind], kind


def test_module_support_matches_the_full_enumeration(monkeypatch):
    calls = support_calls(monkeypatch)
    seen = {}
    for seed in range(12):
        rng = random.Random(seed)
        R = F7 if seed % 2 else Rationals()
        cap = 2 + seed % 4
        _, M = module_pqab(R, *(random_scalar(R, rng) for _ in range(4)))
        rand = random_module(valid_dga(R, rng).algebra, rng)
        heads = tuple(M.space.names)
        for name, N in (("pqab", M), ("random", rand)):
            mutant, (table, key), over_mutant = module_variants(N, rng)
            refused(lambda: AInfModule(N.algebra, N.space, table,
                                       N.arity_cap), "b^M", key)
            for kind, P, supported in (
                    (name, N, True), (name + "-mutant", mutant, True),
                    ("over-mutant", over_mutant,
                     passes(over_mutant.algebra, cap))):
                compare(check_module, reference_module, P, cap, calls,
                        heads, supported, seen, kind)
        if cap <= 3:
            compare(check_module, reference_module, q_module(M), cap,
                    calls, heads, False, seen, "tensor")
    assert seen["pqab"] == seen["tensor"] == {PASS}
    for kind in ("random", "pqab-mutant", "random-mutant", "over-mutant"):
        assert FAIL in seen[kind], kind


def test_bimodule_support_matches_the_full_enumeration(monkeypatch):
    calls = support_calls(monkeypatch)
    seen = {}
    for seed in range(8):
        rng = random.Random(seed)
        R = F7 if seed % 2 else Rationals()
        cap = 2 + seed % 4
        # the full enumeration over three letters is slow beyond cap 3
        D = valid_dga(R, rng, cap <= 3)
        diag = diagonal_bimodule(D)
        rand = random_bimodule(D.algebra, rng)
        for name, V in (("diagonal", diag), ("random", rand)):
            heads = tuple(V.space.names)
            mutant, (table, key), over_left, over_right = \
                bimodule_variants(V, rng)
            refused(lambda: TableBimodule(V.left, V.right, V.space, table),
                    "b^V", key)
            for kind, W, supported in (
                    (name, V, True), (name + "-mutant", mutant, True),
                    ("over-mutant", over_left, passes(over_left.left, cap)),
                    ("over-mutant", over_right,
                     passes(over_right.right, cap))):
                compare(check_bimodule, reference_bimodule, W,
                        cap, calls, heads, supported, seen, kind)
        if cap <= 3:
            compare(check_bimodule, reference_bimodule,
                    UeBimodule(D.algebra), cap, calls, (), False, seen, "ue")
    assert seen["diagonal"] == seen["ue"] == {PASS}
    for kind in ("random", "diagonal-mutant", "random-mutant",
                 "over-mutant"):
        assert FAIL in seen[kind], kind


def test_bimodule_groups_compare_alpha_before_the_right_length():
    """Sparse random bimodules whose first failing word is followed, in its
    (v, len(alpha)) group, by a failing word with a shorter alpha2: a group
    sorted by len(alpha2) before alpha would report that word instead."""
    for seed in (117, 169):
        rng = random.Random(seed)
        V = random_bimodule(valid_dga(F7, rng).algebra, rng, density=0.15)
        rep = check_bimodule(V, 3)
        assert rep.to_dict() == reference_bimodule(V, 3).to_dict()
        alpha, v, alpha2 = rep.witness[0]
        assert any(
            not bimodule_coderivation(V, *w).bind(
                lambda t: V.b_apply(*t)).is_zero()
            for w in bimodule_words(V, 3)
            if w[1] == v and len(w[0]) == len(alpha)
            and len(w[2]) < len(alpha2)), seed


def test_units_visit_the_table_entries():
    """Unit-law mutants: a term of the right parity at a word holding the
    unit letter."""
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        R = F7 if seed % 2 else Rationals()
        cap = 2 + seed % 4
        D, M = module_pqab(R, *(random_scalar(R, rng) for _ in range(4)))
        A, e = M.algebra, M.algebra.eta
        table = dict(M.table)
        alpha = rng.choice([a for a in A.words(3, min_len=2) if e in a])
        m = rng.choice(M.space.names)
        table[(m, alpha)] = term(rng, R, M.space.names, M.m_parity,
                                 M.m_parity(m) + A.word_parity(alpha) + 1)
        for N in (M, AInfModule(A, M.space, table, 3)):
            rep = check_module_units(N, cap)
            assert rep.to_dict() == reference_module_units(N, cap).to_dict()
            seen.add(("module", rep.verdict))
        V = diagonal_bimodule(D)
        table = dict(V.table)
        a, a2 = rng.choice([(a[:k], a[k:]) for a in A.words(3, min_len=2)
                            if e in a for k in range(len(a) + 1)])
        v = rng.choice(V.space.names)
        table[(a, v, a2)] = term(rng, R, V.space.names, V.v_parity,
                                 A.word_parity(a) + V.v_parity(v)
                                 + A.word_parity(a2) + 1)
        for W in (V, TableBimodule(A, A, V.space, table)):
            rep = check_bimodule_units(W, cap)
            assert rep.to_dict() \
                == reference_bimodule_units(W, cap).to_dict()
            seen.add(("bimodule", rep.verdict))
    assert len(seen) == 4, seen


# ---------------------------------------------------------------------------
# what the checks visit


def test_visits_do_not_grow_with_the_cap(monkeypatch):
    """Past the length of its support words, a valid structure's check
    makes the same coderivation calls at every cap."""
    visits = []
    real_B, real_module = ainf.AInfAlgebra.B, ainf.module_coderivation

    def B(self, w):
        visits.append(w)
        return real_B(self, w)

    def module_B(M, m, alpha):
        visits.append((m, alpha))
        return real_module(M, m, alpha)

    monkeypatch.setattr(ainf.AInfAlgebra, "B", B)
    monkeypatch.setattr(ainf, "module_coderivation", module_B)

    def calls(check, structure, cap):
        del visits[:]
        assert check(structure, cap).verdict == PASS
        return list(visits)

    A = dga_rank2(F7, 2, 3, 4).algebra
    assert len(list(ainf._algebra_support(A, 12))) == 13
    at5 = calls(check_algebra, A, 5)
    assert calls(check_algebra, A, 8) == at5 == calls(check_algebra, A, 12)
    _, M = module_pqab(Rationals(), 1, 2, 3, 4)
    at5 = calls(check_module, M, 5)
    assert calls(check_module, M, 7) == at5
    assert len(at5) < len(list(module_words(M, 5)))


def test_support_words_are_made_one_length_at_a_time(monkeypatch):
    """A dense failing table: no support word longer than the first
    failing word is ever built."""
    made = []
    real = ainf._spliced

    def recording(word, p, inner):
        made.append(real(word, p, inner))
        return made[-1]

    monkeypatch.setattr(ainf, "_spliced", recording)
    lengths = set()
    for seed in range(3):
        A = random_unital_table(F7, 5, 5, random.Random(seed))
        for cap in (2, 3, 4):
            del made[:]
            rep = check_algebra(A, cap)
            assert rep.verdict == FAIL and rep.details["paths_agree"]
            n = len(rep.witness[0])
            assert made and max(len(w) for w in made) == n, (seed, cap)
            lengths.add(n)
    assert len(lengths) > 1
