"""Koszul machinery: signs, coderivations, geometric series, coproducts."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from ainfkit.adjoint import UAlgebra, inclusion_extended
from ainfkit.ainf import AInfAlgebra, AInfMorphism
from ainfkit.graded import (GradedSpace, Grading, MultiOp, Vector, comultiply,
                            geometric_extend, insert_blocks, sandwich, sign)
from ainfkit.homotopy import AInfHomotopy
from ainfkit.qmod import ue_functor
from ainfkit.rings import Integers, IntegersMod

Z = Integers()
F5 = IntegersMod(5)


def parities(table):
    return lambda x: table[x]


# -- brute-force splitting reference ----------------------------------------


def compositions(word, max_block):
    """All ordered splittings of a word into nonempty blocks of bounded
    size."""
    if not word:
        yield ()
        return
    for ln in range(1, min(max_block, len(word)) + 1):
        for rest in compositions(word[ln:], max_block):
            yield (word[:ln],) + rest


def koszul_apply(ops, blocks, block_parity, ring):
    """(op_1 (x) ... (x) op_k)(block_1 (x) ... (x) block_k): the slot images
    concatenated, with the sign (-1)^{sum_k |op_k| (|block_1| + ... +
    |block_{k-1}|)}."""
    s = pre = 0
    out = Vector.basis(ring, ())
    for (deg, fn), blk in zip(ops, blocks):
        s += deg * pre
        pre += block_parity(blk)
        out = out.concat(fn(blk))
    return out.scaled(ring.from_int(sign(s)))


def reference_extend(word, max_block, ops_for, block_parity, ring):
    """Sum of ``koszul_apply`` over every splitting; ``ops_for(k)`` lists
    the slot operations of the splittings into k blocks (several lists for
    a sum over marked blocks)."""
    out = Vector(ring)
    for split in compositions(word, max_block):
        for ops in ops_for(len(split)):
            out = out + koszul_apply(ops, split, block_parity, ring)
    return out


def random_family(rng, ring, degree, names, arity_cap, out_len=1):
    op = MultiOp(ring, degree, arity_cap)
    for ln in range(1, arity_cap + 1):
        for w in itertools.product(names, repeat=ln):
            val = Vector(ring)
            for y in itertools.product(names, repeat=out_len):
                c = rng.randrange(5)
                if c and rng.random() < 0.6:
                    val.add_term(y, c)
            op.set(w, val)
    return op


# shifted degrees: e and a are odd letters, b is even
SPACE = GradedSpace(F5, Grading(2), [("e", 0), ("a", 0), ("b", 1)])
SHIFT = SPACE.shifted()
WORDS = [w for ln in range(5) for w in itertools.product(SHIFT.names,
                                                         repeat=ln)]


def test_koszul_two_slot_sign_oracle():
    # (phi (x) psi)(x (x) y) = (-1)^{|psi||x|} phi(x) (x) psi(y)
    phi = (1, lambda w: Vector.basis(Z, ("p",)))
    psi = (1, lambda w: Vector.basis(Z, ("q",)))
    par = parities({"x": 1, "y": 0})

    def word_par(blk):
        return sum(par(t) for t in blk) % 2

    out = koszul_apply([phi, psi], [("x",), ("y",)], word_par, Z)
    assert out.terms == {("p", "q"): -1}
    out = koszul_apply([phi, psi], [("y",), ("x",)], word_par, Z)
    assert out.terms == {("p", "q"): 1}
    # the geometric series of one odd family carries the same signs
    op = MultiOp(Z, 1, 1, {("x",): Vector.basis(Z, ("p",)),
                           ("y",): Vector.basis(Z, ("q",))})
    assert geometric_extend(op, ("x", "y"), word_par).terms == {
        ("p", "q"): -1}
    assert geometric_extend(op, ("y", "x"), word_par).terms == {
        ("q", "p"): 1}


def test_sandwich_oracle():
    # op(a) = b, op(aa) = a, |a| odd, |b| even, |op| = 1:
    # B(aa) = (b,a) - (a,b) + (a)
    op = MultiOp(Z, 1, 2)
    op.set(("a",), Vector.basis(Z, ("b",)))
    op.set(("a", "a"), Vector.basis(Z, ("a",)))
    par = parities({"a": 1, "b": 0})
    out = sandwich(op, ("a", "a"), par)
    assert out.terms == {("b", "a"): 1, ("a", "b"): -1, ("a",): 1}


def test_sandwich_arity_zero_insertions():
    # an arity-0 entry is inserted at every slot with the prefix sign
    op = MultiOp(Z, 1, 2)
    op.set((), Vector.basis(Z, ("c",)))
    par = parities({"a": 1, "c": 0})
    out = sandwich(op, ("a", "a"), par)
    # positions 0,1,2 with signs +,-,+
    assert out.terms == {("c", "a", "a"): 1, ("a", "c", "a"): -1,
                         ("a", "a", "c"): 1}


def reference_insert(word, letter_parity, odd, max_block, block, ring):
    """The insertion summed over every (i, j) with j - i <= max_block, the
    prefix sign recomputed from scratch for each pair."""
    out = Vector(ring)
    for i in range(len(word) + 1):
        for j in range(i, min(len(word), i + max_block) + 1):
            pre = sum(letter_parity(x) for x in word[:i])
            s = ring.from_int(sign(odd * pre))
            for w2, c in block(word[i:j]).terms.items():
                out.add_term(word[:i] + w2 + word[j:], ring.mul(s, c))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_insert_blocks_matches_reference(seed):
    """The running prefix parity of the insertion kernel agrees with the
    from-scratch sign, for odd and even families with an arity-0 part."""
    rng = random.Random(seed)
    names = ("a", "b", "c")
    par = parities({x: rng.randrange(2) for x in names})
    outputs = [w for ln in range(3) for w in itertools.product(names,
                                                              repeat=ln)]
    table = {}
    for ln in range(4):
        for w in itertools.product(names, repeat=ln):
            if ln == 0 or rng.random() < 0.6:
                table[w] = Vector(F5, {out: rng.randrange(1, 5) for out in
                                       rng.sample(outputs, 2)})

    def block(w):
        return table.get(w, Vector(F5))

    words = [tuple(rng.choice(names) for _ in range(rng.randrange(6)))
             for _ in range(6)]
    for odd in (False, True):
        for max_block in (0, 1, 3):
            for w in words:
                got = insert_blocks(F5, w, par, odd, max_block, block)
                assert got == reference_insert(w, par, odd, max_block,
                                               block, F5), (seed, w)


def random_odd_family(rng, names, par, arity_cap, ring, with_zero):
    op = MultiOp(ring, 1, arity_cap)
    lo = 0 if with_zero else 1
    for ln in range(lo, arity_cap + 1):
        words = [()] if ln == 0 else None
        for w in itertools.product(names, repeat=ln):
            val = Vector(ring)
            for y in names:
                c = rng.randrange(5)
                if c:
                    val.add_term((y,), c)
            if not val.is_zero() and rng.random() < 0.7:
                op.set(w, val)
    return op


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_sandwich_is_coderivation(seed):
    """Delta B = (B (x) 1 + 1 (x) B) Delta, including arity-zero parts."""
    rng = random.Random(seed)
    names = ("a", "b")
    par_tab = {"a": rng.randrange(2), "b": rng.randrange(2)}
    par = parities(par_tab)
    op = random_odd_family(rng, names, par, 2, F5, with_zero=True)

    def word_par(w):
        return sum(par(x) for x in w) % 2

    for w in [(), ("a",), ("a", "b"), ("b", "a", "a")]:
        lhs = sandwich(op, w, par).bind(lambda u: comultiply(u, F5))
        rhs = Vector.zero(F5)
        for (l, r), c in comultiply(w, F5).terms.items():
            for l2, c2 in sandwich(op, l, par).terms.items():
                rhs.add_term((l2, r), F5.mul(c, c2))
            s = F5.from_int(sign(word_par(l)))
            for r2, c2 in sandwich(op, r, par).terms.items():
                rhs.add_term((l, r2), F5.mul(F5.mul(c, c2), s))
        assert lhs == rhs, (seed, w)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_geometric_extension_is_coalgebra_morphism(seed):
    """Delta F = (F (x) F) Delta for the geometric series of a degree-0
    family."""
    rng = random.Random(seed)
    names = ("a", "b")
    par = parities({"a": 1, "b": 0})
    f = MultiOp(F5, 0, 2)
    for ln in (1, 2):
        for w in itertools.product(names, repeat=ln):
            val = Vector(F5)
            for y in names:
                c = rng.randrange(5)
                if c:
                    val.add_term((y,), c)
            if not val.is_zero():
                f.set(w, val)

    def word_par(w):
        return sum(par(x) for x in w) % 2

    for w in [(), ("a",), ("b", "a"), ("a", "a", "b")]:
        lhs = geometric_extend(f, w, word_par).bind(
            lambda u: comultiply(u, F5))
        rhs = Vector.zero(F5)
        for (l, r), c in comultiply(w, F5).terms.items():
            fl = geometric_extend(f, l, word_par)
            fr = geometric_extend(f, r, word_par)
            for l2, c2 in fl.terms.items():
                for r2, c3 in fr.terms.items():
                    rhs.add_term((l2, r2), F5.mul(F5.mul(c, c2), c3))
        assert lhs == rhs, (seed, w)


def test_comultiply_counts_and_coassociativity():
    w = ("a", "b", "c")
    full = comultiply(w, Z)
    assert len(full.terms) == 4
    red = comultiply(w, Z, reduced=True)
    assert len(red.terms) == 2
    lhs = Vector.zero(Z)
    for (l, r), c in full.terms.items():
        for (l1, l2), c2 in comultiply(l, Z).terms.items():
            lhs.add_term((l1, l2, r), c * c2)
    rhs = Vector.zero(Z)
    for (l, r), c in full.terms.items():
        for (r1, r2), c2 in comultiply(r, Z).terms.items():
            rhs.add_term((l, r1, r2), c * c2)
    assert lhs == rhs


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([0, 1]))
def test_geometric_extend_matches_the_splitting_reference(seed, degree):
    rng = random.Random(seed)
    op = random_family(rng, F5, degree, SHIFT.names, 3, out_len=2)
    for w in WORDS:
        want = reference_extend(w, 3, lambda k: [[(degree, op.apply)] * k],
                                SHIFT.word_parity, F5)
        assert geometric_extend(op, w, SHIFT.word_parity) == want, w


def algebra():
    return AInfAlgebra(SPACE, "e", MultiOp(F5, 1, 2))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_homotopy_extension_matches_the_splitting_reference(seed):
    rng = random.Random(seed)
    A = algebra()
    f = AInfMorphism(A, A, random_family(rng, F5, 0, SHIFT.names, 2))
    g = AInfMorphism(A, A, random_family(rng, F5, 0, SHIFT.names, 3))
    h = random_family(rng, F5, -1, SHIFT.names, 2)
    H = AInfHomotopy(f, g, h)

    def marked(k):
        return [[(0, f.f.apply)] * i + [(-1, h.apply)]
                + [(0, g.f.apply)] * (k - i - 1) for i in range(k)]

    for w in WORDS:
        want = reference_extend(w, 3, marked, SHIFT.word_parity, F5)
        assert H.extended(w) == want, w


def test_inclusion_extension_matches_the_splitting_reference():
    U = UAlgebra(algebra())

    def pack(blk):
        return U.normal_form((blk,)).map_words(lambda u: (u,))

    words = [w for w in WORDS if "e" in w]
    assert any(inclusion_extended(U, w).terms for w in words)
    for w in words:
        want = reference_extend(w, len(w), lambda k: [[(0, pack)] * k],
                                SHIFT.word_parity, F5)
        assert inclusion_extended(U, w) == want, w


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_ue_functor_letter_map_matches_the_splitting_reference(seed):
    rng = random.Random(seed)
    A = algebra()
    U = UAlgebra(A)
    f = AInfMorphism(A, A, random_family(rng, F5, 0, SHIFT.names, 3))
    F = ue_functor(f, U)
    for lt in WORDS[1:]:
        want = reference_extend(lt, len(lt), lambda k: [[(0, f.f.apply)] * k],
                                SHIFT.word_parity, F5)
        assert F((lt,)) == want.map_words(lambda w: (w,)).bind(
            U.normal_form), lt


def test_compositions_enumeration():
    w = ("a", "b", "c")
    got = set(compositions(w, 2))
    want = {(("a",), ("b",), ("c",)), (("a", "b"), ("c",)),
            (("a",), ("b", "c"))}
    assert got == want
    assert list(compositions((), 3)) == [()]


def test_empty_word_is_explicit_basis():
    v = Vector.basis(Z, ())
    assert not v.is_zero()
    assert v.terms == {(): 1}
    # ... and the unit of the concatenation product, which zero annihilates
    x = Vector(Z, {("a",): 2, ("a", "b"): -3})
    assert v.concat(x) == x and x.concat(v) == x
    assert Vector.zero(Z).concat(x).is_zero()
    assert x.concat(Vector.zero(Z)).is_zero()


def test_concat_is_associative_and_drops_cancelled_terms():
    x = Vector(Z, {("a",): 1, ("a", "b"): 1})
    y = Vector(Z, {("b", "c"): 1, ("c",): -1})
    # (a,b,c) arises as a.(b,c) and as (a,b).c with opposite signs
    assert x.concat(y).terms == {("a", "c"): -1, ("a", "b", "b", "c"): 1}
    # in-place accumulation drops cancelled terms and leaves its argument
    acc = Vector(Z, {("a",): 2})
    acc.add_vector(x, -2)
    assert acc.terms == {("a", "b"): -2}
    assert x.terms == {("a",): 1, ("a", "b"): 1}
    z = Vector(F5, {("c",): 2, (): 3})
    x5, y5 = Vector(F5, x.terms), Vector(F5, y.terms)
    assert x5.concat(y5).concat(z) == x5.concat(y5.concat(z))


def test_shifted_space_degrees():
    sp = GradedSpace(Z, Grading(None), [("x", 2), ("y", 0)])
    sh = sp.shifted()
    assert sh.degree("x") == 1 and sh.degree("y") == -1
    assert sh.parity("y") == 1


def test_cyclic_grading_parity_well_defined():
    g = Grading(4)
    assert g.normalize(7) == 3
    assert g.parity(6) == 0
    try:
        Grading(3)
        assert False, "odd modulus must be rejected"
    except ValueError:
        pass
