"""Constructions of small algebras and modules.

Two kinds of objects are produced here:

* honestly valid structures -- curved dg-algebras from closed-form parameter
  families (every axiom holds by construction, verified in tests), modules
  over them, and twists of either through invertible unital morphism data;
* random strictly unital *tables* that need not satisfy the structure
  relation at all, used to exercise checkers on both satisfying and
  non-satisfying inputs.

Twisting: for unital endomorphism data f with invertible arity-one part, the
conjugated family F^{-1} B F is again a valid strictly unital structure and
generically has nonzero operations in every arity, so this is the workhorse
for producing genuine A-infinity examples out of dg-algebras.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .ainf import (AInfAlgebra, AInfModule, AInfMorphism, CurvedDga,
                   HomElement, MultiOp, hom_differential, identity_hom,
                   impose_unit_laws, twist_algebra)
from .graded import GradedSpace, Grading, Vector, Word, sign
from .rings import IntegersMod, Integers, Rationals, Ring


def random_scalar(ring: Ring, rng: random.Random, nonzero: bool = False):
    if isinstance(ring, IntegersMod):
        lo = 1 if nonzero else 0
        return rng.randrange(lo, ring.n)
    if isinstance(ring, Integers):
        v = rng.randint(-3, 3)
        return v if (v or not nonzero) else 1
    if isinstance(ring, Rationals):
        v = ring.normalize(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        return v if (v or not nonzero) else 1
    raise ValueError("no random scalars for %s" % ring.describe())


# ---------------------------------------------------------------------------
# valid curved dg-algebras


def trivial_algebra(ring: Ring, curvature=None) -> AInfAlgebra:
    """Rank one: A = S.e with Z/2 grading and optional curvature W.e."""
    space = GradedSpace(ring, Grading(2), [("e", 0)])
    b = MultiOp(ring, 1, 4)
    if curvature is not None and not ring.is_zero(ring.normalize(curvature)):
        # b_0(1) = -W.eta so that the classical curvature is W.e
        b.set((), Vector.basis(ring, ("e",), ring.neg(ring.normalize(curvature))))
    b = impose_unit_laws(space, "e", b)
    return AInfAlgebra(space, "e", b)


def dga_rank2(ring: Ring, w, delta, gamma) -> CurvedDga:
    """A = S.e + S.u with |u| odd, u^2 = w.e, du = delta.e, curvature
    gamma.e.  Valid for every choice of the three parameters."""
    space = GradedSpace(ring, Grading(2), [("e", 0), ("u", 1)])
    R = ring
    w, delta, gamma = R.normalize(w), R.normalize(delta), R.normalize(gamma)
    d = {"u": Vector.basis(R, "e", delta)} if not R.is_zero(delta) else {}
    prod = {
        ("e", "e"): Vector.basis(R, "e"),
        ("e", "u"): Vector.basis(R, "u"),
        ("u", "e"): Vector.basis(R, "u"),
        ("u", "u"): Vector.basis(R, "e", w),
    }
    curv = Vector.basis(R, "e", gamma) if not R.is_zero(gamma) else Vector.zero(R)
    return CurvedDga(space, "e", curv, d, prod)


def dga_two_odd(ring: Ring, gamma) -> CurvedDga:
    """A = S.e + S.u + S.v, both odd generators square to zero and multiply
    to zero, zero differential, curvature gamma.e."""
    space = GradedSpace(ring, Grading(2), [("e", 0), ("u", 1), ("v", 1)])
    R = ring
    prod: Dict[Tuple[str, str], Vector] = {}
    for x in ("e", "u", "v"):
        prod[("e", x)] = Vector.basis(R, x)
        prod[(x, "e")] = Vector.basis(R, x)
    for x in ("u", "v"):
        for y in ("u", "v"):
            prod[(x, y)] = Vector.zero(R)
    curv = Vector.basis(R, "e", R.normalize(gamma))
    if R.is_zero(R.normalize(gamma)):
        curv = Vector.zero(R)
    return CurvedDga(space, "e", curv, {}, prod)


def diagonal_bimodule(D: CurvedDga):
    """A curved dga as a bimodule over itself: b_{0,0} = d,
    b_{1,0}(sigma a (.) v) = a.v, b_{0,1}(v (.) sigma a) = -(-1)^{|v|} v.a."""
    from .ainf import TableBimodule
    R = D.ring
    table: Dict[Tuple[Word, str, Word], Vector] = {}
    for v in D.space.names:
        dv = D.d(D.element(v))
        if not dv.is_zero():
            table[((), v, ())] = dv
        for a in D.space.names:
            left = D.mul(D.element(a), D.element(v))
            if not left.is_zero():
                table[((a,), v, ())] = left
            rightv = D.mul(D.element(v), D.element(a))
            if not rightv.is_zero():
                table[((), v, (a,))] = rightv.scaled(
                    R.from_int(-sign(D.space.parity(v))))
    return TableBimodule(D.algebra, D.algebra, D.space, table)


# ---------------------------------------------------------------------------
# random unital tables and twists


def random_unital_table(ring: Ring, rank: int, arity_cap: int,
                        rng: random.Random,
                        grading: Optional[Grading] = None,
                        density: float = 0.5) -> AInfAlgebra:
    """A random homogeneous strictly unital b-table on rank generators
    (the first being the unit).  No structure relation is imposed."""
    grading = grading or Grading(2)
    names = ["e"] + ["x%d" % i for i in range(1, rank)]
    degs = [0] + [rng.randrange(grading.modulus or 3) for _ in names[1:]]
    space = GradedSpace(ring, grading, list(zip(names, degs)))
    shift = space.shifted()
    b = MultiOp(ring, 1, arity_cap)
    for ln in range(0, arity_cap + 1):
        if ln == 2:
            continue  # arity two set below together with the unit laws
        for w in shift.words(ln, min_len=ln):
            if "e" in w or rng.random() > density:
                continue
            want = shift.word_degree(w) + 1
            val = Vector(ring)
            for y in names:
                if grading.equal(shift.degree(y), want):
                    val.add_term((y,), random_scalar(ring, rng))
            if not val.is_zero():
                b.set(w, val)
    for x in names:
        for y in names:
            if "e" in (x, y):
                continue
            want = shift.degree(x) + shift.degree(y) + 1
            val = Vector(ring)
            for z in names:
                if grading.equal(shift.degree(z), want):
                    val.add_term((z,), random_scalar(ring, rng))
            if not val.is_zero():
                b.set((x, y), val)
    b = impose_unit_laws(space, "e", b)
    return AInfAlgebra(space, "e", b)


def random_unital_twist_data(A: AInfAlgebra, rng: random.Random,
                             f_cap: int = 3) -> AInfMorphism:
    """Unital endomorphism data with identity arity-one part and random
    homogeneous higher components avoiding the unit."""
    f = MultiOp(A.ring, 0, f_cap)
    shift = A.shift
    for x in shift.names:
        f.set((x,), Vector.basis(A.ring, (x,)))
    for ln in range(2, f_cap + 1):
        for w in shift.words(ln, min_len=ln):
            if A.eta in w:
                continue
            want = shift.word_degree(w)
            val = Vector(A.ring)
            for y in shift.names:
                if y != A.eta and A.grading.equal(shift.degree(y), want):
                    val.add_term((y,), random_scalar(A.ring, rng))
            if not val.is_zero():
                f.set(w, val)
    return AInfMorphism(A, A, f)


def twisted_dga(base: AInfAlgebra, rng: random.Random,
                arity_cap: int = 6, f_cap: int = 3
                ) -> Tuple[AInfAlgebra, AInfMorphism]:
    """Twist a valid algebra by random unital data; returns the twisted
    algebra (exact up to arity_cap) and the twisting data f, which is a
    morphism from the twisted algebra to the base."""
    f = random_unital_twist_data(base, rng, f_cap)
    tw = twist_algebra(base, f, arity_cap)
    fmor = AInfMorphism(tw, base, f.f)
    return tw, fmor


# ---------------------------------------------------------------------------
# modules


def module_from_classical(A: AInfAlgebra, space: GradedSpace,
                          d: Dict[str, Vector],
                          action: Dict[Tuple[str, str], Vector],
                          arity_cap: int = 4) -> AInfModule:
    """A dg-module (d, right action) over a curved dg-algebra, written as a
    structure family: b^M_1 = d, b^M_2(m (.) sigma a) = -(-1)^{|m|} m.a.

    There is no minus on b^M_1, unlike the algebra-side dictionary
    b_1 = -sigma d omega: the module factor is not shifted, so conjugation
    contributes no sign.  With these choices the structure relation is
    equivalent to d(m.a) = dm.a + (-1)^{|m|} m.da, (m.a).a' = m.(aa'),
    m.e = m and d^2 m = -m.c."""
    R = A.ring
    table: Dict[Tuple[str, Word], Vector] = {}
    for m in space.names:
        dm = d.get(m)
        if dm is not None and not dm.is_zero():
            table[(m, ())] = dm
        for a in A.space.names:
            ma = action.get((m, a))
            if ma is not None and not ma.is_zero():
                table[(m, (a,))] = ma.scaled(R.from_int(-sign(space.parity(m))))
    return AInfModule(A, space, table, arity_cap)


def module_pqab(ring: Ring, p, q, a, b) -> Tuple[CurvedDga, AInfModule]:
    """A rank-two module over the rank-two dga: the four parameters determine
    u^2 = pq.e, du = (pb - qa).e and curvature -ab.e; the module has an even
    generator x and odd generator y with x.u = p y, y.u = q x, dx = a y,
    dy = b x.  The module differential squares to ab, which matches the
    curvature through the structure relation d^2 m = -m.c (the sign is forced
    by the strict unit conventions).  All module axioms hold identically in
    the parameters."""
    R = ring
    p, q, a, b = (R.normalize(v) for v in (p, q, a, b))
    w = R.mul(p, q)
    gamma = R.neg(R.mul(a, b))
    delta = R.sub(R.mul(p, b), R.mul(q, a))
    D = dga_rank2(ring, w, delta, gamma)
    space = GradedSpace(ring, Grading(2), [("x", 0), ("y", 1)])
    d = {"x": Vector.basis(R, "y", a), "y": Vector.basis(R, "x", b)}
    action = {
        ("x", "e"): Vector.basis(R, "x"),
        ("y", "e"): Vector.basis(R, "y"),
        ("x", "u"): Vector.basis(R, "y", p),
        ("y", "u"): Vector.basis(R, "x", q),
    }
    M = module_from_classical(D.algebra, space, d, action)
    return D, M


def random_hom_perturbation(M: AInfModule, rng: random.Random,
                            cap: int = 3) -> HomElement:
    """A random degree -1 hom element supported on one or more letters, used
    to manufacture nontrivial closed morphisms 1 + [B, xi]."""
    table: Dict[Tuple[str, Word], Vector] = {}
    grading = M.space.grading
    for m in M.space.names:
        for alpha in M.algebra.words(cap, min_len=1):
            if M.algebra.eta in alpha:
                continue
            want = M.space.degree(m) + M.algebra.word_degree(alpha) - 1
            val = Vector(M.ring)
            for n in M.space.names:
                if grading.equal(M.space.degree(n), want) and rng.random() < 0.5:
                    val.add_term(n, random_scalar(M.ring, rng))
            if not val.is_zero():
                table[(m, alpha)] = val
    return HomElement(M, M, -1, table, cap)


def twisted_identity_morphism(M: AInfModule, rng: random.Random,
                              cap: int = 3) -> HomElement:
    """phi = 1 + [B, xi]: closed, degree zero, arity-one part the identity,
    generically nontrivial in higher arities."""
    xi = random_hom_perturbation(M, rng, cap)
    return identity_hom(M, cap).plus(hom_differential(xi, cap))
