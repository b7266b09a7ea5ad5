"""The per-call word caches of the heavy checks.

Each cached check must give the same report as the same check with
``cached`` replaced by the identity, the cached values must stay equal to a
fresh evaluation of their map after the check, and nothing may be left on
the structures a check was given: a second call does the same work.
"""

import random

from ainfkit import ainf, graded, homotopy, qmod, vanish
from ainfkit.adjoint import UAlgebra, check_u_curvature
from ainfkit.ainf import (AInfAlgebra, AInfModule, AInfMorphism, HomElement,
                          identity_hom)
from ainfkit.fixtures import (module_pqab, random_scalar,
                              twisted_identity_morphism)
from ainfkit.graded import MultiOp, Vector, cached, memoized
from ainfkit.homotopy import (arity_part, homotopy_to_derivation,
                              invert_homotopy, quillen_classical_components,
                              ue_contraction)
from ainfkit.qmod import (check_epsilon_closed, check_lambda_closed,
                          check_q_homotopy, q_module)
from ainfkit.report import FAIL, PASS
from ainfkit.rings import IntegersMod, Rationals
from ainfkit.vanish import FOUND, detect_augmentation, kp_contraction

from test_letter_components import (homotopic_morphism, one_term_mutant,
                                    random_family, twisted)

# the modules that call ``cached`` (``memoized`` calls graded's)
CALLERS = (graded, qmod, homotopy, vanish)


def module_mutant(M, rng):
    """M with one table entry scaled by a random scalar other than 1."""
    R = M.ring
    key = rng.choice(sorted(M.table))
    c = R.one
    while c == R.one:
        c = random_scalar(R, rng, True)
    table = dict(M.table)
    table[key] = table[key].scaled(c)
    return AInfModule(M.algebra, M.space, table, M.arity_cap)


def module_cases(seed):
    """A seeded module over Z/7 or Q and one of its one-term mutants."""
    rng = random.Random(seed)
    R = IntegersMod(7) if seed % 2 else Rationals()
    _, M = module_pqab(R, *(random_scalar(R, rng) for _ in range(4)))
    return [M, module_mutant(M, rng)]


def twisted_inversion(M, rng, cap):
    """(phi, psi, h, ell) inverting phi = 1 + [B, xi] on M from its
    arity-zero identity, with zero homotopies."""
    hz = HomElement(M, M, -1, {}, cap)
    return (twisted_identity_morphism(M, rng, cap),
            arity_part(identity_hom(M, cap), 0), hz, hz)


def inversion_case(seed, cap):
    """twisted_inversion on a seeded uncurved module over Z/7 or Q."""
    rng = random.Random(seed)
    R = IntegersMod(7) if seed % 2 else Rationals()
    _, M = module_pqab(R, random_scalar(R, rng, True),
                       random_scalar(R, rng, True), 0, random_scalar(R, rng))
    return twisted_inversion(M, rng, cap)


def algebra_cases(seed):
    """A seeded twisted dga, the twisting morphism f, a homotopic g through
    h, and the one-term mutants of the algebra, of h and of g."""
    rng = random.Random(seed)
    R = IntegersMod(7) if seed % 2 else Rationals()
    tw, f = twisted(R, rng, seed % 3 != 0)
    base = f.target
    h = random_family(tw, base, -1, 2, rng)
    if not tw.curvature_letterwise().bind(h.apply).is_zero():
        h = MultiOp(R, -1, 2)
    g = homotopic_morphism(f, h, 4)
    bad_alg = AInfAlgebra(tw.space, tw.unit, one_term_mutant(tw.b, tw, tw,
                                                             rng))
    bad_h = one_term_mutant(h, tw, base, rng, True)
    bad_g = AInfMorphism(tw, base, one_term_mutant(g.f, tw, base, rng, True))
    return tw, bad_alg, (f, g, h), (f, g, bad_h), (f, bad_g, h)


def reports(seed):
    """Every caching check on the seed's inputs, as (label, to_dict())."""
    out = []
    for i, M in enumerate(module_cases(seed)):
        Q = q_module(M)
        for check in (check_q_homotopy, check_lambda_closed,
                      check_epsilon_closed):
            out.append(("%s/%d" % (check.__name__, i), check(Q, 3)))
        search = detect_augmentation(M.algebra)
        if search.status == FOUND:
            out.append(("kp/%d" % i,
                        kp_contraction(M, search.augmentation, 3)[1]))
    out.append(("inversion", invert_homotopy(*inversion_case(seed, 3),
                                             3)[2]))
    tw, bad_alg, *triples = algebra_cases(seed)
    for i, A in enumerate((tw, bad_alg)):
        out.append(("curvature/%d" % i, check_u_curvature(UAlgebra(A), 3)))
        out.append(("curvature/full-delta/%d" % i,
                    check_u_curvature(UAlgebra(A), 3, full_delta=True)))
    for i, args in enumerate(triples):
        out.append(("derivation/%d" % i, homotopy_to_derivation(*args, 2)[1]))
    if tw.curvature_letterwise().is_zero():
        out.append(("contraction", ue_contraction(tw, 3)[1]))
        f, g, bad_h = triples[1]
        out.append(("quillen", quillen_classical_components(f, 3)))
        out.append(("quillen/h-mutant",
                    quillen_classical_components(f, 3, g, bad_h)))
    return [(label, rep.to_dict()) for label, rep in out]


def test_cached_checks_match_the_uncached_ones(monkeypatch):
    seeds = range(6)
    with_cache = [reports(seed) for seed in seeds]
    for mod in CALLERS:
        monkeypatch.setattr(mod, "cached", lambda fn: fn)
    without = [reports(seed) for seed in seeds]
    assert with_cache == without
    verdicts = {}
    for label, rep in sum(with_cache, []):
        verdicts.setdefault(label.partition("/")[0], set()).add(
            rep["verdict"])
    # the FAIL paths run through the caches too; the unit inclusion is
    # closed for every module table, the seeded twists contract, and the
    # seeded inversions succeed
    for k, v in verdicts.items():
        assert v == ({PASS} if k.startswith(("check_lambda", "contraction",
                                             "inversion"))
                     else {PASS, FAIL}), (k, v)


def test_cached_values_equal_a_fresh_evaluation(monkeypatch):
    made = []

    def recording(fn):
        lookup = cached(fn)
        made.append((fn, lookup.memo))
        return lookup

    for mod in CALLERS:
        monkeypatch.setattr(mod, "cached", recording)
    for seed in range(3):
        reports(seed)
    assert sum(len(memo) for _, memo in made) > 0
    for fn, memo in made:
        for word, value in memo.items():
            assert value == fn(word), word


def test_no_cache_outlives_its_call(monkeypatch):
    calls = [0]
    d_letter = UAlgebra.d_letter

    def counting(self, lt):
        calls[0] += 1
        return d_letter(self, lt)

    monkeypatch.setattr(UAlgebra, "d_letter", counting)
    _, M = module_pqab(IntegersMod(7), 2, 3, 1, 5)
    Q = q_module(M)
    before = dict(vars(Q.V.U))
    counts = []
    for _ in range(2):
        calls[0] = 0
        assert check_q_homotopy(Q, 3).passed
        assert vars(Q.V.U) == before
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0
    U = UAlgebra(M.algebra)
    before = dict(vars(U))
    assert check_u_curvature(U, 3).passed
    assert vars(U) == before
    made = recorded_caches(monkeypatch)
    A = module_pqab(IntegersMod(7), 1, 1, 0, 0)[0].algebra
    for _ in range(2):
        C, rep = ue_contraction(A, 3)
        assert rep.passed
        assert not any(hasattr(v, "memo") for obj in (C, C.U)
                       for v in vars(obj).values())
    # each call fills a residual cache of its own
    residuals = [memo for name, memo in made if name == "residual"]
    assert len(residuals) == 2 and residuals[0] is not residuals[1]
    assert residuals[0] == residuals[1] != {}


def test_memoized_scope():
    U = UAlgebra(module_pqab(IntegersMod(7), 2, 3, 1, 5)[0].algebra)
    lt = ("u", "u")
    with memoized(U, "d_letter"):
        inner = U.d_letter
        assert U.d_letter(lt) is U.d_letter(lt)
        with memoized(U, "d_letter"):
            assert U.d_letter is inner
        assert U.d_letter is inner
    assert "d_letter" not in vars(U)
    assert U.d_letter(lt) == inner(lt)
    assert U.d_letter(lt) is not U.d_letter(lt)
    assert isinstance(inner(lt), Vector)


def holds_memo(fn, seen=()):
    """Whether fn, or a function its closure reaches, keeps a cache."""
    if hasattr(fn, "memo"):
        return True
    return any(callable(cell.cell_contents)
               and cell.cell_contents not in seen
               and holds_memo(cell.cell_contents, seen + (fn,))
               for cell in getattr(fn, "__closure__", None) or ())


def recorded_caches(monkeypatch):
    """A list that collects (name of the word map, memo) for every cache
    the CALLERS make from now on."""
    made = []

    def recording(fn):
        lookup = cached(fn)
        made.append((fn.__name__, lookup.memo))
        return lookup

    for mod in CALLERS:
        monkeypatch.setattr(mod, "cached", recording)
    return made


def test_kp_and_inversion_caches_live_for_one_call(monkeypatch):
    assert holds_memo(cached(lambda w: w))
    _, M = module_pqab(IntegersMod(7), 2, 3, 1, 5)
    aug = detect_augmentation(M.algebra).augmentation
    made = recorded_caches(monkeypatch)
    for _ in range(2):
        G, rep = kp_contraction(M, aug, 3)
        assert rep.passed
        assert not holds_memo(G)
        v = Vector.basis(M.ring, ("x", ("e", "u")))
        assert G(v) == G(v) and not G(v).is_zero()
    # each call fills caches of its own for B^M, H, E and G, and the
    # returned G reaches none of them
    names = [name for name, _ in made]
    assert names[:len(names) // 2] == names[len(names) // 2:]
    assert sorted(names[:len(names) // 2]) == ["B", "E_word", "G", "H"]
    memos = [memo for _, memo in made]
    assert len({id(memo) for memo in memos}) == len(memos)
    assert all(memos)

    calls = [0]
    coderivation = ainf.module_coderivation

    def counting(*args):
        calls[0] += 1
        return coderivation(*args)

    for mod in (ainf, homotopy):
        monkeypatch.setattr(mod, "module_coderivation", counting)
    args = inversion_case(1, 3)
    M = args[0].source
    before = dict(vars(M))
    counts = []
    for _ in range(2):
        calls[0] = 0
        assert invert_homotopy(*args, 3)[2].passed
        assert vars(M) == before
        counts.append(calls[0])
    assert counts[0] == counts[1] > 0
