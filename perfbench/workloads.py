"""Seeded inputs and known answers for the benchmark workloads.

``api`` calls the package in-process: checkers on prebuilt structures
(VERIFY), constructions (CONSTRUCT) and the stage solvers (SOLVE).  ``cli``
runs ``cli.main`` on documents.  Every workload is a list of kinds.  A kind is a family of inputs with a fixed
pool of instances: instance ``i`` of kind ``k`` is generated from the string
seed ``"k#i"``, so it is the same in every process and on every machine.  A
run's ``--seed`` picks which instances of each kind it uses and the order of
the targets in a pass.  ``expected.json`` holds the outcome of every pool
instance, recorded by ``record.py``.

Instances of one kind can differ in cost by a factor of ten (random gradings
and sparsity), so a seed that picked among them would change the work of a
pass by more than the benchmark's bounds.  Most kinds therefore have a pool
exactly as large as a run uses, and there the seed only sets the order;
only kinds whose instances cost the same pick from a larger pool.

A target is one checker or construction call, or one CLI invocation.  Its
outcome is a verdict plus a canonical text (the report's ``to_dict``, the
table of a built structure, or the CLI's stdout); the sha256 of label,
verdict and text is compared with ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CLI_DOCS_PATH = os.path.join(HERE, "cli_docs.json")

Outcome = Tuple[str, str]  # (verdict, canonical text)


@dataclass
class Target:
    label: str
    call: Callable[[], Any]
    outcome: Callable[[Any], Outcome]
    expect: Optional[str] = None  # verdict known by construction
    argv: Optional[List[str]] = None  # the arguments of a CLI target


@dataclass
class Kind:
    name: str
    pool: int    # instances recorded in expected.json
    picks: int   # instances a run uses
    make: Callable[["Context", random.Random, int], List[Target]]


class Context:
    """What the input generators need: the freshly imported package, the
    three coefficient rings and a scratch directory for CLI documents."""

    def __init__(self, api, workdir: str):
        self.api = api
        self.workdir = workdir
        self.F7 = api.rings.IntegersMod(7)
        self.Z = api.rings.Integers()
        self.Q = api.rings.Rationals()

    def ring(self, name: str):
        return {"F7": self.F7, "Z": self.Z, "Q": self.Q}[name]


def digest(label: str, outcome: Outcome) -> str:
    verdict, text = outcome
    return hashlib.sha256(("%s\n%s\n%s" % (label, verdict, text)).encode(
        "utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# outcomes


def report_outcome(rep) -> Outcome:
    return rep.verdict, json.dumps(rep.to_dict(), sort_keys=True)


def _table_text(table: dict) -> str:
    return "\n".join(sorted("%r: %r" % (k, v) for k, v in table.items()))


def _space_text(space) -> str:
    return repr(sorted(space.gens.items()))


def algebra_outcome(A) -> Outcome:
    return "BUILT", "%s unit=%r\n%s" % (_space_text(A.space), A.unit,
                                        _table_text(A.b.table))


def module_outcome(M) -> Outcome:
    return "BUILT", "%s\n%s\n%s" % (algebra_outcome(M.algebra)[1],
                                    _space_text(M.space),
                                    _table_text(M.table))


def morphism_outcome(f) -> Outcome:
    return "BUILT", _table_text(f.f.table)


def cli_outcome(result: Tuple[int, str]) -> Outcome:
    code, stdout = result
    return "EXIT%d" % code, stdout


def run_cli(api, argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# verify: checkers on prebuilt structures


def _params(ctx: Context, R, rng: random.Random, n: int,
            nonzero: bool = False) -> list:
    return [ctx.api.fixtures.random_scalar(R, rng, nonzero) for _ in range(n)]


def table_check(ring: str, rank: int, cap: int):
    def make(ctx, rng, idx):
        A = ctx.api.fixtures.random_unital_table(ctx.ring(ring), rank, 3, rng)
        return [Target("", lambda: ctx.api.ainf.check_algebra(A, cap),
                       report_outcome)]
    return make


def dga_check(ring: str, cap: int):
    def make(ctx, rng, idx):
        R = ctx.ring(ring)
        D = ctx.api.fixtures.dga_rank2(R, *_params(ctx, R, rng, 3))
        return [Target("", lambda: ctx.api.ainf.check_algebra(D.algebra, cap),
                       report_outcome, "PASS")]
    return make


def twisted_check(ctx, rng, idx):
    F7 = ctx.F7
    base = ctx.api.fixtures.dga_rank2(F7, *_params(ctx, F7, rng, 3, True))
    tw, f = ctx.api.fixtures.twisted_dga(base.algebra, rng, 5, 3)
    return [Target("/algebra", lambda: ctx.api.ainf.check_algebra(tw, 4),
                   report_outcome, "PASS"),
            Target("/morphism", lambda: ctx.api.ainf.check_morphism(f, 4),
                   report_outcome, "PASS")]


def module_check(ring: str, cap: int):
    def make(ctx, rng, idx):
        R = ctx.ring(ring)
        _, M = ctx.api.fixtures.module_pqab(R, *_params(ctx, R, rng, 4))
        return [Target("", lambda: ctx.api.ainf.check_module(M, cap),
                       report_outcome, "PASS")]
    return make


def bimodule_check(ring: str, cap: int):
    def make(ctx, rng, idx):
        R = ctx.ring(ring)
        D = ctx.api.fixtures.dga_rank2(R, *_params(ctx, R, rng, 3))
        V = ctx.api.fixtures.diagonal_bimodule(D)
        return [Target("", lambda: ctx.api.ainf.check_bimodule(V, cap),
                       report_outcome, "PASS")]
    return make


def adjoint_check(ring: str, cap: int):
    """The curvature identity, its full-coproduct mutant (a known kill) and
    the stability of the unit ideal, on one curved algebra."""
    def make(ctx, rng, idx):
        R = ctx.ring(ring)
        w, delta = _params(ctx, R, rng, 2)
        gamma = ctx.api.fixtures.random_scalar(R, rng, True)
        U = ctx.api.adjoint.UAlgebra(
            ctx.api.fixtures.dga_rank2(R, w, delta, gamma).algebra)
        adj = ctx.api.adjoint
        return [Target("/curvature", lambda: adj.check_u_curvature(U, cap),
                       report_outcome, "PASS"),
                Target("/full-delta-mutant",
                       lambda: adj.check_u_curvature(U, cap, full_delta=True),
                       report_outcome, "FAIL"),
                Target("/ideal", lambda: adj.check_ideal_stability(U, cap),
                       report_outcome, "PASS")]
    return make


def q_homotopy_check(ring: str, cap: int):
    def make(ctx, rng, idx):
        R = ctx.ring(ring)
        _, M = ctx.api.fixtures.module_pqab(R, *_params(ctx, R, rng, 4))
        Qm = ctx.api.qmod.q_module(M)
        return [Target("", lambda: ctx.api.qmod.check_q_homotopy(Qm, cap),
                       report_outcome, "PASS")]
    return make


def kp_check(ctx, rng, idx):
    F7 = ctx.F7
    p, q, a, b = _params(ctx, F7, rng, 4, True)
    D, M = ctx.api.fixtures.module_pqab(F7, p, q, a, b)
    gamma = F7.neg(F7.mul(a, b))
    aug = ctx.api.vanish.AugmentationMap(D.algebra, {"e": F7.inv(gamma)})
    return [Target("", lambda: ctx.api.vanish.kp_contraction(M, aug, 5)[1],
                   report_outcome, "PASS")]


def mf_pair(ctx, rng, idx):
    """A rank-two factorization d = [[0, a], [b, 0]] of W and its mutant
    with b off by one."""
    F7 = ctx.F7
    van = ctx.api.vanish
    a = rng.randrange(1, 7)
    W = rng.randrange(7)
    b = F7.mul(W, F7.inv(a))
    good = van.MatrixFactorization(F7, 1, 1, [[0, a], [b, 0]], W)
    bad = van.MatrixFactorization(F7, 1, 1, [[0, a], [F7.add(b, 1), 0]], W)
    return [Target("/valid", lambda: van.mf_check(good, 4), report_outcome,
                   "PASS"),
            Target("/off-by-one-mutant", lambda: van.mf_check(bad, 4),
                   report_outcome, "FAIL")]


VERIFY = [
    Kind("table-F7-r3-c4", 3, 3, table_check("F7", 3, 4)),
    Kind("table-Z-r3-c4", 2, 2, table_check("Z", 3, 4)),
    Kind("table-Q-r3-c4", 2, 2, table_check("Q", 3, 4)),
    Kind("table-F7-r2-c5", 2, 2, table_check("F7", 2, 5)),
    Kind("dga-F7-c5", 1, 1, dga_check("F7", 5)),
    Kind("dga-Z-c5", 1, 1, dga_check("Z", 5)),
    Kind("dga-Q-c5", 1, 1, dga_check("Q", 5)),
    Kind("twisted-F7-c4", 1, 1, twisted_check),
    Kind("module-F7-c5", 2, 2, module_check("F7", 5)),
    Kind("module-Z-c5", 1, 1, module_check("Z", 5)),
    Kind("module-Q-c4", 1, 1, module_check("Q", 4)),
    Kind("bimodule-F7-c4", 1, 1, bimodule_check("F7", 4)),
    Kind("bimodule-Q-c4", 1, 1, bimodule_check("Q", 4)),
    Kind("adjoint-F7-c4", 2, 2, adjoint_check("F7", 4)),
    Kind("adjoint-Q-c4", 1, 1, adjoint_check("Q", 4)),
    Kind("q-homotopy-F7-c4", 2, 2, q_homotopy_check("F7", 4)),
    Kind("q-homotopy-Q-c4", 1, 1, q_homotopy_check("Q", 4)),
    Kind("kp-contraction-F7-c5", 2, 2, kp_check),
    Kind("mf-F7-c4", 8, 2, mf_pair),
]


# ---------------------------------------------------------------------------
# construct: building structures


def _twist_data(ctx, ring: str, rng):
    R = ctx.ring(ring)
    base = ctx.api.fixtures.dga_rank2(R, *_params(ctx, R, rng, 3, True))
    f = ctx.api.fixtures.random_unital_twist_data(base.algebra, rng, 3)
    return base.algebra, f


def twist_build(ring: str, arity: int):
    def make(ctx, rng, idx):
        A, f = _twist_data(ctx, ring, rng)
        return [Target("", lambda: ctx.api.ainf.twist_algebra(A, f, arity),
                       algebra_outcome)]
    return make


def invert_build(ring: str, arity: int):
    def make(ctx, rng, idx):
        _, f = _twist_data(ctx, ring, rng)
        return [Target("",
                       lambda: ctx.api.ainf.invert_morphism_data(f, arity),
                       morphism_outcome)]
    return make


def compose_build(ring: str, arity: int):
    """g o f for g the inverse of f: known to be the identity."""
    def make(ctx, rng, idx):
        A, f = _twist_data(ctx, ring, rng)
        g = ctx.api.ainf.invert_morphism_data(f, arity)
        ident = ctx.api.ainf.identity_morphism(A, arity).f.table

        def outcome(h) -> Outcome:
            return ("PASS" if h.f.table == ident else "FAIL",
                    _table_text(h.f.table))
        return [Target("",
                       lambda: ctx.api.ainf.compose_morphisms(g, f, arity),
                       outcome, "PASS")]
    return make


def base_change_build(ctx, rng, idx):
    """A random integer table, reduced mod 7 and included into Q, and an
    integer module reduced mod 7."""
    api = ctx.api
    A = api.fixtures.random_unital_table(ctx.Z, 5, 5, rng)
    _, M = api.fixtures.module_pqab(ctx.Z, *_params(ctx, ctx.Z, rng, 4))
    mod7 = api.rings.reduction_mod(7)
    toQ = api.rings.inclusion_to_rationals()
    return [Target("/table-F7", lambda: api.vanish.base_change(A, mod7),
                   algebra_outcome),
            Target("/table-Q", lambda: api.vanish.base_change(A, toQ),
                   algebra_outcome),
            Target("/module-F7", lambda: api.vanish.base_change(M, mod7),
                   module_outcome)]


def roundtrip_build(ring: str):
    """b -> m -> b on a random table: known to give back b."""
    def make(ctx, rng, idx):
        A = ctx.api.fixtures.random_unital_table(ctx.ring(ring), 5, 5, rng)
        ainf = ctx.api.ainf

        def call():
            m = ainf.m_from_b(A.space, A.b)
            return m, ainf.b_from_m(A.space, m, A.b.arity_cap)

        def outcome(res) -> Outcome:
            m, back = res
            return ("PASS" if back.table == A.b.table else "FAIL",
                    _table_text(m))
        return [Target("", call, outcome, "PASS")]
    return make


CONSTRUCT = [
    Kind("twist-F7-a5", 1, 1, twist_build("F7", 5)),
    Kind("twist-Q-a5", 1, 1, twist_build("Q", 5)),
    Kind("invert-F7-a8", 1, 1, invert_build("F7", 8)),
    Kind("invert-Q-a7", 1, 1, invert_build("Q", 7)),
    Kind("compose-F7-a6", 2, 2, compose_build("F7", 6)),
    Kind("compose-Q-a5", 1, 1, compose_build("Q", 5)),
    Kind("base-change-Z", 2, 2, base_change_build),
    Kind("roundtrip-F7", 2, 2, roundtrip_build("F7")),
    Kind("roundtrip-Q", 2, 2, roundtrip_build("Q")),
]


# ---------------------------------------------------------------------------
# solve: the stage solvers


def invert_solve(cap: int):
    """phi = 1 + [B, xi] on an uncurved rank-two module: a closed
    quasi-isomorphism, so the stagewise inversion succeeds."""
    def make(ctx, rng, idx):
        api = ctx.api
        _, M = api.fixtures.module_pqab(ctx.F7, 3, 1, 0, 2)
        phi = api.fixtures.twisted_identity_morphism(M, rng, cap)
        psi0 = api.homotopy.arity_part(api.ainf.identity_hom(M, cap), 0)
        hz = api.ainf.HomElement(M, M, -1, {}, cap)
        return [Target("", lambda: api.homotopy.invert_homotopy(
            phi, psi0, hz, hz, cap)[2], report_outcome, "PASS")]
    return make


def quillen_square_zero(cap: int):
    """f: x -> c.s and g: x -> 0 from a square-zero algebra into the acyclic
    cone dt = s, homotopic through h: x -> -c.t (c = instance + 1)."""
    def make(ctx, rng, idx):
        api = ctx.api
        F7 = ctx.F7
        gr = api.graded.Grading(None)
        V = api.graded.Vector
        c = idx + 1
        src = api.ainf.CurvedDga(
            api.graded.GradedSpace(F7, gr, [("e", 0), ("x", 1)]), "e",
            V.zero(F7), {},
            {("e", "e"): V.basis(F7, "e"), ("e", "x"): V.basis(F7, "x"),
             ("x", "e"): V.basis(F7, "x"), ("x", "x"): V.zero(F7)})
        prod = {}
        for z in ("e", "t", "s"):
            prod[("e", z)] = V.basis(F7, z)
            prod[(z, "e")] = V.basis(F7, z)
        for z in ("t", "s"):
            for z2 in ("t", "s"):
                prod[(z, z2)] = V.zero(F7)
        tgt = api.ainf.CurvedDga(
            api.graded.GradedSpace(F7, gr, [("e", 0), ("t", 0), ("s", 1)]),
            "e", V.zero(F7), {"t": V.basis(F7, "s")}, prod)
        fop = api.graded.MultiOp(F7, 0, cap)
        fop.set(("e",), V.basis(F7, ("e",)))
        fop.set(("x",), V.basis(F7, ("s",), c))
        gop = api.graded.MultiOp(F7, 0, cap)
        gop.set(("e",), V.basis(F7, ("e",)))
        h = api.graded.MultiOp(F7, -1, cap)
        h.set(("x",), V.basis(F7, ("t",), F7.neg(c)))
        f = api.ainf.AInfMorphism(src.algebra, tgt.algebra, fop)
        g = api.ainf.AInfMorphism(src.algebra, tgt.algebra, gop)
        return [Target("", lambda: api.homotopy.quillen_classical_components(
            f, cap, g, h), report_outcome, "PASS")]
    return make


def quillen_twisted(cap: int):
    def make(ctx, rng, idx):
        api = ctx.api
        w, delta = _params(ctx, ctx.F7, rng, 2, True)
        base = api.fixtures.dga_rank2(ctx.F7, w, delta, 0)
        _, f = api.fixtures.twisted_dga(base.algebra, rng, 5, 3)
        return [Target("", lambda: api.homotopy.quillen_classical_components(
            f, cap), report_outcome, "PASS")]
    return make


def ue_contraction_solve(ring: str, cap: int):
    def make(ctx, rng, idx):
        R = ctx.ring(ring)
        w, delta = _params(ctx, R, rng, 2)
        A = ctx.api.fixtures.dga_rank2(R, w, delta, 0).algebra
        return [Target("", lambda: ctx.api.homotopy.ue_contraction(A, cap)[1],
                       report_outcome, "PASS")]
    return make


def ue_contraction_two_odd(ctx, rng, idx):
    A = ctx.api.fixtures.dga_two_odd(ctx.F7, 0).algebra
    return [Target("", lambda: ctx.api.homotopy.ue_contraction(A, 4)[1],
                   report_outcome, "PASS")]


SOLVE = [
    Kind("invert-homotopy-c3", 6, 6, invert_solve(3)),
    Kind("invert-homotopy-c4", 1, 1, invert_solve(4)),
    Kind("quillen-square-zero-c4", 6, 3, quillen_square_zero(4)),
    Kind("quillen-twisted-c5", 2, 2, quillen_twisted(5)),
    Kind("ue-contraction-F7-c5", 16, 8, ue_contraction_solve("F7", 5)),
    Kind("ue-contraction-Q-c5", 1, 1, ue_contraction_solve("Q", 5)),
    Kind("ue-contraction-two-odd-c4", 1, 1, ue_contraction_two_odd),
]


# ---------------------------------------------------------------------------
# cli: every command on fixed documents, and one generated document


def _write_doc(ctx: Context, name: str, doc: dict) -> str:
    path = os.path.join(ctx.workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def command_doc(command: str):
    """One command on the document the acceptance suite runs it on (copied
    into cli_docs.json), at cap 4."""
    def make(ctx, rng, idx):
        name = CLI_DOCS["commands"][command]
        path = os.path.join(ctx.workdir, name + ".json")
        if not os.path.exists(path):
            _write_doc(ctx, name, CLI_DOCS["documents"][name])
        argv = [command, path, "--cap", "4"]
        return [Target("", lambda: run_cli(ctx.api, argv), cli_outcome,
                       argv=argv)]
    return make


QHOM_MODULES = 10


def _qhom_module(idx: int) -> Tuple[dict, dict]:
    """The rank-two module of ``fixtures.module_pqab`` over Z/7 as document
    entries: a dga and a module over it."""
    rng = random.Random("qhom-module#%d" % idx)
    p, q = rng.randrange(1, 7), rng.randrange(1, 7)
    a, b = rng.randrange(7), rng.randrange(7)

    def s(v: int) -> str:
        return str(v % 7)
    dga = {"space": "A", "unit": "e",
           "curvature": [["e", s(-a * b)]],
           "d": [{"in": "u", "out": [["e", s(p * b - q * a)]]}],
           "product": [{"in": ["e", "e"], "out": [["e", "1"]]},
                       {"in": ["e", "u"], "out": [["u", "1"]]},
                       {"in": ["u", "e"], "out": [["u", "1"]]},
                       {"in": ["u", "u"], "out": [["e", s(p * q)]]}]}
    module = {"algebra": "D%02d" % idx, "space": "M",
              "table": [{"m": "x", "word": [], "out": [["y", s(a)]]},
                        {"m": "y", "word": [], "out": [["x", s(b)]]},
                        {"m": "x", "word": ["e"], "out": [["x", s(-1)]]},
                        {"m": "y", "word": ["e"], "out": [["y", "1"]]},
                        {"m": "x", "word": ["u"], "out": [["y", s(-p)]]},
                        {"m": "y", "word": ["u"], "out": [["x", s(q)]]}]}
    return dga, module


def qhom_doc(ctx, rng, idx):
    """check-q-homotopy at cap 5 with two workers over one document holding
    QHOM_MODULES modules, each over its own curved dga."""
    doc = {"ring": {"kind": "Zmod", "n": "7"}, "grading": {"modulus": 2},
           "spaces": {"A": [["e", 0], ["u", 1]], "M": [["x", 0], ["y", 1]]},
           "dgas": {}, "modules": {}}
    for i in range(QHOM_MODULES):
        dga, module = _qhom_module(i)
        doc["dgas"]["D%02d" % i] = dga
        doc["modules"]["m%02d" % i] = module
    argv = ["check-q-homotopy", _write_doc(ctx, "qhom", doc), "--cap", "5",
            "--jobs", "2"]
    return [Target("", lambda: run_cli(ctx.api, argv), cli_outcome,
                   argv=argv)]


with open(CLI_DOCS_PATH, encoding="utf-8") as _fh:
    CLI_DOCS = json.load(_fh)

CLI = [Kind("cmd-" + c, 1, 1, command_doc(c))
       for c in sorted(CLI_DOCS["commands"])] + [
    Kind("qhom-doc", 1, 1, qhom_doc)]

# The checkers, constructions and stage solvers run as one in-process
# workload so that a run is long enough to average over the host's speed,
# which drifts by tens of percent from one half minute to the next.
WORKLOADS = {"api": VERIFY + CONSTRUCT + SOLVE, "cli": CLI}


def instance(ctx: Context, kind: Kind, idx: int) -> List[Target]:
    rng = random.Random("%s#%d" % (kind.name, idx))
    targets = kind.make(ctx, rng, idx)
    for t in targets:
        t.label = "%s#%d%s" % (kind.name, idx, t.label)
    return targets


def build(ctx: Context, workload: str, seed: int) -> List[Target]:
    """The targets of one run, in pass order."""
    rng = random.Random(seed)
    targets: List[Target] = []
    for kind in WORKLOADS[workload]:
        for idx in sorted(rng.sample(range(kind.pool), kind.picks)):
            targets.extend(instance(ctx, kind, idx))
    rng.shuffle(targets)
    return targets


def pool(ctx: Context, workload: str) -> List[Target]:
    """Every recorded instance of a workload."""
    return [t for kind in WORKLOADS[workload] for idx in range(kind.pool)
            for t in instance(ctx, kind, idx)]


def load_expected() -> Dict[str, Dict[str, dict]]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
