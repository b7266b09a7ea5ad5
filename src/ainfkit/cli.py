"""Command line driver: run checkers over a document, emit reports.

Every command loads one JSON document, builds the structures it declares,
runs the matching checkers, and prints one report per target.  Reports are
emitted in a fixed order and without timing fields, so identical input and
flags produce byte-identical output regardless of the --jobs setting.
``--jobs N`` runs the targets in up to min(N, CPU count, targets) spawned
worker processes, each loading the document once; a script that calls
``main`` with ``--jobs`` > 1 needs an ``if __name__ == "__main__":`` guard.

Exit codes: 0 when every report passes, 1 when any report fails, 2 for
usage, parse, or validation errors, and 3 when --strict is set and an
UNDECIDED verdict is present.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, List, Optional, Tuple

from .adjoint import (UAlgebra, check_ideal_stability, check_u_curvature,
                      dg_module_axioms, module_to_ue, ue_to_module)
from .ainf import (check_algebra, check_bimodule, check_module,
                   check_morphism, curved_dga_axioms)
from .docio import ParseError, SpecDocument, ValidationError, load
from .homotopy import (TheoremViolation, check_ainf_homotopy, invert_homotopy,
                       quillen_classical_components, ue_contraction)
from .qmod import (check_epsilon_closed, check_lambda_closed,
                   check_q_homotopy, check_triangle, q_module)
from .report import FAIL, UNDECIDED, UNSUPPORTED, CheckReport
from .vanish import (MaurerCartanProblem, UnsupportedStructure, base_change,
                     check_gamma_agreement, kp_contraction, mc_criterion,
                     mf_check, mf_module)

Task = Tuple[str, Callable[[], CheckReport]]


def _unsupported(name: str, reason: str, cap: int) -> CheckReport:
    rep = CheckReport(name, reason, cap)
    rep.verdict = UNSUPPORTED
    return rep


def _guard(name: str, cap: int,
           fn: Callable[[], CheckReport]) -> Callable[[], CheckReport]:
    def run() -> CheckReport:
        try:
            return fn()
        except UnsupportedStructure as exc:
            return _unsupported(name, str(exc), cap)
    return run


def _mf_module_report(F, cap: int) -> CheckReport:
    """The companion module's relation.  A d with a parity-preserving entry
    has no odd companion module, which ``AInfModule`` refuses, so the
    check fails unbuilt, with the witness of ``mf_check``."""
    if not F.is_odd():
        rep = CheckReport("module", "b^M(B^M) = 0 and (B^M)^2 = 0", cap)
        return rep.fail(("d has a parity-preserving entry", None, None))
    return check_module(mf_module(F), cap)


def _roundtrip_report(M, cap: int) -> CheckReport:
    """Object roundtrip of the module identification: strict module ->
    adjoint-algebra module -> strict module is the identity on tables."""
    rep = CheckReport("module-roundtrip",
                      "identification and its inverse compose to the "
                      "identity on module tables", cap)
    back = ue_to_module(module_to_ue(M), M.arity_cap)
    if back.table != M.table:
        keys = sorted(set(back.table) ^ set(M.table)) or sorted(
            k for k in M.table if back.table.get(k) != M.table[k])
        rep.fail((keys[0] if keys else "table", "equal tables", "mismatch"))
    return rep


def _mc_report(A, cap: int) -> CheckReport:
    rep = CheckReport("maurer-cartan",
                      "unit in the image of the first operation on the odd "
                      "part", cap)
    try:
        res = mc_criterion(MaurerCartanProblem(A))
    except ValueError as exc:
        return _unsupported("maurer-cartan", str(exc), cap)
    rep.details["status"] = res.status
    rep.details["reason"] = res.reason
    if res.witness is not None:
        rep.details["witness"] = res.witness
    if res.status == "UNDECIDED":
        rep.verdict = UNDECIDED
    return rep


def _invert_report(homs, cap: int) -> CheckReport:
    try:
        _, _, rep = invert_homotopy(*homs, cap)
        return rep
    except TheoremViolation as exc:
        rep = CheckReport("homotopy-inversion",
                          "stagewise upgrade of an arity-one homotopy "
                          "inverse", cap)
        rep.fail((("stage", exc.stage), "solvable stage equation",
                  str(exc)))
        return rep
    except (UnsupportedStructure, ValueError) as exc:
        return _unsupported("homotopy-inversion", str(exc), cap)


def _build_ue_report(A, cap: int) -> CheckReport:
    """Counts in closed form: g^k letters of weight k, and 2^(k-1)
    ways to cut a word of weight k >= 1 into letters."""
    g = len(A.shift.names)
    rep = CheckReport("build-ue",
                      "adjoint algebra constructed; letter and word counts "
                      "at the cap", cap)
    rep.details["letters"] = sum(g ** k for k in range(1, cap + 1))
    rep.details["uwords"] = 1 + sum(g ** k * 2 ** (k - 1)
                                    for k in range(1, cap + 1))
    rep.details["curved"] = not A.curvature_letterwise().is_zero()
    return rep


# Target collections: each maps a document to its (label, item) pairs.

def _entities(key: str, prefix: str) -> Callable:
    def targets(doc: SpecDocument):
        named = getattr(doc, key)
        return [(prefix + name, named[name]) for name in sorted(named)]
    return targets


_ALGEBRAS = _entities("algebras", "algebra:")
_MODULES = _entities("modules", "module:")
_MORPHISMS = _entities("morphisms", "morphism:")


def _algebra_items(doc: SpecDocument):
    return _ALGEBRAS(doc) + [("dga:" + name, doc.dgas[name].algebra)
                             for name in sorted(doc.dgas)]


def _modules_over(doc: SpecDocument, algebra):
    for name in sorted(doc.modules):
        if doc.modules[name].algebra is algebra:
            yield name, doc.modules[name]


def _augmented_modules(doc: SpecDocument):
    for aname in sorted(doc.augmentations):
        alg_name, aug = doc.augmentations[aname]
        algebra = (doc.algebras.get(alg_name)
                   or doc.dgas[alg_name].algebra)
        for mname, M in _modules_over(doc, algebra):
            yield "augmentation:%s:module:%s" % (aname, mname), (M, aug)


def _augmented_dga_modules(doc: SpecDocument):
    for aname in sorted(doc.augmentations):
        alg_name, aug = doc.augmentations[aname]
        if alg_name in doc.dgas:
            D = doc.dgas[alg_name]
            for mname, M in _modules_over(doc, D.algebra):
                yield ("augmentation:%s:module:%s" % (aname, mname),
                       (D, M, aug))


def _with_base_change(targets: Callable) -> Callable:
    def paired(doc: SpecDocument):
        if doc.base_change is None:
            raise ValidationError("base-change needs a 'base_change' "
                                  "descriptor in the document")
        return [(label, (X, doc.base_change)) for label, X in targets(doc)]
    return paired


def _inversions(doc: SpecDocument):
    return [("inversion:%d:%s" % (i, task["phi"]),
             [doc.hom_elements[task[k]] for k in ("phi", "psi", "h", "ell")])
            for i, task in enumerate(doc.inversions)]


def _homotopies(doc: SpecDocument):
    return [("homotopy:%s~%s" % (f, g),
             (doc.morphisms[f], doc.morphisms[g], h))
            for f, g, h in doc.homotopies]


# command -> groups of targets, run in order.  A group is (targets, checks,
# guard): each (label, item) of ``targets(doc)`` runs every check of the
# {suffix: check} dict as ``check(item, cap)``, labelled label + suffix, and
# with ``guard`` set an UnsupportedStructure becomes an UNSUPPORTED report
# of that name.  The lambdas look a function up when the check runs, so a
# patched module attribute (a tracer, a test double) takes effect.
_TABLE = {
    "check-algebra": [
        (_ALGEBRAS, {"": lambda A, cap: check_algebra(A, cap)}, None),
        (_entities("dgas", "dga:"),
         {"": lambda D, cap: curved_dga_axioms(D, min(cap, 3))}, None)],
    "check-morphism": [
        (_MORPHISMS, {"": lambda f, cap: check_morphism(f, cap)}, None)],
    "check-module": [
        (_MODULES, {"": lambda M, cap: check_module(M, cap)}, None)],
    "check-bimodule": [
        (_entities("bimodules", "bimodule:"),
         {"": lambda V, cap: check_bimodule(V, cap)}, None)],
    "build-ue": [(_algebra_items, {"": _build_ue_report}, None)],
    "check-ue": [(_algebra_items, {
        "": lambda A, cap: check_u_curvature(UAlgebra(A), cap)}, None)],
    "check-ideal": [(_algebra_items, {
        "": lambda A, cap: check_ideal_stability(UAlgebra(A), cap)}, None)],
    "identify-modules": [(_MODULES, {
        ":axioms": lambda M, cap: dg_module_axioms(module_to_ue(M), cap),
        ":roundtrip": _roundtrip_report}, None)],
    "check-q-adjunction": [(_MODULES, {
        ":lambda": lambda M, cap: check_lambda_closed(q_module(M), cap),
        ":epsilon": lambda M, cap: check_epsilon_closed(q_module(M), cap),
        ":triangle": lambda M, cap: check_triangle(q_module(M), cap)}, None)],
    "check-q-homotopy": [(_MODULES, {
        "": lambda M, cap: check_q_homotopy(q_module(M), cap)}, None)],
    "kp-vanish": [(_augmented_modules, {
        "": lambda Ma, cap: kp_contraction(*Ma, cap)[1]}, "kp-contraction")],
    "gamma-check": [(_augmented_dga_modules, {
        "": lambda DMa, cap: check_gamma_agreement(*DMa, cap)},
        "gamma-agreement")],
    "mc-test": [(_algebra_items, {"": _mc_report}, None)],
    "mf-check": [(_entities("factorizations", "factorization:"), {
        "": lambda F, cap: mf_check(F, cap),
        ":module": _mf_module_report}, None)],
    "base-change": [
        (_with_base_change(_ALGEBRAS), {
            "": lambda Ah, cap: check_algebra(base_change(*Ah), cap)},
         "base-change"),
        (_with_base_change(_MODULES), {
            "": lambda Mh, cap: check_module(base_change(*Mh), cap)},
         "base-change")],
    "invert-homotopy": [(_inversions, {"": _invert_report}, None)],
    "ue-contract": [(_algebra_items, {
        "": lambda A, cap: ue_contraction(A, cap)[1]}, "ue-contraction")],
    "homotopy-check": [(_homotopies, {
        "": lambda fgh, cap: check_ainf_homotopy(*fgh, cap)}, None)],
    "quillen-components": [(_MORPHISMS, {
        "": lambda f, cap: quillen_classical_components(f, cap)}, None)],
}

COMMANDS = list(_TABLE)


def build_tasks(command: str, doc: SpecDocument, cap: int) -> List[Task]:
    tasks: List[Task] = []
    for targets, checks, guard in _TABLE[command]:
        for label, item in targets(doc):
            for suffix, check in checks.items():
                fn = partial(check, item, cap)
                tasks.append((label + suffix,
                              _guard(guard, cap, fn) if guard else fn))
    return tasks


# A worker process's tasks, built once by _load_worker; a task is its index.
_WORKER_TASKS: List[Task] = []


def _load_worker(command: str, path: str, cap: int) -> None:
    _WORKER_TASKS[:] = build_tasks(command, load(path), cap)


def _run_worker_task(index: int) -> CheckReport:
    return _WORKER_TASKS[index][1]()


def run_tasks(tasks: List[Task], jobs: int,
              source: Tuple[str, str, int]) -> List[Tuple[str, CheckReport]]:
    """Run the tasks built from ``source`` = (command, path, cap), keeping
    their order.  With ``jobs`` above 1, up to min(jobs, CPU count, tasks)
    spawned workers each load the document once; the reports are the same,
    and a calling script needs an ``if __name__ == "__main__":`` guard."""
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [(label, fn()) for label, fn in tasks]
    # imported here, so that importing cli (and its peak memory) stays small
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"),
                             _load_worker, source) as pool:
        reports = list(pool.map(_run_worker_task, range(len(tasks))))
    return [(label, rep) for (label, _), rep in zip(tasks, reports)]


def render(results: List[Tuple[str, CheckReport]], fmt: str) -> str:
    if fmt == "json":
        payload = []
        for label, rep in results:
            entry = rep.to_dict()
            entry["target"] = label
            payload.append(entry)
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for label, rep in results:
        lines.append("%-40s %s" % (label, rep))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ainfkit",
        description="run exact structure checks over a JSON document")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("path", help="input document")
    p.add_argument("--cap", type=int, default=None,
                   help="weight/arity cap (default: AINF_DEFAULT_CAP, the "
                        "document's caps, or 4)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; the output is identical for "
                        "every setting")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any verdict is UNDECIDED")
    return p


def resolve_cap(args: argparse.Namespace, doc: SpecDocument) -> int:
    """--cap, else AINF_DEFAULT_CAP, else the document's weight cap (which
    loading has checked)."""
    env = os.environ.get("AINF_DEFAULT_CAP")
    if args.cap is not None:
        source, cap = "--cap", args.cap
    elif env is not None:
        try:
            source, cap = "AINF_DEFAULT_CAP", int(env)
        except ValueError:
            raise ValidationError("AINF_DEFAULT_CAP=%r is not an integer"
                                  % env)
    else:
        return doc.caps.get("weight", 4)
    if cap < 0:
        raise ValidationError("%s %d: caps must be 0 or more" % (source, cap))
    return cap


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.jobs < 1:
            raise ValidationError("--jobs %d: jobs must be 1 or more"
                                  % args.jobs)
        doc = load(args.path)
        cap = resolve_cap(args, doc)
        tasks = build_tasks(args.command, doc, cap)
        results = run_tasks(tasks, args.jobs, (args.command, args.path, cap))
    except (ParseError, ValidationError, FileNotFoundError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(render(results, args.format))
    verdicts = {rep.verdict for _, rep in results}
    if FAIL in verdicts:
        return 1
    if args.strict and UNDECIDED in verdicts:
        return 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
