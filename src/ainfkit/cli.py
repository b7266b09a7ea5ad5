"""Command line driver: run checkers over a document, emit reports.

Every command loads one JSON document, builds the structures it declares,
runs the matching checkers, and prints one report per target.  Reports are
emitted in a fixed order and without timing fields, so identical input and
flags produce byte-identical output regardless of the --jobs setting.

Exit codes: 0 when every report passes, 1 when any report fails, 2 for
usage, parse, or validation errors, and 3 when --strict is set and an
UNDECIDED verdict is present.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from .adjoint import (UAlgebra, check_ideal_stability, check_u_curvature,
                      dg_module_axioms, module_to_ue, ue_to_module)
from .ainf import (check_algebra, check_bimodule, check_module,
                   check_morphism, curved_dga_axioms)
from .docio import ParseError, SpecDocument, ValidationError, load
from .homotopy import (TheoremViolation, check_ainf_homotopy, invert_homotopy,
                       quillen_classical_components, ue_contraction)
from .qmod import (check_epsilon_closed, check_lambda_closed,
                   check_q_homotopy, check_triangle, q_module)
from .report import FAIL, PASS, UNDECIDED, UNSUPPORTED, CheckReport
from .rings import inclusion_to_rationals, reduction_mod
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


def _invert_report(doc: SpecDocument, task: Dict[str, str],
                   cap: int) -> CheckReport:
    phi = doc.hom_elements[task["phi"]]
    psi = doc.hom_elements[task["psi"]]
    h = doc.hom_elements[task["h"]]
    ell = doc.hom_elements[task["ell"]]
    try:
        _, _, rep = invert_homotopy(phi, psi, h, ell, cap)
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
    U = UAlgebra(A)
    rep = CheckReport("build-ue",
                      "adjoint algebra constructed; letter and word counts "
                      "at the cap", cap)
    rep.details["letters"] = sum(1 for _ in U.letters(cap))
    rep.details["uwords"] = sum(1 for _ in U.uwords(cap))
    rep.details["curved"] = not A.curvature_letterwise().is_zero()
    return rep


def _algebra_items(doc: SpecDocument):
    for name in sorted(doc.algebras):
        yield "algebra:" + name, doc.algebras[name]
    for name in sorted(doc.dgas):
        yield "dga:" + name, doc.dgas[name].algebra


def _modules_over(doc: SpecDocument, algebra):
    for name in sorted(doc.modules):
        if doc.modules[name].algebra is algebra:
            yield name, doc.modules[name]


def build_tasks(command: str, doc: SpecDocument, cap: int) -> List[Task]:
    tasks: List[Task] = []
    if command == "check-algebra":
        for name in sorted(doc.algebras):
            A = doc.algebras[name]
            tasks.append(("algebra:" + name,
                          lambda A=A: check_algebra(A, cap)))
        for name in sorted(doc.dgas):
            D = doc.dgas[name]
            tasks.append(("dga:" + name,
                          lambda D=D: curved_dga_axioms(D, min(cap, 3))))
    elif command == "check-morphism":
        for name in sorted(doc.morphisms):
            f = doc.morphisms[name]
            tasks.append(("morphism:" + name,
                          lambda f=f: check_morphism(f, cap)))
    elif command == "check-module":
        for name in sorted(doc.modules):
            M = doc.modules[name]
            tasks.append(("module:" + name,
                          lambda M=M: check_module(M, cap)))
    elif command == "check-bimodule":
        for name in sorted(doc.bimodules):
            V = doc.bimodules[name]
            tasks.append(("bimodule:" + name,
                          lambda V=V: check_bimodule(V, cap)))
    elif command == "build-ue":
        for label, A in _algebra_items(doc):
            tasks.append((label, lambda A=A: _build_ue_report(A, cap)))
    elif command == "check-ue":
        for label, A in _algebra_items(doc):
            tasks.append((label,
                          lambda A=A: check_u_curvature(UAlgebra(A), cap)))
    elif command == "check-ideal":
        for label, A in _algebra_items(doc):
            tasks.append((label,
                          lambda A=A: check_ideal_stability(UAlgebra(A),
                                                            cap)))
    elif command == "identify-modules":
        for name in sorted(doc.modules):
            M = doc.modules[name]
            tasks.append(("module:" + name + ":axioms",
                          lambda M=M: dg_module_axioms(module_to_ue(M),
                                                       cap)))
            tasks.append(("module:" + name + ":roundtrip",
                          lambda M=M: _roundtrip_report(M, cap)))
    elif command == "check-q-adjunction":
        for name in sorted(doc.modules):
            M = doc.modules[name]
            for tag, fn in (("lambda", check_lambda_closed),
                            ("epsilon", check_epsilon_closed),
                            ("triangle", check_triangle)):
                tasks.append(("module:" + name + ":" + tag,
                              lambda M=M, fn=fn: fn(q_module(M), cap)))
    elif command == "check-q-homotopy":
        for name in sorted(doc.modules):
            M = doc.modules[name]
            tasks.append(("module:" + name,
                          lambda M=M: check_q_homotopy(q_module(M), cap)))
    elif command == "kp-vanish":
        for aname in sorted(doc.augmentations):
            alg_name, aug = doc.augmentations[aname]
            algebra = (doc.algebras.get(alg_name)
                       or doc.dgas[alg_name].algebra)
            for mname, M in _modules_over(doc, algebra):
                label = "augmentation:%s:module:%s" % (aname, mname)
                tasks.append((label, _guard(
                    "kp-contraction", cap,
                    lambda M=M, aug=aug: kp_contraction(M, aug, cap)[1])))
    elif command == "gamma-check":
        for aname in sorted(doc.augmentations):
            alg_name, aug = doc.augmentations[aname]
            if alg_name not in doc.dgas:
                continue
            D = doc.dgas[alg_name]
            for mname, M in _modules_over(doc, D.algebra):
                label = "augmentation:%s:module:%s" % (aname, mname)
                tasks.append((label, _guard(
                    "gamma-agreement", cap,
                    lambda D=D, M=M, aug=aug:
                    check_gamma_agreement(D, M, aug, cap))))
    elif command == "mc-test":
        for label, A in _algebra_items(doc):
            tasks.append((label, lambda A=A: _mc_report(A, cap)))
    elif command == "mf-check":
        for name in sorted(doc.factorizations):
            F = doc.factorizations[name]
            tasks.append(("factorization:" + name,
                          lambda F=F: mf_check(F, cap)))
            tasks.append(("factorization:" + name + ":module",
                          lambda F=F: check_module(mf_module(F), cap)))
    elif command == "base-change":
        desc = doc.raw.get("base_change")
        if not desc:
            raise ValidationError("base-change needs a 'base_change' "
                                  "descriptor in the document")
        kind = desc.get("kind")
        if kind == "mod":
            hom = reduction_mod(int(desc["n"]))
        elif kind == "rationals":
            hom = inclusion_to_rationals()
        else:
            raise ValidationError("unknown base change kind %r" % (kind,))
        for name in sorted(doc.algebras):
            A = doc.algebras[name]
            tasks.append(("algebra:" + name, _guard(
                "base-change", cap,
                lambda A=A: check_algebra(base_change(A, hom), cap))))
        for name in sorted(doc.modules):
            M = doc.modules[name]
            tasks.append(("module:" + name, _guard(
                "base-change", cap,
                lambda M=M: check_module(base_change(M, hom), cap))))
    elif command == "invert-homotopy":
        for i, task in enumerate(doc.inversions):
            label = "inversion:%d:%s" % (i, task["phi"])
            tasks.append((label,
                          lambda task=task: _invert_report(doc, task, cap)))
    elif command == "ue-contract":
        for label, A in _algebra_items(doc):
            tasks.append((label, _guard(
                "ue-contraction", cap,
                lambda A=A: ue_contraction(A, cap)[1])))
    elif command == "homotopy-check":
        for fname, gname, h in doc.homotopies:
            f = doc.morphisms[fname]
            g = doc.morphisms[gname]
            tasks.append(("homotopy:%s~%s" % (fname, gname),
                          lambda f=f, g=g, h=h:
                          check_ainf_homotopy(f, g, h, cap)))
    elif command == "quillen-components":
        for name in sorted(doc.morphisms):
            f = doc.morphisms[name]
            tasks.append(("morphism:" + name,
                          lambda f=f: quillen_classical_components(f, cap)))
    else:  # pragma: no cover - argparse restricts the choices
        raise ValidationError("unknown command %r" % command)
    return tasks


def run_tasks(tasks: List[Task], jobs: int) -> List[Tuple[str, CheckReport]]:
    """Execute the tasks, possibly in parallel; the output order is the
    submission order regardless of completion order."""
    if jobs <= 1 or len(tasks) <= 1:
        return [(label, fn()) for label, fn in tasks]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [(label, pool.submit(fn)) for label, fn in tasks]
        return [(label, fut.result()) for label, fut in futures]


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


COMMANDS = ["check-algebra", "check-morphism", "check-module",
            "check-bimodule", "build-ue", "check-ue", "check-ideal",
            "identify-modules", "check-q-adjunction", "check-q-homotopy",
            "kp-vanish", "gamma-check", "mc-test", "mf-check", "base-change",
            "invert-homotopy", "ue-contract", "homotopy-check",
            "quillen-components"]


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
                   help="parallel workers; the output is identical for "
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
        doc = load(args.path)
        cap = resolve_cap(args, doc)
        tasks = build_tasks(args.command, doc, cap)
        results = run_tasks(tasks, args.jobs)
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
