"""End-to-end tests for the command-line front end and document loader."""

import copy
import json
import os
import subprocess
import sys

import pytest

from ainfkit import cli
from ainfkit.adjoint import UAlgebra
from ainfkit.docio import ParseError, ValidationError, load, load_dict
from ainfkit.fixtures import dga_rank2, dga_two_odd, trivial_algebra
from ainfkit.rings import IntegersMod

F7 = {"kind": "Zmod", "n": "7"}
QX = {"kind": "poly", "base": {"kind": "Q"}, "variables": ["x"]}

DOC_CURVED = {
    "ring": F7, "grading": {"modulus": 2},
    "caps": {"weight": 4, "arity": 4},
    "spaces": {"A": [["e", 0], ["u", 1]], "M": [["x", 0], ["y", 1]]},
    "algebras": {"A": {"space": "A", "unit": "e", "tables": "b",
                       "table": [{"in": [], "out": [["e", "2"]]},
                                 {"in": ["u", "u"], "out": [["e", "3"]]}]}},
    "modules": {"M": {"algebra": "A", "space": "M",
                      "table": [
                          {"m": "x", "word": [], "out": [["y", "1"]]},
                          {"m": "y", "word": [], "out": [["x", "2"]]},
                          {"m": "x", "word": ["e"], "out": [["x", "6"]]},
                          {"m": "y", "word": ["e"], "out": [["y", "1"]]},
                          {"m": "x", "word": ["u"], "out": [["y", "3"]]},
                          {"m": "y", "word": ["u"], "out": [["x", "1"]]}]}},
}

DOC_MF = {
    "ring": QX, "grading": {"modulus": 2},
    "factorizations": {
        "F": {"even_rank": 1, "odd_rank": 1, "potential": [[[2], "1"]],
              "d": [["0", [[[1], "1"]]], [[[[1], "1"]], "0"]]},
    },
}

DOC_MF_BROKEN = copy.deepcopy(DOC_MF)
DOC_MF_BROKEN["factorizations"]["broken"] = {
    "even_rank": 1, "odd_rank": 1, "potential": [[[2], "1"]],
    "d": [["0", [[[1], "1"]]], [[[[1], "2"]], "0"]]}

DOC_MC = {
    "ring": F7, "grading": {"modulus": 2},
    "spaces": {"A": [["e", 0], ["a", 1]]},
    "algebras": {
        "good": {"space": "A", "unit": "e", "tables": "m",
                 "table": [{"in": ["a"], "out": [["e", "1"]]}]},
        "zero": {"space": "A", "unit": "e", "tables": "m", "table": []}},
}

DOC_MC_POLY = {
    "ring": QX, "grading": {"modulus": 2},
    "spaces": {"A": [["e", 0], ["a", 1]]},
    "algebras": {"P": {"space": "A", "unit": "e", "tables": "m",
                       "table": [{"in": ["a"],
                                  "out": [["e", [[[1], "1"]]]]}]}},
}

DOC_BASE_CHANGE = {
    "ring": {"kind": "Z"}, "grading": {"modulus": 2},
    "spaces": {"A": [["e", 0], ["u", 1]]},
    "algebras": {"A": {"space": "A", "unit": "e", "tables": "b",
                       "table": [{"in": ["u", "u"], "out": [["e", "3"]]}]}},
    "base_change": {"kind": "mod", "n": 5},
}

# A curved dg-algebra with no differential (only arities 0 and 2), an
# augmentation, and a module over it: the closed-form even-arity homotopy
# applies here, so both the series contraction and the table agreement run.
DOC_GAMMA = {
    "ring": F7, "grading": {"modulus": 2},
    "spaces": {"A": [["e", 0], ["u", 1]], "M": [["x", 0], ["y", 1]]},
    "dgas": {"D": {"space": "A", "unit": "e",
                   "curvature": [["e", "6"]],
                   "product": [
                       {"in": ["e", "e"], "out": [["e", "1"]]},
                       {"in": ["e", "u"], "out": [["u", "1"]]},
                       {"in": ["u", "e"], "out": [["u", "1"]]},
                       {"in": ["u", "u"], "out": [["e", "1"]]}]}},
    "modules": {"M": {"algebra": "D", "space": "M",
                      "table": [
                          {"m": "x", "word": [], "out": [["y", "1"]]},
                          {"m": "y", "word": [], "out": [["x", "1"]]},
                          {"m": "x", "word": ["e"], "out": [["x", "6"]]},
                          {"m": "y", "word": ["e"], "out": [["y", "1"]]},
                          {"m": "x", "word": ["u"], "out": [["y", "6"]]},
                          {"m": "y", "word": ["u"], "out": [["x", "1"]]}]}},
    "augmentations": {"l": {"algebra": "D", "values": {"e": "6"}}},
}

# Two dg-algebra morphisms f, g out of a square-zero Z-graded source and a
# degree -1 homotopy between them (h(x) = -t on the shifted side).
DOC_HOMOTOPY = {
    "ring": F7, "grading": {"modulus": None},
    "spaces": {"A": [["e", 0], ["x", 1]],
               "B": [["e", 0], ["t", 0], ["s", 1]]},
    "dgas": {
        "A": {"space": "A", "unit": "e",
              "product": [{"in": ["e", "e"], "out": [["e", "1"]]},
                          {"in": ["e", "x"], "out": [["x", "1"]]},
                          {"in": ["x", "e"], "out": [["x", "1"]]}]},
        "B": {"space": "B", "unit": "e",
              "d": [{"in": "t", "out": [["s", "1"]]}],
              "product": [{"in": ["e", "e"], "out": [["e", "1"]]},
                          {"in": ["e", "t"], "out": [["t", "1"]]},
                          {"in": ["t", "e"], "out": [["t", "1"]]},
                          {"in": ["e", "s"], "out": [["s", "1"]]},
                          {"in": ["s", "e"], "out": [["s", "1"]]}]}},
    "morphisms": {
        "f": {"source": "A", "target": "B",
              "table": [{"in": ["e"], "out": [["e", "1"]]},
                        {"in": ["x"], "out": [["s", "1"]]}]},
        "g": {"source": "A", "target": "B",
              "table": [{"in": ["e"], "out": [["e", "1"]]}]}},
    "homotopies": [{"f": "f", "g": "g",
                    "h": [{"in": ["x"], "out": [["t", "6"]]}]}],
}

# A rank-one algebra with its mapping-cone bimodule, plus the data for a
# (trivial) homotopy-inversion run over the rank-one module.
DOC_BIMODULE = {
    "ring": F7, "grading": {"modulus": 2},
    "spaces": {"A": [["e", 0]], "V": [["s", 1], ["t", 0]],
               "M": [["x", 0]]},
    "algebras": {"T": {"space": "A", "unit": "e", "table": []}},
    "bimodules": {"C": {"left": "T", "right": "T", "space": "V",
                        "table": [
                            {"left": ["e"], "v": "s", "right": [],
                             "out": [["s", "1"]]},
                            {"left": ["e"], "v": "t", "right": [],
                             "out": [["t", "1"]]},
                            {"left": [], "v": "s", "right": ["e"],
                             "out": [["s", "1"]]},
                            {"left": [], "v": "s", "right": [],
                             "out": [["t", "1"]]},
                            {"left": [], "v": "t", "right": ["e"],
                             "out": [["t", "6"]]}]}},
    "modules": {"M": {"algebra": "T", "space": "M",
                      "table": [{"m": "x", "word": ["e"],
                                 "out": [["x", "6"]]}]}},
    "hom_elements": {
        "id": {"source": "M", "target": "M", "degree": 0,
               "table": [{"m": "x", "word": [], "out": [["x", "1"]]}]},
        "zero": {"source": "M", "target": "M", "degree": 0, "table": []},
        "zeroh": {"source": "M", "target": "M", "degree": -1, "table": []}},
    "inversions": [{"phi": "id", "psi": "id", "h": "zeroh",
                    "ell": "zeroh"}],
}


@pytest.fixture
def write(tmp_path):
    def _write(doc, name="doc.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)
    return _write


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------- loading

def test_load_minimal_algebra():
    doc = load_dict({"ring": F7, "spaces": {"A": [["e", 0]]},
                     "algebras": {"T": {"space": "A", "unit": "e",
                                        "table": []}}})
    assert set(doc.algebras) == {"T"}
    A = doc.algebras["T"]
    assert A.unit == "e" and set(A.space.gens) == {"e"}


def test_degree_inconsistent_entry_names_entity():
    bad = copy.deepcopy(DOC_CURVED)
    # b^M on (x, ()) must be odd; pointing it back at x breaks homogeneity.
    bad["modules"]["M"]["table"][0]["out"] = [["x", "1"]]
    with pytest.raises(ValidationError) as err:
        load_dict(bad)
    assert "module 'M'" in str(err.value)


def test_unknown_name_is_reported():
    bad = copy.deepcopy(DOC_CURVED)
    bad["modules"]["M"]["algebra"] = "missing"
    with pytest.raises(ValidationError) as err:
        load_dict(bad)
    assert "missing" in str(err.value)


def test_parse_error_carries_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    with pytest.raises(ParseError) as err:
        load(str(p))
    assert "line 1 column 2" in str(err.value)


# ------------------------------------------------------------ exit codes

def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{bad")
    assert cli.main(["check-algebra", str(p)]) == 2
    assert "line 1 column 2" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert cli.main(["check-algebra", "/nonexistent/x.json"]) == 2


def test_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate", "x.json"]) == 2


# ------------------------------------------------- checks over documents

def test_curved_document_passes_structure_checks(write, capsys):
    path = write(DOC_CURVED)
    for command in ("check-algebra", "check-module", "build-ue",
                    "check-ue", "check-ideal", "identify-modules",
                    "check-q-adjunction", "check-q-homotopy"):
        code, out = run(capsys, command, path)
        assert code == 0, (command, out)
        assert "FAIL" not in out


def test_curved_base_is_unsupported_not_an_error(write, capsys):
    path = write(DOC_CURVED)
    for command in ("mc-test", "ue-contract"):
        code, out = run(capsys, command, path)
        assert code == 0
        assert "UNSUPPORTED" in out


def test_mf_check_pass_and_fail(write, capsys):
    code, out = run(capsys, "mf-check", write(DOC_MF))
    assert code == 0 and "PASS" in out
    code, out = run(capsys, "mf-check", write(DOC_MF_BROKEN, "b.json"))
    assert code == 1
    assert "broken" in out and "FAIL" in out


def test_mf_check_fails_a_parity_preserving_d_without_its_module(
        write, capsys):
    # such a d has no odd companion module: both targets fail with the
    # parity witness, and nothing is built
    doc = copy.deepcopy(DOC_MF)
    doc["factorizations"]["F"]["d"] = [[[[[1], "1"]], "0"],
                                       ["0", [[[1], "1"]]]]
    code, out = run(capsys, "mf-check", write(doc))
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[::2]] \
        == ["factorization:F", "factorization:F:module"]
    assert lines[1] == lines[3] \
        == "  witness: ('d has a parity-preserving entry', None, None)"


def test_mc_test_decides_both_ways(write, capsys):
    code, out = run(capsys, "mc-test", write(DOC_MC))
    assert code == 0
    assert "good" in out and "zero" in out and "FAIL" not in out


def test_mc_test_undecided_over_polynomials(write, capsys):
    path = write(DOC_MC_POLY)
    code, out = run(capsys, "mc-test", path)
    assert code == 0 and "UNDECIDED" in out
    code, out = run(capsys, "mc-test", path, "--strict")
    assert code == 3


def test_base_change_reduces_and_passes(write, capsys):
    code, out = run(capsys, "base-change", write(DOC_BASE_CHANGE))
    assert code == 0 and "PASS" in out


def test_kp_vanish_and_gamma_agreement(write, capsys):
    path = write(DOC_GAMMA)
    for command in ("check-algebra", "check-module", "kp-vanish",
                    "gamma-check"):
        code, out = run(capsys, command, path)
        assert code == 0, (command, out)
        assert "FAIL" not in out


def test_gamma_check_unsupported_with_differential(write, capsys):
    doc = copy.deepcopy(DOC_GAMMA)
    doc["dgas"]["D"]["curvature"] = [["e", "1"]]
    doc["dgas"]["D"]["d"] = [{"in": "u", "out": [["e", "2"]]}]
    doc["dgas"]["D"]["product"][3]["out"] = [["e", "6"]]
    doc["modules"]["M"]["table"] = [
        {"m": "x", "word": [], "out": [["y", "1"]]},
        {"m": "y", "word": [], "out": [["x", "6"]]},
        {"m": "x", "word": ["e"], "out": [["x", "6"]]},
        {"m": "y", "word": ["e"], "out": [["y", "1"]]},
        {"m": "x", "word": ["u"], "out": [["y", "5"]]},
        {"m": "y", "word": ["u"], "out": [["x", "3"]]}]
    doc["augmentations"]["l"]["values"] = {"e": "1"}
    path = write(doc)
    code, out = run(capsys, "kp-vanish", path)
    assert code == 0 and "PASS" in out
    code, out = run(capsys, "gamma-check", path)
    assert code == 0 and "UNSUPPORTED" in out


def test_homotopy_check_and_morphisms(write, capsys):
    path = write(DOC_HOMOTOPY)
    for command in ("check-algebra", "check-morphism", "homotopy-check",
                    "quillen-components"):
        code, out = run(capsys, command, path)
        assert code == 0, (command, out)
        assert "FAIL" not in out


def test_homotopy_check_detects_wrong_sign(write, capsys):
    doc = copy.deepcopy(DOC_HOMOTOPY)
    doc["homotopies"][0]["h"] = [{"in": ["x"], "out": [["t", "1"]]}]
    code, out = run(capsys, "homotopy-check", write(doc))
    assert code == 1 and "FAIL" in out


def test_check_bimodule(write, capsys):
    code, out = run(capsys, "check-bimodule", write(DOC_BIMODULE))
    assert code == 0 and "PASS" in out


def test_invert_homotopy_pass_and_violation(write, capsys):
    code, out = run(capsys, "invert-homotopy", write(DOC_BIMODULE))
    assert code == 0 and "PASS" in out
    bad = copy.deepcopy(DOC_BIMODULE)
    bad["inversions"] = [{"phi": "zero", "psi": "id", "h": "zeroh",
                          "ell": "zeroh"}]
    code, out = run(capsys, "invert-homotopy", write(bad, "b.json"))
    assert code == 1
    assert "stage" in out and "arity 0" in out


def test_invert_homotopy_refuses_a_structure_that_is_not_a_module(
        write, capsys):
    # x.e = -5x breaks the unit law, so M is not a module
    doc = copy.deepcopy(DOC_BIMODULE)
    doc["modules"]["M"]["table"][0]["out"] = [["x", "5"]]
    path = write(doc)
    code, out = run(capsys, "check-module", path)
    assert code == 1 and "FAIL" in out
    code, out = run(capsys, "invert-homotopy", path)
    assert code == 0
    assert "[UNSUPPORTED] homotopy-inversion (the source must be a " \
        "module: the module check fails at 'unit-laws'; cap=4)" in out


# ---------------------------------------------------------- determinism

def test_json_output_is_byte_identical_across_jobs(write, capsys):
    path = write(DOC_CURVED)
    outputs = []
    for jobs in ("1", "4", "4"):
        code, out = run(capsys, "check-q-homotopy", path,
                        "--format=json", "--jobs", jobs)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]
    payload = json.loads(outputs[0])
    assert payload and all("target" in e and "verdict" in e
                           for e in payload)
    assert "seconds" not in json.dumps(payload)


def _package_env():
    return dict(os.environ,
                PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))


def _three_modules():
    doc = copy.deepcopy(DOC_CURVED)
    for name in ("N", "P"):
        doc["modules"][name] = copy.deepcopy(doc["modules"]["M"])
    return doc


def test_process_pool_output_matches_jobs_1_through_main(write):
    # the spawn path of `python -m ainfkit.cli`; --cap 3 differs from the
    # document's weight cap, so a worker must build its tasks at the
    # resolved cap
    path = write(_three_modules())
    runs = [subprocess.run(
        [sys.executable, "-m", "ainfkit.cli", "check-q-homotopy", path,
         "--cap", "3", "--jobs", jobs],
        capture_output=True, text=True, env=_package_env(), timeout=120)
        for jobs in ("2", "1")]
    assert runs[0].stderr == "" and runs[0].stdout.count("cap=3") == 3
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].returncode == runs[1].returncode == 0


def _pool_spy(monkeypatch, refuse=False):
    from concurrent.futures import process
    made = []

    class Spy(process.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            if refuse:
                raise AssertionError("no pool should be created")
            made.append(self)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(process, "ProcessPoolExecutor", Spy)
    return made


def test_process_pool_workers_end_with_main(write, capsys, monkeypatch):
    import multiprocessing
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    made = _pool_spy(monkeypatch)
    path = write(_three_modules())
    code, out = run(capsys, "check-q-homotopy", path, "--cap", "3",
                    "--jobs", "2")
    assert code == 0 and out.count("[PASS]") == 3
    assert len(made) == 1
    assert multiprocessing.active_children() == []


def test_no_pool_for_one_cpu_or_one_task(write, capsys, monkeypatch):
    _pool_spy(monkeypatch, refuse=True)
    path = write(_three_modules())
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code, out = run(capsys, "check-q-homotopy", path, "--cap", "3",
                    "--jobs", "4")
    assert code == 0 and out.count("[PASS]") == 3
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    code, out = run(capsys, "check-q-homotopy", write(DOC_CURVED), "--cap",
                    "3", "--jobs", "4")
    assert code == 0 and out.count("[PASS]") == 1


def test_importing_cli_loads_no_process_machinery():
    probe = ("import sys, ainfkit.cli; print(sorted(m for m in "
             "('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cap_resolution(write, capsys, monkeypatch):
    path = write(DOC_CURVED)
    monkeypatch.setenv("AINF_DEFAULT_CAP", "3")
    code, out = run(capsys, "check-algebra", path)
    assert code == 0 and "cap=3" in out
    code, out = run(capsys, "check-algebra", path, "--cap", "2")
    assert code == 0 and "cap=2" in out
    monkeypatch.setenv("AINF_DEFAULT_CAP", "nope")
    assert cli.main(["check-algebra", path]) == 2
    capsys.readouterr()
    # a negative cap is refused, never a vacuous PASS
    code, out = run(capsys, "check-algebra", path, "--cap", "-1")
    assert code == 2 and out == ""
    monkeypatch.setenv("AINF_DEFAULT_CAP", "-1")
    code, out = run(capsys, "check-algebra", path)
    assert code == 2 and out == ""
    monkeypatch.delenv("AINF_DEFAULT_CAP")
    doc = copy.deepcopy(DOC_CURVED)
    doc["caps"]["weight"] = -1
    assert cli.main(["check-algebra", write(doc, "neg.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "caps" in captured.err


def test_jobs_below_one_is_refused(write, capsys):
    path = write(DOC_CURVED)
    for jobs in ("0", "-5"):
        assert cli.main(["check-algebra", path, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --jobs %s: jobs must be 1 or more\n"
                                % jobs)


def test_build_ue_counts_match_the_enumeration():
    Z7 = IntegersMod(7)
    algebras = [trivial_algebra(Z7), dga_rank2(Z7, 2, 3, 4).algebra,
                dga_two_odd(Z7, 1).algebra]
    assert [len(A.shift.names) for A in algebras] == [1, 2, 3]
    for A in algebras:
        U = UAlgebra(A)
        for cap in range(6):
            details = cli._build_ue_report(A, cap).details
            assert details["letters"] == sum(1 for _ in U.letters(cap))
            assert details["uwords"] == sum(1 for _ in U.uwords(cap))


def _set(path, value):
    def mutate(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        doc[last] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *keys, last = path
        for k in keys:
            doc = doc[k]
        del doc[last]
    return mutate


def _psi_wrong_way(doc):
    """A copy N of the module M, phi the identity M -> N and h on N, with
    phi given again as psi, so psi maps M -> N instead of N -> M."""
    doc["modules"]["N"] = copy.deepcopy(doc["modules"]["M"])
    homs = doc["hom_elements"]
    homs["mn"] = dict(homs["id"], target="N")
    homs["zn"] = dict(homs["zeroh"], source="N", target="N")
    doc["inversions"][0].update(phi="mn", psi="mn", h="zn")


def _hom_across_algebras(doc):
    """A module N over a second algebra S, and an inversion task whose hom
    elements run between M (over T) and N."""
    doc["spaces"]["S"] = [["e", 0]]
    doc["algebras"]["S"] = {"space": "S", "unit": "e", "table": []}
    doc["modules"]["N"] = dict(doc["modules"]["M"], algebra="S")
    homs = doc["hom_elements"]
    homs["mn"] = dict(homs["id"], target="N")
    homs["nm"] = dict(homs["id"], source="N")
    homs["zn"] = dict(homs["zeroh"], source="N", target="N")
    doc["inversions"][0].update(phi="mn", psi="nm", h="zn")


# (base document, command) for the malformed-input cases
CURVED = (DOC_CURVED, "check-algebra")
HOMOTOPY = (DOC_HOMOTOPY, "homotopy-check")
INVERSION = (DOC_BIMODULE, "invert-homotopy")
GAMMA = (DOC_GAMMA, "kp-vanish")
MF = (DOC_MF, "mf-check")


@pytest.mark.parametrize("base, mutate, entity", [
    (CURVED, _set(("algebras", "A", "table", 1, "out"), [["e", "abc"]]),
     "algebra 'A'"),
    (CURVED, _drop(("algebras", "A", "space")), "algebra 'A'"),
    (CURVED, _set(("spaces", "A", 1), ["u", "x"]), "space 'A'"),
    (CURVED, _set(("algebras", "A", "table", 1, "out"), [["e", 2.7]]),
     "algebra 'A'"),
    (CURVED, _set(("modules", "M", "table", 0, "out"), [["y", True]]),
     "module 'M'"),
    (CURVED, _set(("algebras", "A", "arity_cap"), 2.7), "algebra 'A'"),
    (CURVED, _set(("grading",), ["x"]), "grading"),
    (CURVED, _set(("algebras",), [1]), "algebras"),
    (CURVED, _set(("spaces",), [1]), "spaces"),
    (CURVED, _set(("ring",), 7), "ring"),
    (CURVED, _set(("inversions",), 5), "inversions"),
    (CURVED, _set(("ring", "n"), 7.9), "ring"),
    (CURVED, _set(("ring", "n"), str(2 ** 89 - 1)), "ring"),
    (CURVED, _set(("base_change",), {"kind": "mod", "n": 5.5}),
     "base_change"),
    (CURVED, _set(("base_change",), ["mod", 5]), "base_change"),
    (CURVED, _set(("base_change",), {"kind": "mod"}), "base_change"),
    (CURVED, _set(("base_change",), {"kind": "mod", "n": 0}),
     "base_change"),
    (CURVED, _set(("base_change",), {"kind": "p-adic"}), "base_change"),
    (CURVED, _set(("spaces", "A"), {"e0": 1, "u1": 2}), "space 'A'"),
    (CURVED, _set(("spaces", "A", 1), "u1"), "space 'A'"),
    (CURVED, _set(("ring",), {"kind": "poly", "base": {"kind": "Q"},
                              "variables": "xy"}), "ring descriptor"),
    (HOMOTOPY, _set(("homotopies", 0, "h", 0, "out"), [["z", "1"]]),
     "homotopy between 'f' and 'g' outputs unknown generator 'z'"),
    (HOMOTOPY, _set(("homotopies", 0, "h", 0, "out"), [["s", "1"]]),
     "homotopy between 'f' and 'g': output 's' has degree 0"),
    (HOMOTOPY, _set(("homotopies", 0, "h"),
                    [{"in": ["x"], "out": [["t", "6"]]},
                     {"in": [], "out": [["t", "1"]]}]),
     "homotopy between 'f' and 'g': homotopy families start at arity 1"),
    (HOMOTOPY, _set(("morphisms", "g", "target"), "A"),
     "homotopy between 'f' and 'g': the two morphisms must share"),
    (INVERSION, _set(("hom_elements", "zeroh", "table"),
                     [{"m": "x", "word": [], "out": [["x", "1"]]}]),
     "hom element 'zeroh': output 'x' has degree 0"),
    (INVERSION, _set(("hom_elements", "id", "cap"), -1),
     "hom element 'id': cap 'cap' is -1"),
    (INVERSION, _psi_wrong_way, "inversion task 0: psi 'mn' must map N -> M"),
    (GAMMA, _set(("augmentations", "l"),
                 {"algebra": "D", "check_unit": False, "values": {"e": "1"}}),
     "augmentation 'l': l(m_0(1)) = 6, not 1"),
    (INVERSION, _hom_across_algebras,
     "hom element 'mn': modules 'M' and 'N' lie over different algebras"),
    (MF, _set(("factorizations", "F"),
              dict(DOC_MF["factorizations"]["F"], even_rank=-1, odd_rank=3)),
     "factorization 'F': ranks must be 0 or more"),
    (GAMMA, _set(("augmentations", "l", "values"), {"e": "6", "zz": "0"}),
     "augmentation 'l': unknown generator 'zz'"),
    (CURVED, _set(("modules", "M", "arity_cap"), 0),
     "module 'M': entry word ('e',) has 1 letters, beyond cap 0"),
    (INVERSION, _set(("hom_elements", "zeroh"),
                     {"source": "M", "target": "M", "degree": -1, "cap": 0,
                      "table": [{"m": "x", "word": ["e"],
                                 "out": [["x", "1"]]}]}),
     "hom element 'zeroh': entry word ('e',) has 1 letters, beyond cap 0"),
    (INVERSION, _set(("spaces", "A"), [["e", 1]]),
     "algebra 'T': unit 'e' has odd degree 1"),
], ids=["coefficient-abc", "missing-space", "degree-x", "float-coefficient",
        "bool-coefficient", "float-arity-cap", "grading-not-an-object",
        "algebras-a-list", "spaces-a-list", "ring-an-integer",
        "inversions-an-integer", "float-modulus", "undecided-modulus",
        "float-base-change-modulus", "base-change-a-list",
        "base-change-without-modulus", "base-change-modulus-0",
        "unknown-base-change-kind", "space-an-object", "space-entry-a-string",
        "variables-a-string", "homotopy-unknown-output",
        "homotopy-output-degree", "homotopy-arity-0", "homotopy-ends-differ",
        "hom-element-degree", "hom-element-negative-cap",
        "inversion-psi-wrong-way", "augmentation-unit-unchecked",
        "hom-element-across-algebras", "negative-factorization-rank",
        "augmentation-unknown-generator", "module-entry-beyond-cap",
        "hom-element-entry-beyond-cap", "odd-unit"])
def test_malformed_document_exits_2_naming_the_entity(write, base, mutate,
                                                      entity):
    doc, command = base
    doc = copy.deepcopy(doc)
    mutate(doc)
    proc = subprocess.run(
        [sys.executable, "-m", "ainfkit.cli", command, write(doc)],
        capture_output=True, text=True, env=_package_env(), timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert entity in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
