"""Record the known answers of every pool instance into expected.json.

    python3 perfbench/record.py

Run at the commit whose outputs are the reference; it records every workload
and rewrites the file whole.  Verdicts known by construction must hold, a
FAIL is recorded only when the checker's two code paths agree (for a CLI
target that exits non-zero, every entry of its ``--format json`` output is
looked at), a built twisted algebra must pass check_algebra, and no outcome
may contain an object address (its digest would change from run to run);
otherwise nothing is written.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time

import run
import workloads

ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def record(workload: str, workdir: str) -> dict:
    api = run.import_package()
    ctx = workloads.Context(api, workdir)
    out = {}
    for t in workloads.pool(ctx, workload):
        t0 = time.perf_counter()
        result = t.call()
        dt = time.perf_counter() - t0
        verdict, text = t.outcome(result)
        details = getattr(result, "details", None) or {}
        if t.expect is not None and verdict != t.expect:
            raise SystemExit("%s: verdict %s, known %s"
                             % (t.label, verdict, t.expect))
        if verdict == "FAIL" and details.get("paths_agree") is False:
            raise SystemExit("%s: FAIL with disagreeing code paths"
                             % t.label)
        if t.argv is not None and verdict != "EXIT0":
            _, stdout = workloads.run_cli(api, t.argv + ["--format", "json"])
            if any(e["verdict"] == "FAIL"
                   and e["details"].get("paths_agree") == repr(False)
                   for e in json.loads(stdout)):
                raise SystemExit("%s: FAIL with disagreeing code paths"
                                 % t.label)
        if ADDRESS.search(text):
            raise SystemExit("%s: outcome holds an object address" % t.label)
        if t.label.startswith("twist-"):
            rep = api.ainf.check_algebra(result, 4)
            if not rep.passed:
                raise SystemExit("%s: twisted algebra fails check_algebra"
                                 % t.label)
        out[t.label] = {"verdict": verdict,
                        "sha256": workloads.digest(t.label, (verdict, text))}
        print("%-48s %-7s %8.1f ms" % (t.label, verdict, 1000 * dt),
              file=sys.stderr)
    return out


def main() -> None:
    with tempfile.TemporaryDirectory(prefix=".work-",
                                     dir=workloads.HERE) as workdir:
        expected = {w: record(w, workdir) for w in sorted(workloads.WORKLOADS)}
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
