"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the smallest size (``--seconds 1``), untraced and
traced, and checks that every metric named in BENCHMARK.json is printed with
its unit, that no target failed, and that the output digest equals the
digest of the recorded answers.  The traced run is made twice, and every
count must be the same in both.  Last, the benchmark must refuse to run,
with a nonzero exit code and no result line, in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    return subprocess.run(
        command + ["--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    summary = json.loads(lines[-2])["summary"]
    assert result["correct"] is True, summary["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert summary["failed_frac"] == 0
    assert summary["digest"] == summary["expected_digest"]
    return result


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in (w["name"] for w in spec["workloads"]):
            runs = [result_of(bench(ROOT, w, trace))
                    for _ in range(1 + trace)]
            for r in runs:
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                assert got == want, (w, trace, set(got) ^ set(want))
            if trace:
                a, b = (r["metrics"] for r in runs)
                differ = [k for k in a if a[k]["unit"] in ("count", "bytes")
                          and a[k]["value"] != b[k]["value"]]
                assert not differ, (w, differ)
            print("ok  %-10s trace=%d" % (w, trace), flush=True)
    with tempfile.TemporaryDirectory(dir=HERE) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(
                                "results", ".work-*", "tmp*", "__pycache__"))
        proc = bench(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    print("ok  refuses to run without the sources")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as exc:
        print("FAILED: %r" % (exc,), file=sys.stderr)
        sys.exit(1)
