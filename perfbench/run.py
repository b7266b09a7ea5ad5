"""ainfkit benchmark: time to verdict, end to end and layer by layer.

    python3 perfbench/run.py --workload api --seed 1 --seconds 50 --trace 0

Runs from a checkout of the repository and imports ``ainfkit`` from its
``src/`` directory, never from an installed copy.  One process is one closed
loop: a single caller runs the workload's targets one after another, pass
after pass, for ``--seconds`` seconds (at least three passes).  Every
target's verdict, witness and details (or built table, or CLI stdout) is
compared with ``expected.json``; verdicts known by construction (valid inputs
PASS, mutation kills FAIL) are checked as well, and a FAIL counts as correct
only where the checker's two code paths agree.

Workloads (why each was chosen is in BENCHMARK.json; the targets are listed
in workloads.py):
  api  the package called in-process: checkers on prebuilt structures
       (the verify targets), twisting, inversion, composition, base change
       and m <-> b (construct), and homotopy inversion, classical components
       and the adjoint contraction (solve)
  cli  every CLI command on fixed documents plus one generated many-target
       document under --jobs 2
The results file also holds each target's median time, which shows which
group of targets moved.

With ``--trace 0`` the last line reports the end-to-end metrics:
  setup_s         import, input generation and loading, median of 5
  wall_s          one pass over all targets, median over passes
  verdict_p50_ms  per-target time to verdict, median within a pass,
                  median over passes
  verdict_p90_ms  per-target p90 within a pass, median over passes, or the
                  highest percentile with ten samples beyond it over all
                  passes (the summary line names it)
  peak_rss_mb     peak resident memory of the process

With ``--trace 1`` it alternates traced passes, in which every layer is
wrapped (see tracer.py), with untraced ones: traced, untraced, traced, and
further pairs while time allows.  It reports per-layer metrics: ``L.calls``,
``L.self_s`` and ``L.errors`` for each layer, work counters,
``trace.overhead_frac`` (traced over untraced pass time, minus one) and
``trace.accounted_frac`` (summed self time, with the wrapper's own cost
taken out, over untraced pass time).  The run is correct only if every count
repeats exactly from traced pass to traced pass and the accounted share lies
within ACCOUNTED.

Which layer metric should move which end-to-end metric:
  rings.*                               wall_s, verdict_p90_ms on api;
                                        little on cli
  graded.sandwich, ainf.words, self
  time of adjoint, qmod and vanish      verdict_p50_ms, verdict_p90_ms on
                                        api (the verify targets)
  ainf.twist_s, graded.geometric_extend wall_s on api (the construct
                                        targets; the verify targets' twists
                                        are built in set-up)
  ainf.hom_differential, linalg.cells,
  homotopy.self_s                       wall_s on api (the solve targets)
  cli.self_s, docio.self_s              wall_s on cli, and setup_s
  a cache anywhere                      peak_rss_mb

The line before the last is a summary: failed_frac, the sample count and the
percentile behind verdict_p90_ms, and the workload's output digest (sha256
over every target's label, verdict, witness and details, in pass order),
which must equal the digest of the recorded answers.  A results file with
the environment goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import types
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = tracing.LAYERS + ("fixtures", "report")
SETUPS = 5
MIN_PASSES = 3
# The summed self time of a traced pass, with the wrapper cost taken out,
# must lie within these shares of an untraced pass's time.  The wrapper cost
# is calibrated in a tight loop and comes out 10-20% below its cost inside
# the package, and the host's speed alone moves one pass against the next by
# up to 1.5x.  Without the correction the share is 3 to 5.
ACCOUNTED = (0.5, 2.0)
END_TO_END = {"setup_s": "s", "wall_s": "s", "verdict_p50_ms": "ms",
              "verdict_p90_ms": "ms", "peak_rss_mb": "MiB"}


class Failure(Exception):
    """The package under test is missing or is not the checkout's copy."""


def import_package() -> types.SimpleNamespace:
    """Import ainfkit afresh from the checkout's src/ directory."""
    if not os.path.isfile(os.path.join(SRC, "ainfkit", "__init__.py")):
        raise Failure("no ainfkit sources under %s" % SRC)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules
                 if n == "ainfkit" or n.startswith("ainfkit.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ainfkit")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise Failure("ainfkit imported from %s, not from %s"
                      % (pkg.__file__, SRC))
    return types.SimpleNamespace(**{
        m: importlib.import_module("ainfkit." + m) for m in MODULES})


# ---------------------------------------------------------------------------
# checking


class Checker:
    """Compares every outcome with the recorded answer and keeps the
    digest of the first pass."""

    def __init__(self, expected: Dict[str, dict]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.first_pass: Optional[List[Tuple[str, str]]] = None

    def _want(self, target: workloads.Target) -> Optional[str]:
        rec = self.expected.get(target.label)
        return rec["sha256"] if rec else None

    def check(self, target: workloads.Target, result, error) -> str:
        """Returns the target's digest; counts a failure when it differs
        from the recorded one, the verdict contradicts what is known by
        construction, a FAIL has disagreeing code paths, or the call
        raised."""
        self.attempted += 1
        if error is not None:
            got, problem = "raised", "raised %r" % (error,)
        else:
            verdict, text = target.outcome(result)
            got = workloads.digest(target.label, (verdict, text))
            details = getattr(result, "details", None) or {}
            problem = None
            if target.expect is not None and verdict != target.expect:
                problem = "verdict %s, known %s" % (verdict, target.expect)
            elif verdict == "FAIL" and details.get("paths_agree") is False:
                problem = "FAIL with disagreeing code paths"
            elif got != self._want(target):
                problem = "output differs from the recorded answer"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append("%s: %s" % (target.label, problem))
        return got

    def digests(self, targets: List[workloads.Target]) -> Tuple[str, str]:
        got = [d for _, d in self.first_pass]
        want = [self._want(t) or "unrecorded" for t in targets]
        return _sha("\n".join(got)), _sha("\n".join(want))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# measuring


def setup(workload: str, seed: int, workdir: str, repeats: int):
    """Import, generate and load the inputs ``repeats`` times; the last set
    is used.  Returns (setup times, api, targets)."""
    times = []
    for _ in range(repeats):
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        t0 = time.perf_counter()
        api = import_package()
        ctx = workloads.Context(api, workdir)
        targets = workloads.build(ctx, workload, seed)
        times.append(time.perf_counter() - t0)
    return times, api, targets


def run_pass(targets, checker: Checker, tracer=None) -> List[float]:
    """One closed-loop pass; returns the time to verdict of each target."""
    times = []
    digests = []
    for t in targets:
        result = error = None
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = t.call()
        except Exception as exc:  # a target that raises is a failed target
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        times.append(dt)
        digests.append((t.label, checker.check(t, result, error)))
    if checker.first_pass is None:
        checker.first_pass = digests
    return times


def run_passes(targets, checker, until: float) -> List[List[float]]:
    """At least MIN_PASSES passes, then passes until ``until``: a pass is
    started only when at least half of it fits before the deadline, so runs
    end close to it."""
    passes = []
    last = 0.0
    while (len(passes) < MIN_PASSES
           or time.perf_counter() + last / 2 < until):
        t0 = time.perf_counter()
        passes.append(run_pass(targets, checker))
        last = time.perf_counter() - t0
    return passes


def nearest_rank(sorted_samples: List[float], pct: int) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_samples)))
    return sorted_samples[k - 1]


def tail_percentile(passes: int, targets: int) -> int:
    """90, or the highest percentile with at least ten samples beyond it
    over all passes."""
    pct = 90
    while pct > 50 and passes * (
            targets - math.ceil(pct / 100.0 * targets)) < 10:
        pct -= 1
    return pct


def pass_percentile(passes, pct: int) -> float:
    """The percentile of the target times within each pass, median over the
    passes.  Over the pooled samples of all passes a percentile can fall on
    the border between the samples of two targets, where it is the largest
    sample of one target and swings from run to run."""
    return statistics.median(nearest_rank(sorted(p), pct) for p in passes)


def end_to_end(setup_times, passes) -> Tuple[dict, dict]:
    pct = tail_percentile(len(passes), len(passes[0]))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(sum(p) for p in passes),
        "verdict_p50_ms": 1000.0 * pass_percentile(passes, 50),
        "verdict_p90_ms": 1000.0 * pass_percentile(passes, pct),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"samples": sum(len(p) for p in passes),
                     "verdict_p90_percentile": pct,
                     "pass_s": [sum(p) for p in passes]}


def per_layer(api, targets, checker, until: float) -> Tuple[dict, dict]:
    """Traced and untraced passes alternate, starting and ending with a
    traced one (at least two traced passes); a further untraced and traced
    pair is started only when at least half of it fits before ``until``."""
    tracer = tracing.Tracer()
    wrapped = tracer.install(vars(api))
    traced: List[float] = []
    untraced: List[float] = []
    deltas: List[dict] = []
    costs: List[tuple] = []

    def traced_pass():
        # the wrapper cost is measured right before and after the pass,
        # since the host's speed drifts
        first = tracing.calibrate()
        tracer.enable()
        before = tracer.snapshot()
        traced.append(sum(run_pass(targets, checker, tracer)))
        after = tracer.snapshot()
        tracer.disable()
        pair = (first, tracing.calibrate())
        costs.append(tuple(statistics.mean(c) for c in zip(*pair)))
        deltas.append(tracing.subtract_wrapper(
            {k: after[k] - before[k] for k in after}, costs[-1]))

    traced_pass()
    while not untraced or (time.perf_counter()
                           + (untraced[-1] + traced[-1]) / 2 < until):
        untraced.append(sum(run_pass(targets, checker)))
        traced_pass()
    timed = {k for k in deltas[0] if k.endswith("_s")}
    differing = sorted(k for k in deltas[0] if k not in timed
                       and any(d[k] != deltas[0][k] for d in deltas))
    metrics = {k: v for k, v in deltas[0].items() if k not in timed}
    for k in timed:
        metrics[k] = statistics.median(d[k] for d in deltas)
    hits, apply = metrics.pop("graded.apply_hits"), metrics["graded.apply"]
    metrics["graded.apply_hit_frac"] = hits / apply if apply else 0.0
    untraced_wall = statistics.median(untraced)
    self_sum = statistics.median(
        sum(d[layer + ".self_s"] for layer in tracing.LAYERS) for d in deltas)
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / untraced_wall - 1.0)
    metrics["trace.accounted_frac"] = self_sum / untraced_wall
    info = {"wrapped_callables": wrapped, "wrapper_cost_s": costs,
            "untraced_pass_s": untraced, "traced_pass_s": traced,
            "counts_differing": differing,
            "self_time_accounted": (ACCOUNTED[0]
                                    <= metrics["trace.accounted_frac"]
                                    <= ACCOUNTED[1])}
    return metrics, info


# ---------------------------------------------------------------------------
# environment and output


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "loadavg_start": list(os.getloadavg()),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "started_unix": time.time()}


def write_results(args, payload: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment(args)
    expected = workloads.load_expected()[args.workload]
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        # a traced run reports no set-up time, so it sets up once
        setup_times, api, targets = setup(args.workload, args.seed, workdir,
                                          1 if args.trace else SETUPS)
        checker = Checker(expected)
        start = time.perf_counter()
        if args.trace:
            metrics, info = per_layer(api, targets, checker,
                                      start + args.seconds)
            units = {k: tracing.unit(k) for k in metrics}
        else:
            passes = run_passes(targets, checker, start + args.seconds)
            metrics, info = end_to_end(setup_times, passes)
            units = END_TO_END
            info["target_median_ms"] = {
                t.label: 1000.0 * statistics.median(p[i] for p in passes)
                for i, t in enumerate(targets)}
    digest, expected_digest = checker.digests(targets)
    correct = (checker.failed == 0 and not info.get("counts_differing")
               and info.get("self_time_accounted", True))
    summary = dict(info, failed_frac=checker.failed / checker.attempted,
                   digest=digest, expected_digest=expected_digest,
                   targets_per_pass=len(targets), problems=checker.problems)
    for name in sorted(metrics):
        print("%-28s %14.6f %s" % (name, metrics[name], units[name]))
    per_target = summary.pop("target_median_ms", None)
    print(json.dumps({"summary": summary}, sort_keys=True))
    write_results(args, {"environment": env, "summary": summary,
                         "metrics": metrics, "target_median_ms": per_target})
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(2)
