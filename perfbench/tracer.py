"""Per-layer tracing of ainfkit from outside the package.

Every public function of a layer module, and every public method of a class
defined there, is replaced by a wrapper.  Modules bind ``from .x import y``
at import time, so a module-level function is replaced in every ``ainfkit.*``
namespace that holds it; classes are patched in place.

A wrapper counts the call.  When the caller is in another layer (or outside
the package) it also opens a frame and times the call with
``time.perf_counter``; a call from inside the same layer is counted but opens
no frame, so recursion and helper calls stay cheap.  A layer's self time is
the time of its frames minus the time of the frames of the layers they called.
Calls are aggregated into per-layer counters, not kept as individual spans:
``rings`` and ``graded`` alone see millions of calls per pass.

The wrapper's own cost is not the program's.  ``calibrate`` times an empty
wrapped call, split into the part that falls inside the callee's timed window,
the part that falls outside it (the caller's self time) and the cost of a call
that opens no frame; ``subtract_wrapper`` takes these, times the number of
such calls, out of each layer's self time.  Creating a wrapped generator and
counting words is not taken out.

Counts are kept per thread and summed, so calls made by ``--jobs`` worker
threads are counted exactly.  Self time is taken from the thread that
installed the tracer: while it waits for worker threads, that wait is self
time of the layer that waits (``cli.run_tasks``), less the wrapper cost of
the worker threads.

``install`` prepares the wrappers; ``enable`` and ``disable`` put them in and
take them out, so that traced and untraced passes can alternate.
"""

from __future__ import annotations

import inspect
import os
import statistics
import sys
import threading
import time
import types
from typing import Dict, List

LAYERS = ("rings", "graded", "ainf", "adjoint", "qmod", "vanish", "homotopy",
          "linalg", "docio", "cli")

# Operator methods that do arithmetic work; other dunders (construction,
# hashing, repr) are left alone.
DUNDERS = {"__add__", "__sub__", "__neg__", "__eq__", "__call__", "__iter__"}

# Work and waste counters: (layer, qualified name) -> counter name.
COUNTED = {
    ("graded", "Vector.add_term"): "graded.add_term",
    ("graded", "MultiOp.apply"): "graded.apply",
    ("graded", "sandwich"): "graded.sandwich",
    ("graded", "geometric_extend"): "graded.geometric_extend",
    ("ainf", "hom_differential"): "ainf.hom_differential",
}
WORDS = {("ainf", "AInfAlgebra.words"), ("ainf", "module_words"),
         ("ainf", "bimodule_words")}
SOLVERS = {("linalg", "solve_field"), ("linalg", "kernel_basis_field"),
           ("linalg", "solve_linear")}
COUNTERS = ("graded.add_term", "graded.apply", "graded.apply_hits",
            "graded.sandwich", "graded.geometric_extend", "ainf.words",
            "ainf.hom_differential", "linalg.solves", "linalg.cells",
            "docio.bytes", "cli.targets")


class _State:
    """Counters and the frame stack of one thread."""

    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.errors = [0] * n
        self.self_s = [0.0] * n
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.twist_s = 0.0
        # wrapper calls inside twist_algebra, as in snapshot's charges
        self.twist_wrapped = [0, 0, 0]
        # calls (and generator resumptions) that opened a frame, by callee
        # and by caller; the caller's last slot is "outside the package",
        # which a root frame's layer index of -1 selects
        self.framed = [0] * n
        self.framed_by = [0] * (n + 1)
        # calls and resumptions that opened no frame
        self.own = [0] * n
        # for a worker thread: the layer of the installing thread that
        # waits for it
        self.host = -1
        # >0 while a word enumerator is producing an item, so that words
        # drawn from a nested enumerator are not counted twice
        self.enumerating = 0
        # frames are [layer index, time of child frames]
        self.stack: List[list] = [[-1, 0.0]]

    def wrapper_calls(self) -> tuple:
        """Wrapper calls so far that opened a frame, by callee and by
        caller, and that opened none."""
        return sum(self.framed), sum(self.framed_by), sum(self.own)


class Tracer:
    def __init__(self):
        self.active = False
        self._patches: List[tuple] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: List[_State] = []
        self._main = None
        self._main = self._state()

    def _state(self) -> _State:
        s = _State()
        if self._main is not None:
            s.host = self._main.stack[-1][0]
        self._tls.s = s
        with self._lock:
            self._states.append(s)
        return s

    # -- installation -------------------------------------------------------

    def install(self, modules: Dict[str, types.ModuleType]) -> int:
        """Prepare wrappers for the public callables of every layer module,
        given by layer name; returns how many callables are wrapped."""
        replaced: Dict[int, object] = {}
        wrapped = 0
        for li, layer in enumerate(LAYERS):
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__",
                                                   None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[id(obj)] = (obj, self._wrap(obj, li, layer,
                                                         name))
                elif isinstance(obj, type) and not issubclass(obj,
                                                              BaseException):
                    wrapped += self._patch_class(obj, li, layer)
        package = modules[LAYERS[0]].__name__.rpartition(".")[0]
        for mod in [m for n, m in sys.modules.items()
                    if n == package or n.startswith(package + ".")]:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, name, obj, hit[1]))
        return wrapped + len(replaced)

    def _patch_class(self, cls: type, li: int, layer: str) -> int:
        wrapped = 0
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in DUNDERS:
                continue
            qual = "%s.%s" % (cls.__name__, name)
            if isinstance(attr, types.FunctionType):
                new = self._wrap(attr, li, layer, qual)
            elif isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrap(attr.__func__, li, layer, qual))
            else:
                continue
            self._patches.append((cls, name, attr, new))
            wrapped += 1
        return wrapped

    def enable(self) -> None:
        for owner, name, _, new in self._patches:
            setattr(owner, name, new)

    def disable(self) -> None:
        for owner, name, old, _ in self._patches:
            setattr(owner, name, old)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, li: int, layer: str, qual: str):
        key = (layer, qual)
        counter = COUNTED.get(key)
        is_apply = counter == "graded.apply"
        solver = key in SOLVERS
        loader = key == ("docio", "load")
        runner = key == ("cli", "run_tasks")
        twist = key == ("ainf", "twist_algebra")
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, li, key in WORDS)
        words = key in WORDS
        tr = self
        tls = self._tls
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            try:
                s = tls.s
            except AttributeError:
                s = tr._state()
            s.calls[li] += 1
            if counter is not None:
                s.counts[counter] += 1
            elif solver:
                rows = args[1] if len(args) > 1 else kwargs["rows"]
                s.counts["linalg.solves"] += 1
                s.counts["linalg.cells"] += len(rows) * (
                    len(rows[0]) if rows else 0)
            elif loader:
                s.counts["docio.bytes"] += os.path.getsize(args[0])
            elif runner:
                s.counts["cli.targets"] += len(args[0])
            stack = s.stack
            top = stack[-1]
            if top[0] == li:
                s.own[li] += 1
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    s.errors[li] += 1
                    raise
            else:
                s.framed[li] += 1
                s.framed_by[top[0]] += 1
                if twist:
                    marks = s.wrapper_calls()
                frame = [li, 0.0]
                stack.append(frame)
                t0 = pc()
                try:
                    out = fn(*args, **kwargs)
                except BaseException:
                    s.errors[li] += 1
                    raise
                finally:
                    dt = pc() - t0
                    stack.pop()
                    s.self_s[li] += dt - frame[1]
                    top[1] += dt
                    if twist:
                        s.twist_s += dt
                        for i, n in enumerate(s.wrapper_calls()):
                            s.twist_wrapped[i] += n - marks[i]
            if is_apply and out.terms:
                s.counts["graded.apply_hits"] += 1
            if words:
                return tr._count_items(out)
            return out

        return wrapper

    def _count_items(self, it):
        s = self._tls.s
        for item in it:
            if not s.enumerating:
                s.counts["ainf.words"] += 1
            yield item

    def _wrap_generator(self, fn, li: int, words: bool):
        """Each resumption of the generator is timed as a call of its layer,
        nested under whoever iterates it."""
        tr = self
        tls = self._tls

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tr.active:
                return gen
            try:
                s = tls.s
            except AttributeError:
                s = tr._state()
            s.calls[li] += 1
            return tr._timed_items(gen, li, words)

        return wrapper

    def _timed_items(self, gen, li: int, words: bool):
        pc = time.perf_counter
        while True:
            s = self._tls.s
            stack = s.stack
            top = stack[-1]
            own = top[0] == li
            if own:
                s.own[li] += 1
            else:
                s.framed[li] += 1
                s.framed_by[top[0]] += 1
                frame = [li, 0.0]
                stack.append(frame)
                t0 = pc()
            s.enumerating += words
            try:
                item = next(gen)
            except StopIteration:
                return
            except BaseException:
                s.errors[li] += 1
                raise
            finally:
                s.enumerating -= words
                if not own:
                    dt = pc() - t0
                    stack.pop()
                    s.self_s[li] += dt - frame[1]
                    top[1] += dt
            if words and not s.enumerating:
                s.counts["ainf.words"] += 1
            yield item

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: counts summed over threads, self times from the
        installing thread.  ``M.wrapper.*`` count the wrapper calls whose
        cost lies in the time M (see ``subtract_wrapper``); a worker
        thread's all lie in the self time of the layer that waits for it."""
        with self._lock:
            states = list(self._states)
        charged = {k: [0] * len(LAYERS) for k in WRAPPER_KINDS}
        for s in states:
            if s is self._main:
                for li in range(len(LAYERS)):
                    charged["in"][li] += s.framed[li]
                    charged["out"][li] += s.framed_by[li]
                    charged["own"][li] += s.own[li]
            elif s.host >= 0:
                charged["in"][s.host] += sum(s.framed)
                charged["out"][s.host] += sum(s.framed_by)
                charged["own"][s.host] += sum(s.own)
        out: dict = {}
        for li, layer in enumerate(LAYERS):
            out[layer + ".calls"] = sum(s.calls[li] for s in states)
            out[layer + ".errors"] = sum(s.errors[li] for s in states)
            out[layer + ".self_s"] = self._main.self_s[li]
            for kind in WRAPPER_KINDS:
                out["%s.self_s.wrapper.%s" % (layer, kind)] = \
                    charged[kind][li]
        for name in COUNTERS:
            out[name] = sum(s.counts[name] for s in states)
        out["ainf.twist_s"] = self._main.twist_s
        for kind, n in zip(WRAPPER_KINDS, self._main.twist_wrapped):
            out["ainf.twist_s.wrapper." + kind] = n
        return out


WRAPPER_KINDS = ("in", "out", "own")


def subtract_wrapper(delta: dict, costs: tuple) -> dict:
    """``delta`` (a difference of snapshots) with the wrapper cost taken out
    of each layer's self time and of ``ainf.twist_s``, and the
    ``M.wrapper.*`` counts dropped.
    ``costs`` are seconds per wrapper call as ``calibrate`` gives them."""
    out = {k: v for k, v in delta.items() if ".wrapper." not in k}
    for key, n in delta.items():
        if ".wrapper." in key:
            metric, kind = key.split(".wrapper.")
            out[metric] -= n * costs[WRAPPER_KINDS.index(kind)]
    return out


def calibrate(n: int = 20000, rounds: int = 7) -> tuple:
    """Seconds per call of an empty wrapped method: (inside the callee's
    timed window, outside it, of a call that opens no frame), each the
    median over ``rounds`` loops of ``n`` calls."""
    tr = Tracer()
    tr.active = True

    class Probe:
        def noop(self, a, b):
            return None
    Probe.wrapped = tr._wrap(Probe.noop, 0, "calibration", "Probe.noop")
    probe = Probe()
    s = tr._main
    pc = time.perf_counter
    loop = range(n)
    rows = []
    for _ in range(rounds):
        t0 = pc()
        for _ in loop:
            pass
        t1 = pc()
        for _ in loop:
            probe.noop(1, 2)
        t2 = pc()
        before = s.self_s[0]
        for _ in loop:            # from outside the layer: opens frames
            probe.wrapped(1, 2)
        t3 = pc()
        inside = s.self_s[0] - before
        s.stack.append([0, 0.0])
        for _ in loop:            # from inside the layer: opens none
            probe.wrapped(1, 2)
        t4 = pc()
        s.stack.pop()
        body = (t2 - t1) - (t1 - t0)
        rows.append(((inside - body) / n,
                     ((t3 - t2) - (t1 - t0) - inside) / n,
                     ((t4 - t3) - (t2 - t1)) / n))
    return tuple(statistics.median(r[i] for r in rows) for i in range(3))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    if metric == "docio.bytes":
        return "bytes"
    return "count"
