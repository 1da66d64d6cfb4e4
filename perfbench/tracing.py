"""Call-site tracing of heatctrl from outside the package, and per-layer metrics.

``Tracer`` replaces module attributes at the sites where one heatctrl module
calls another (``heatctrl.propagators.laplacian_apply`` is the stencil as the
propagators call it; ``heatctrl.driver.solve_state`` is a forward solve the
driver makes, distinct from ``heatctrl.problem.solve_state``) with wrappers
that record one span per call: id, parent id, thread id, name, start, end, a
per-kind count and whether the call raised.  Spans are kept in memory and
written out by ``write``.  The parent stack is thread-local; tasks submitted
to the driver's thread pool start with the submitting span as their parent.
A call site missing from the code under test is skipped, and the metrics that
depend on it read 0.

A span's self time is its duration minus the part of it that its children
cover.  Self times therefore sum to the root's wall time plus the time that
concurrent children of one parent overlap one another (zero on one worker).
On the pool, a span's time includes waits for the interpreter lock held by
the other worker.

Which end-to-end metric each layer should move, and where:
  grid, linsolve self time            solve_s on every workload
  linsolve iterations                 matvec_seq and matvec_par on every workload
  propagators time                    solve_s; all of base-desk33's solve time
  propagators.traj_mb_computed        peak_rss_mb on it-field65
  problem                             solve_s; the whole solve on base-desk33
  targets, driver                     solve_s and matvec_par on it-desk33 and
                                      it-field65; zero on base-desk33
  driver.step2.efficiency             only on it-desk33 (it-field65 is serial)
  config                              setup_s on every workload
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import threading
import time
import weakref
from collections import defaultdict
from typing import NamedTuple

# (module, attribute, span name, what the span's count holds)
CALL_SITES = [
    ("heatctrl.cli", "parse_config", "config.parse_config", None),
    ("heatctrl.cli", "build_instance", "config.build_instance", None),
    ("heatctrl.cli", "run_outer", "driver.run", None),
    ("heatctrl.cli", "optimal_step_gradient", "problem.optimal_step_gradient", None),
    ("heatctrl.targets", "optimal_step_gradient", "problem.optimal_step_gradient", None),
    ("heatctrl.problem", "gradient", "problem.gradient", None),
    ("heatctrl.driver", "targets_from_solutions", "targets.targets_from_solutions", None),
    ("heatctrl.driver", "assemble_subproblems", "targets.assemble_subproblems", None),
    ("heatctrl.driver", "solve_subproblem", "targets.solve_subproblem", None),
    ("heatctrl.driver", "solve_state", "propagators.solve_state@driver", "trajectory"),
    ("heatctrl.problem", "solve_state", "propagators.solve_state", "trajectory"),
    ("heatctrl.targets", "solve_state", "propagators.solve_state", "trajectory"),
    ("heatctrl.config", "solve_state", "propagators.solve_state", "trajectory"),
    ("heatctrl.driver", "solve_adjoint", "propagators.solve_adjoint", "trajectory"),
    ("heatctrl.problem", "solve_adjoint", "propagators.solve_adjoint", "trajectory"),
    ("heatctrl.targets", "solve_adjoint", "propagators.solve_adjoint", "trajectory"),
    ("heatctrl.propagators", "cg_solve", "linsolve.cg_solve", "cg"),
    ("heatctrl.propagators", "laplacian_apply", "grid.laplacian_apply", "stencil"),
    ("heatctrl.propagators", "inject", "grid.inject", None),
]
POOL_SITE = ("heatctrl.driver", "ThreadPoolExecutor")


class Span(NamedTuple):
    sid: int
    parent: int  # -1 for a root
    thread: int
    name: str
    start: float
    end: float
    count: int  # matvecs (trajectory), CG iterations (cg), bytes (stencil)
    failed: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def _matvec_counter(args, kwargs):
    """The MatvecCounter-like argument of a solver call, if it has one."""
    for value in itertools.chain(args, kwargs.values()):
        if isinstance(getattr(value, "count", None), int):
            return value
    return None


def _x0(args, kwargs):
    """The starting guess of ``cg_solve(apply_a, b, tol, counter, x0=None, ...)``."""
    return kwargs.get("x0", args[4] if len(args) > 4 else None)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []
        self._live_bytes = 0
        self.peak_trajectory_bytes = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _track(self, array) -> None:
        """Follow a returned trajectory array until it is freed."""
        nbytes = array.nbytes
        with self._lock:
            self._live_bytes += nbytes
            self.peak_trajectory_bytes = max(self.peak_trajectory_bytes, self._live_bytes)
        weakref.finalize(array, self._release, nbytes).atexit = False

    def _release(self, nbytes: int) -> None:
        with self._lock:
            self._live_bytes -= nbytes

    def wrap(self, fn, name: str, kind: str | None = None):
        tracer, spans, ids = self, self.spans, self._ids
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            counter = _matvec_counter(args, kwargs) if kind in ("trajectory", "cg") else None
            before = counter.count if counter is not None else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, threading.get_ident(), name, start, end, 0, 1))
                raise
            end = clock()
            stack.pop()
            count = counter.count - before if counter is not None else 0
            if kind == "cg" and count and _x0(args, kwargs) is not None:
                count -= 1  # the initial residual product is not a CG iteration
            elif kind == "stencil":
                count = getattr(args[-1], "nbytes", 0) + getattr(result, "nbytes", 0)
            elif kind == "trajectory" and hasattr(result, "nbytes"):
                tracer._track(result)
            spans.append((sid, parent, threading.get_ident(), name, start, end, count, 0))
            return result

        return traced

    def _adopt(self, parent: int, fn, *args, **kwargs):
        """Run a pool task with the submitting span as its parent."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else -1
                return super().submit(tracer._adopt, parent, fn, *args, **kwargs)

        return TracedPool

    def __enter__(self) -> "Tracer":
        sites = [(m, a, self.wrap, (n, k)) for m, a, n, k in CALL_SITES]
        sites.append((*POOL_SITE, self._pool_class, ()))
        for module_name, attr, replace, extra in sites:
            module = _module(module_name)
            if module is not None and hasattr(module, attr):
                original = getattr(module, attr)
                self._restore.append((module, attr, original))
                setattr(module, attr, replace(original, *extra))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("sid,parent,thread,name,start,end,count,failed\n")
            for span in self.spans:
                fh.write(",".join(map(repr, span[:3])) + f",{span[3]},"
                         + ",".join(map(repr, span[4:])) + "\n")


def self_times(spans: list[Span]) -> tuple[dict[int, float], float]:
    """Self time of every span, and the time children of one parent overlap.

    Children are clipped to their parent's interval, so a child that escapes
    its parent (or a lost parent) makes the self times sum to more than the
    roots' wall time plus the overlap.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    own, overlap = {}, 0.0
    for span in spans:
        inside = covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.sid, ())):
            start, end = max(start, span.start), min(end, span.end)
            inside += max(end - start, 0.0)
            if end > max(start, reach):
                covered += end - max(start, reach)
                reach = end
        own[span.sid] = span.duration - covered
        overlap += inside - covered
    return own, overlap


def layer_metrics(spans: list[Span], workers: int, peak_trajectory_bytes: int) -> dict:
    """Per-layer metrics, as name -> (value, unit), from one traced run."""
    own, _ = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def self_s(*names):
        return sum(own[s.sid] for n in names for s in by_name[n])

    def total_s(*names):
        return sum(s.duration for n in names for s in by_name[n])

    states = ("propagators.solve_state", "propagators.solve_state@driver")
    lap, cg = by_name["grid.laplacian_apply"], by_name["linsolve.cg_solve"]
    subs = by_name["targets.solve_subproblem"]
    iters = [s.count for s in cg]

    # step 2: the sub-problem spans after each assemble_subproblems call
    batch_starts = sorted(s.start for s in by_name["targets.assemble_subproblems"])
    batches = defaultdict(list)
    for s in subs:
        batches[bisect.bisect_right(batch_starts, s.start)].append(s)
    step2_wall = sum(max(s.end for s in b) - min(s.start for s in b) for b in batches.values())
    step2_busy = total_s("targets.solve_subproblem")

    # line search: the driver's forward solves after the first one of each run
    line_search = []
    for run in by_name["driver.run"]:
        own_solves = sorted((s for s in by_name["propagators.solve_state@driver"]
                             if s.parent == run.sid), key=lambda s: s.start)
        line_search += own_solves[1:]

    roots = [s for s in spans if s.parent < 0]
    lap_self = self_s("grid.laplacian_apply")
    return {
        "grid.laplacian_apply.calls": (len(lap), "count"),
        "grid.laplacian_apply.self_s": (lap_self, "s"),
        "grid.laplacian_apply.us_per_call": (1e6 * lap_self / len(lap) if lap else 0.0, "us"),
        "grid.laplacian_apply.mb_computed": (sum(s.count for s in lap) / 1e6, "MB"),
        "grid.inject.self_s": (self_s("grid.inject"), "s"),
        "linsolve.cg_solve.calls": (len(cg), "count"),
        "linsolve.cg_solve.self_s": (self_s("linsolve.cg_solve"), "s"),
        "linsolve.cg_solve.iters_mean": (sum(iters) / len(iters) if iters else 0.0, "count"),
        "linsolve.cg_solve.iters_max": (max(iters, default=0), "count"),
        "linsolve.cg_solve.failed": (sum(s.failed for s in cg), "count"),
        "propagators.solve_state.calls": (calls(*states), "count"),
        "propagators.solve_state.total_s": (total_s(*states), "s"),
        "propagators.solve_adjoint.calls": (calls("propagators.solve_adjoint"), "count"),
        "propagators.solve_adjoint.total_s": (total_s("propagators.solve_adjoint"), "s"),
        "propagators.traj_mb_computed": (peak_trajectory_bytes / 1e6, "MB"),
        "problem.optimal_step_gradient.calls": (calls("problem.optimal_step_gradient"), "count"),
        "problem.optimal_step_gradient.total_s": (total_s("problem.optimal_step_gradient"), "s"),
        "problem.gradient.total_s": (total_s("problem.gradient"), "s"),
        "targets.targets_from_solutions.self_s": (self_s("targets.targets_from_solutions"), "s"),
        "targets.assemble_subproblems.self_s": (self_s("targets.assemble_subproblems"), "s"),
        "targets.solve_subproblem.calls": (len(subs), "count"),
        "targets.solve_subproblem.total_s": (step2_busy, "s"),
        "targets.solve_subproblem.max_s": (max((s.duration for s in subs), default=0.0), "s"),
        "driver.run.total_s": (total_s("driver.run"), "s"),
        "driver.step2.wall_s": (step2_wall, "s"),
        "driver.step2.busy_s": (step2_busy, "s"),
        "driver.step2.efficiency": (
            step2_busy / (step2_wall * workers) if step2_wall > 0 else 0.0, "ratio"),
        "driver.line_search.total_s": (sum(s.duration for s in line_search), "s"),
        "driver.line_search.matvecs": (sum(s.count for s in line_search), "count"),
        "config.parse_config.s": (total_s("config.parse_config"), "s"),
        "config.build_instance.s": (total_s("config.build_instance"), "s"),
        "cli.main.other_s": (sum(own[s.sid] for s in roots), "s"),
    }
