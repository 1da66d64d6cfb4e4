"""heatctrl benchmark: time to solution, matvec cost and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload it-desk33 --seed 0 --seconds 20 --trace 0

The workloads are defined in ``workloads.py``.  A run writes the workload's
config, then (``--trace 0``) times ``import heatctrl`` + ``parse_config`` +
``build_instance`` in ``SETUP_REPEATS`` fresh processes (half before the
solves, half after) and calls ``heatctrl.cli.main`` in this process on that
config, again while another solve is expected to end within ``--seconds``
(at least once).  Every solve's
CSV trace and summary line are checked (``check_solve``); a solve that fails
any check counts in ``failed``.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it stamp
the run's context and diagnostics.

End-to-end metrics (``--trace 0``), all lower-is-better:
  solve_s      median wall seconds of one ``heatctrl.cli.main`` call
  setup_s      median wall seconds of import + parse_config + build_instance
  matvec_par   the paper's parallel cost to convergence (final CSV row)
  matvec_seq   all Laplacian matvecs (final CSV row)
  outer_iters  iterations to the stated tolerance (final CSV row)
  j_gap_rel    (final J - J*) / J*, with J* from ``reference.json``
  peak_rss_mb  peak resident memory of this process, which runs one workload
The failure rate is ``failed / attempted``.

With ``--trace 1`` the untraced solves are followed by one solve under
``tracing.Tracer``, whose spans go to ``.perfbench/trace-<workload>-seed<n>.csv``
and give the per-layer metrics, plus ``trace.overhead_rel``: traced over
median untraced solve time, minus one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

CSV_HEADER = "iter,J,misfit,penalty,theta,matvec_seq,matvec_par,wall_ms"
SETUP_REPEATS = 16
# self times must add up to the traced solve's wall time within this share
TRACE_SUM_TOLERANCE = 1e-3
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import heatctrl
from heatctrl.config import build_instance, parse_config
build_instance(parse_config(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def source_digest() -> str:
    """Identity of the code under test: a hash of every file under src/."""
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cache_sizes() -> dict[str, str]:
    suffix = {"Data": "d", "Instruction": "i"}
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{suffix.get(kind, '')}"] = size
    return caches


def run_context(args, variant: int, digest: str) -> dict:
    import numpy as np

    try:  # a checkout without git history has no commit to report
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "source_sha256": digest,
        "caches": cache_sizes(),
    }


def measure_setup(cfg_path: Path, repeats: int) -> list[float]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(cfg_path)],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def solve(main, cfg_path: Path, csv_path: Path) -> dict:
    """One call of the CLI entry point; its exit code, time, summary and CSV."""
    summary = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(summary):
            code = main(["--config", str(cfg_path)])
    except Exception:  # a crash is a failed solve, reported with its traceback
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    text = csv_path.read_text() if csv_path.is_file() else ""
    csv_path.unlink(missing_ok=True)
    return {"code": code, "seconds": seconds, "summary": summary.getvalue().strip(), "csv": text}


def numeric_columns(csv_text: str) -> str:
    """The CSV without ``wall_ms``: what must repeat bit for bit."""
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv_text.splitlines())


def gap_bounds(ref: dict) -> tuple[float, float]:
    """Interval that (J - J*) / J* must lie in.

    J is strongly convex with modulus alpha in the H inner product, so a run
    stopped at ||g||_H <= rtol * (1 + ||g_0||_H) is within
    (rtol * (1 + ||g_0||_H))^2 / (2 alpha) of the optimum; J* itself is above
    the optimum by at most the same expression at the reference tolerance.
    """
    def slack(rtol):
        return (rtol * (1.0 + ref["g0_norm"])) ** 2 / (2.0 * workloads.ALPHA * ref["J_star"])

    return -slack(ref["reference_rtol"]), slack(workloads.GRADIENT_RTOL)


def check_solve(result: dict, ref: dict, expected: str | None) -> list[str]:
    """Every reason this solve is wrong; empty when it passes."""
    if result["code"] != 0:
        return [f"exit code {result['code']}"]
    lines = result["csv"].splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"CSV header changed: {lines[:1]}"]
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        return ["CSV has no rows"]
    problems = []
    costs = [float(r[1]) for r in rows]
    if any(b > a for a, b in zip(costs, costs[1:])):
        problems.append("J increases between rows")
    for col, name in ((5, "matvec_seq"), (6, "matvec_par")):
        counts = [int(r[col]) for r in rows]
        if any(b < a for a, b in zip(counts, counts[1:])):
            problems.append(f"{name} decreases between rows")
    final = rows[-1]
    fields = dict(kv.split("=", 1) for kv in result["summary"].split() if "=" in kv)
    if (fields.get("final_J"), fields.get("matvec_seq"), fields.get("matvec_par")) != (
            final[1], final[5], final[6]):
        problems.append(f"summary {result['summary']!r} disagrees with the final CSV row")
    lo, hi = gap_bounds(ref)
    gap = (costs[-1] - ref["J_star"]) / ref["J_star"]
    if not lo <= gap <= hi:
        problems.append(f"j_gap_rel {gap!r} outside [{lo!r}, {hi!r}]")
    if expected is not None and numeric_columns(result["csv"]) != expected:
        problems.append("CSV numbers differ from an earlier run of the same code and input")
    return problems


def timed_solves(main, cfg_path, csv_path, seconds) -> list[dict]:
    """Solve at least once, then while another solve should end in time."""
    results, start = [], time.perf_counter()
    while True:
        results.append(solve(main, cfg_path, csv_path))
        typical = statistics.median(r["seconds"] for r in results)
        if time.perf_counter() - start + typical > seconds:
            return results


def check_all(results: list[dict], ref: dict, record: Path) -> list[list[str]]:
    """Check every solve; the first passing solve of this code and input is
    recorded, and every later one must repeat its numbers."""
    expected = record.read_text() if record.is_file() else None
    failures = []
    for result in results:
        problems = check_solve(result, ref, expected)
        if expected is None and not problems:
            expected = numeric_columns(result["csv"])
            record.parent.mkdir(parents=True, exist_ok=True)
            tmp = record.with_suffix(f".{os.getpid()}")
            tmp.write_text(expected)
            tmp.replace(record)
        failures.append(problems)
        for problem in problems:
            print(f"solve failed: {problem}", file=sys.stderr)
    return failures


def end_to_end_metrics(results: list[dict], setup: list[float], ref: dict) -> dict:
    final = results[0]["csv"].splitlines()[-1].split(",")
    return {
        "solve_s": (statistics.median(r["seconds"] for r in results), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "matvec_par": (int(final[6]), "count"),
        "matvec_seq": (int(final[5]), "count"),
        "outer_iters": (int(final[0]), "count"),
        "j_gap_rel": ((float(final[1]) - ref["J_star"]) / ref["J_star"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }


def traced_metrics(tracer, workload: str, traced_s: float, untraced_s: float,
                   diagnostics: dict) -> tuple[dict, bool]:
    """Per-layer metrics of the traced solve, and whether its spans add up."""
    from tracing import Span, layer_metrics, self_times

    spans = [Span._make(s) for s in tracer.spans]
    own, overlap = self_times(spans)
    attributed = sum(own.values()) - overlap
    diagnostics["trace"] = {"spans": len(spans), "self_s_sum": sum(own.values()),
                            "overlap_s": overlap, "traced_solve_s": traced_s}
    adds_up = abs(attributed - traced_s) <= TRACE_SUM_TOLERANCE * traced_s
    if not adds_up:
        print(f"self times sum to {attributed!r} s, traced solve took {traced_s!r} s",
              file=sys.stderr)
    spec = workloads.WORKLOADS[workload]
    workers = min(spec.get("worker_count", 1), spec.get("N", 1))
    metrics = layer_metrics(spans, workers, tracer.peak_trajectory_bytes)
    metrics["trace.overhead_rel"] = (traced_s / untraced_s - 1.0, "ratio")
    return metrics, adds_up


def run(args) -> int:
    if not (SRC / "heatctrl" / "__init__.py").is_file():
        print(f"no heatctrl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heatctrl.cli

    if SRC.resolve() not in Path(heatctrl.cli.__file__).resolve().parents:
        print(f"imported heatctrl from {heatctrl.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    variant = workloads.variant_of(args.seed)
    ref = workloads.reference(args.workload, args.seed)
    digest = source_digest()
    print(json.dumps({"context": run_context(args, variant, digest)}), flush=True)

    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup, tracer = [], None
    try:
        cfg_path, csv_path = workdir / "workload.cfg", workdir / "run.csv"
        cfg_path.write_text(workloads.config_text(args.workload, args.seed, str(csv_path)))
        if not args.trace:  # half the set-up probes before the solves, half after
            setup += measure_setup(cfg_path, SETUP_REPEATS // 2)
        results = timed_solves(heatctrl.cli.main, cfg_path, csv_path, args.seconds)
        if args.trace:
            import tracing

            with tracing.Tracer() as tracer:
                results.append(solve(tracer.wrap(heatctrl.cli.main, "cli.main"),
                                     cfg_path, csv_path))
        else:
            setup += measure_setup(cfg_path, SETUP_REPEATS - SETUP_REPEATS // 2)
    finally:
        shutil.rmtree(workdir)

    failures = check_all(results, ref, STATE / "digests" / digest / f"{args.workload}-v{variant}.csv")
    correct = not any(failures)
    untraced = results[:-1] if args.trace else results
    diagnostics = {
        "summary": results[0]["summary"],
        "solve_s": [r["seconds"] for r in results],
        "setup_s": setup,
        "j_gap_bounds": gap_bounds(ref),
        "fail_rate": sum(map(bool, failures)) / len(results),
    }
    metrics = {}
    if tracer is not None:
        metrics, adds_up = traced_metrics(
            tracer, args.workload, results[-1]["seconds"],
            statistics.median(r["seconds"] for r in untraced), diagnostics)
        correct = correct and adds_up
        tracer.write(STATE / f"trace-{args.workload}-seed{args.seed}.csv")
    elif correct:
        metrics = end_to_end_metrics(results, setup, ref)

    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": sum(map(bool, failures)),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
