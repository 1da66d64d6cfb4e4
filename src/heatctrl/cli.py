"""Benchmark CLI: baseline vs. intermediate-targets, CSV convergence traces.

Both modes run ``driver.run``, the one outer loop, and differ only in the
number of intervals and inner iterations: the baseline runs one interval
with one inner iteration, which is the sequential optimal-step gradient
method, intermediate targets run N intervals with ``inner_iterations``.
Mode both runs the baseline first, then intermediate targets, on the same
instance.

Exit codes: 0 converged, 1 configuration error (a usage error on the command
line included), 2 iteration budget exhausted or run stalled (the CSV is still
written, and stderr gets one line per run that stopped early, naming its
mode), 3 solver error (CG broke down or did not converge, an overflow inside
a solve included, or the cost or its gradient overflowed).  A ``gradient_rtol``
below the CG tolerance, which the stopping test cannot resolve, gets one
warning line on stderr before the runs; the exit code does not change.

Each key of ``config.KEYS`` has one flag.  ``--workers`` (``worker_count``) is
parsed and validated but has no effect: step 2 solves its sub-problems one
after another in the calling thread.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import KEYS, ConfigError, RunConfig, build_instance, parse_config
from .driver import IterationMetrics, OuterConfig, RunResult, run as run_outer
from .linsolve import CGError
from .problem import ControlProblem

CSV_HEADER = "iter,J,misfit,penalty,theta,matvec_seq,matvec_par,wall_ms"

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_SOLVER_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, history: list[IterationMetrics]) -> None:
    lines = [CSV_HEADER]
    for m in history:
        lines.append(
            f"{m.outer_index},{_fmt(m.cost)},{_fmt(m.misfit)},{_fmt(m.penalty)},"
            f"{_fmt(m.theta)},{m.matvec_sequential},{m.matvec_parallel},"
            f"{_fmt(1000.0 * m.wall_time)}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _run(problem: ControlProblem, cfg: RunConfig, mode: str) -> RunResult:
    """One run of ``mode``; stderr gets one line if it stops early."""
    baseline = mode == "baseline"
    outer = OuterConfig(
        n_intervals=1 if baseline else cfg.N,
        inner_iterations=1 if baseline else cfg.inner_iterations,
        max_outer=cfg.max_outer,
        gradient_rtol=cfg.gradient_rtol,
    )
    result = run_outer(problem, outer)
    if result.stalled:
        print(f"stalled at iteration {result.history[-1].outer_index}: {mode}: "
              "the line search found no descent step", file=sys.stderr)
    elif not result.converged:
        print(f"iteration budget exhausted: {mode} did not converge "
              f"within max_outer = {cfg.max_outer} iterations", file=sys.stderr)
    return result


def _speedup(base: RunResult, inter: RunResult) -> str:
    """Ratio of the matvecs each run needs to reach 1.01 times the baseline's
    final J, counted in the parallel tally (on the baseline's one interval,
    the sequential one)."""
    threshold = 1.01 * base.history[-1].cost
    base_cost, inter_cost = (
        next((m.matvec_parallel for m in r.history if m.cost <= threshold), None)
        for r in (base, inter)
    )
    return _fmt(base_cost / inter_cost) if inter_cost else "n/a"


def run_benchmark(cfg: RunConfig) -> int:
    grid, time_grid, y0, y_target = build_instance(cfg)
    problem = ControlProblem(
        grid=grid, time_grid=time_grid, y0=y0, y_target=y_target,
        alpha=cfg.alpha, nu=cfg.nu,
    )
    if cfg.gradient_rtol < problem.cg_tol:
        print(f"warning: gradient_rtol = {cfg.gradient_rtol:g} is below the CG tolerance "
              f"{problem.cg_tol:g}; the run may stall", file=sys.stderr)
    # mode both: identical discretization and tolerances for both runs
    modes = ("baseline", "intermediate-targets") if cfg.mode == "both" else (cfg.mode,)
    results = [_run(problem, cfg, mode) for mode in modes]
    for path, result in zip(cfg.output_paths, results, strict=True):
        try:
            _write_csv(path, result.history)
        except OSError as exc:
            raise ConfigError(f"output {str(path)!r}: {exc.strerror}") from exc

    last = results[-1].history[-1]
    speedup = _speedup(*results) if len(results) == 2 else "n/a"
    print(f"final_J={_fmt(last.cost)} matvec_seq={last.matvec_sequential} "
          f"matvec_par={last.matvec_parallel} speedup={speedup}")
    return EXIT_OK if all(r.converged for r in results) else EXIT_MAX_ITER


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError: exit 1 and one line, not exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heatctrl",
        description=(
            "Benchmark optimal control of the heat equation: sequential "
            "optimal-step gradient baseline vs. the time-parallel "
            "intermediate-targets method."
        ),
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    for key, (flag, _, _) in KEYS.items():  # a flag not given leaves its key out
        parser.add_argument(flag, dest=key, metavar="VALUE", default=argparse.SUPPRESS)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        overrides = vars(build_parser().parse_args(argv))
        cfg = parse_config(overrides.pop("config"), overrides)
        # an overflow in a solve ends in one solver-error line, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return run_benchmark(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (CGError, FloatingPointError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
