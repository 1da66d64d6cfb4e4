"""Benchmark CLI: baseline vs. intermediate-targets, CSV convergence traces.

Exit codes: 0 converged, 1 configuration error, 2 iteration budget exhausted
or run stalled (the CSV is still written, and stderr gets one line per run
that stopped early), 3 solver error (CG broke down or did not converge).

``--workers`` (``worker_count``) is parsed and validated but has no effect:
step 2 is one batched solve.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, RunConfig, build_instance, parse_config
from .driver import OuterConfig, run as run_outer
from .linsolve import CGError, MatvecCounter
from .problem import ControlProblem, optimal_step_gradient

CSV_HEADER = "iter,J,misfit,penalty,theta,matvec_seq,matvec_par,wall_ms"

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_MAX_ITER = 2
EXIT_SOLVER_ERROR = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, rows: list[tuple]) -> None:
    lines = [CSV_HEADER]
    for it, j, misfit, penalty, theta, seq, par, wall_ms in rows:
        lines.append(
            f"{it},{_fmt(j)},{_fmt(misfit)},{_fmt(penalty)},{_fmt(theta)},"
            f"{seq},{par},{_fmt(wall_ms)}"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _report_exhausted(mode: str, cfg: RunConfig) -> None:
    print(f"iteration budget exhausted: {mode} did not converge "
          f"within max_outer = {cfg.max_outer} iterations", file=sys.stderr)


def _baseline_rows(problem: ControlProblem, cfg: RunConfig):
    counter = MatvecCounter()
    result = optimal_step_gradient(
        problem, problem.zero_control(), cfg.max_outer, counter,
        gradient_rtol=cfg.gradient_rtol,
    )
    rows = [
        (k, rec.cost, rec.misfit, rec.penalty,
         result.step_sizes[k] if k < len(result.step_sizes) else 0.0,
         result.matvec_marks[k], result.matvec_marks[k],
         1000.0 * result.wall_marks[k])
        for k, rec in enumerate(result.history)
    ]
    if not result.converged:
        _report_exhausted("baseline", cfg)
    return rows, result.converged


def _intermediate_rows(problem: ControlProblem, cfg: RunConfig):
    outer = OuterConfig(
        n_intervals=cfg.N,
        inner_iterations=cfg.inner_iterations,
        max_outer=cfg.max_outer,
        gradient_rtol=cfg.gradient_rtol,
    )
    result = run_outer(problem, outer)
    if result.stalled:
        print(f"stalled at iteration {result.history[-1].outer_index}: "
              "the line search found no descent step", file=sys.stderr)
    elif not result.converged:
        _report_exhausted("intermediate-targets", cfg)
    rows = [
        (m.outer_index, m.cost, m.misfit, m.penalty, m.theta,
         m.matvec_sequential, m.matvec_parallel, 1000.0 * m.wall_time)
        for m in result.history
    ]
    return rows, result.converged


_ROWS = {"baseline": _baseline_rows, "intermediate-targets": _intermediate_rows}


def _print_summary(rows, speedup: str = "n/a") -> None:
    _, j, _, _, _, seq, par, _ = rows[-1]
    print(f"final_J={_fmt(j)} matvec_seq={seq} matvec_par={par} speedup={speedup}")


def _matvecs_to_reach(rows, threshold: float, column: int):
    """First row whose J is at or below the threshold; returns (iter, matvecs)."""
    for row in rows:
        if row[1] <= threshold:
            return row[0], row[column]
    return None, None


def run_benchmark(cfg: RunConfig) -> int:
    grid, time_grid, y0, y_target = build_instance(cfg)
    problem = ControlProblem(
        grid=grid, time_grid=time_grid, y0=y0, y_target=y_target,
        alpha=cfg.alpha, nu=cfg.nu,
    )
    if cfg.mode in _ROWS:
        rows, converged = _ROWS[cfg.mode](problem, cfg)
        (out,) = cfg.output_paths
        _write_csv(out, rows)
        _print_summary(rows)
        return EXIT_OK if converged else EXIT_MAX_ITER

    # mode == both: identical discretization and tolerances for both runs
    base_rows, base_conv = _baseline_rows(problem, cfg)
    inter_rows, inter_conv = _intermediate_rows(problem, cfg)
    base_out, inter_out = cfg.output_paths
    _write_csv(base_out, base_rows)
    _write_csv(inter_out, inter_rows)

    threshold = 1.01 * base_rows[-1][1]
    _, base_cost = _matvecs_to_reach(base_rows, threshold, column=5)
    _, inter_cost = _matvecs_to_reach(inter_rows, threshold, column=6)
    speedup = _fmt(base_cost / inter_cost) if base_cost is not None and inter_cost else "n/a"
    _print_summary(inter_rows, speedup)
    return EXIT_OK if (base_conv and inter_conv) else EXIT_MAX_ITER


# command-line flag -> configuration key
_FLAG_KEYS = [
    ("--dim", "dim"),
    ("--nodes-per-axis", "nodes_per_axis"),
    ("--domain-bounds", "domain_bounds"),
    ("--control-bounds", "control_bounds"),
    ("--T", "T"),
    ("--dt", "dt"),
    ("--alpha", "alpha"),
    ("--nu", "nu"),
    ("--y0", "y0"),
    ("--y-target", "y_target"),
    ("--mode", "mode"),
    ("--N", "N"),
    ("--inner-iters", "inner_iterations"),
    ("--max-outer", "max_outer"),
    ("--rtol", "gradient_rtol"),
    ("--workers", "worker_count"),
    ("--out", "output"),
    ("--seed", "seed"),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatctrl",
        description=(
            "Benchmark optimal control of the heat equation: sequential "
            "optimal-step gradient baseline vs. the time-parallel "
            "intermediate-targets method."
        ),
    )
    parser.add_argument("--config", help="flat key = value configuration file")
    for flag, key in _FLAG_KEYS:
        parser.add_argument(flag, dest=f"override_{key}", metavar="VALUE")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {
        key: getattr(args, f"override_{key}")
        for _, key in _FLAG_KEYS
        if getattr(args, f"override_{key}") is not None
    }
    try:
        cfg = parse_config(args.config, overrides)
        return run_benchmark(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except CGError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
