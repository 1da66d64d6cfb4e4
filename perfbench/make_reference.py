"""Make ``reference.json``: the optimum J* of every workload instance and variant.

Each J* comes from an intermediate-targets run through ``heatctrl.cli.main``
at ``REFERENCE_RTOL`` (10^4 times tighter than the workloads' tolerance) on
one worker.  The file also holds ||grad J(0)||_H, from which ``run.py``
derives the bound on the gap a run at the workloads' tolerance may leave,
and the CLI's matched-cost speedup on desk33 with its two bases, kept as a
diagnostic only.

Run from the repository root; it takes about 20 minutes on two cores:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import platform
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402

REFERENCE_RTOL = 1e-7
SCRATCH = ROOT / ".perfbench" / "reference"
# the intermediate-targets workload that defines each instance's partition
SOLVED_BY = {"field65": "it-field65", "desk33": "it-desk33", "line17": "smoke-1d"}


def _final_row(csv_path: Path) -> list[str]:
    return csv_path.read_text().splitlines()[-1].split(",")


def _initial_gradient_norm(cfg_path: Path) -> float:
    from heatctrl.config import build_instance, parse_config
    from heatctrl.linsolve import MatvecCounter
    from heatctrl.problem import ControlProblem, gradient, norm_h

    cfg = parse_config(cfg_path)
    grid, time_grid, y0, y_target = build_instance(cfg)
    problem = ControlProblem(grid=grid, time_grid=time_grid, y0=y0,
                             y_target=y_target, alpha=cfg.alpha, nu=cfg.nu)
    g0 = gradient(problem, problem.zero_control(), MatvecCounter())
    return float(norm_h(grid, time_grid, g0))


def solve_variant(instance: str, variant: int) -> dict:
    from heatctrl.cli import main

    workload = SOLVED_BY[instance]
    out = SCRATCH / f"{instance}-v{variant}.csv"
    cfg_path = out.with_suffix(".cfg")
    cfg_path.write_text(workloads.config_text(
        workload, variant, str(out), gradient_rtol=REFERENCE_RTOL,
        worker_count=1, max_outer=5000))
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", str(cfg_path)])
    if code != 0:
        raise RuntimeError(f"{instance} variant {variant}: exit code {code}")
    row = _final_row(out)
    return {
        "y0_centre": workloads.y0_centre(workloads.INSTANCES[instance]["dim"], variant),
        "J_star": float(row[1]),
        "g0_norm": _initial_gradient_norm(cfg_path),
        "outer_iters": int(row[0]),
    }


def speedup_diagnostic() -> dict:
    """The CLI's matched-cost speedup on desk33, with the two matvec bases."""
    from heatctrl.cli import main

    out = SCRATCH / "desk33-both.csv"
    cfg_path = out.with_suffix(".cfg")
    cfg_path.write_text(workloads.config_text(
        "it-desk33", 0, str(out), mode="both", worker_count=1))
    summary = io.StringIO()
    with contextlib.redirect_stdout(summary):
        main(["--config", str(cfg_path)])
    fields = dict(kv.split("=") for kv in summary.getvalue().split())
    base = [line.split(",") for line in
            out.with_name("desk33-both_baseline.csv").read_text().splitlines()[1:]]
    inter = [line.split(",") for line in
             out.with_name("desk33-both_intermediate.csv").read_text().splitlines()[1:]]
    threshold = 1.01 * float(base[-1][1])
    return {
        "speedup": float(fields["speedup"]),
        "matched_J": threshold,
        "baseline_matvec_seq": next(int(r[5]) for r in base if float(r[1]) <= threshold),
        "intermediate_matvec_par": next(int(r[6]) for r in inter if float(r[1]) <= threshold),
    }


def main() -> None:
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    jobs = [(inst, v) for inst in SOLVED_BY for v in range(workloads.VARIANTS)]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        futures = {job: pool.submit(solve_variant, *job) for job in jobs}
        speedup = pool.submit(speedup_diagnostic)
        table = {inst: [futures[(inst, v)].result() for v in range(workloads.VARIANTS)]
                 for inst in SOLVED_BY}
        diagnostic = speedup.result()

    workloads.REFERENCE_PATH.write_text(json.dumps({
        "method": (
            "J_star: final J of an intermediate-targets run of heatctrl.cli.main "
            f"at gradient_rtol {REFERENCE_RTOL:g}, worker_count 1, max_outer 5000, "
            "N as in the workload; g0_norm: ||grad J(0)||_H from heatctrl.problem.gradient"
        ),
        "reference_rtol": REFERENCE_RTOL,
        "made_with": {
            "commit": subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                     capture_output=True, text=True).stdout.strip(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "instances": table,
        "speedup_diagnostic_desk33": diagnostic,
    }, indent=2) + "\n")
    shutil.rmtree(SCRATCH)


if __name__ == "__main__":
    main()
