"""Tests of the benchmark itself, on the tiny smoke-1d workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracing import Span, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_reports_every_metric(trace, section):
    done = _bench("--workload", "smoke-1d", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}
    if trace == "1":
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["targets.solve_subproblem.calls"] > 0
        assert metrics["linsolve.cg_solve.failed"] == 0
        assert 0 < metrics["driver.step2.efficiency"] <= 1.0 + 1e-9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "smoke-1d", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _solve(rows, header=bench.CSV_HEADER, code=0):
    csv = "\n".join([header] + [",".join(map(str, r)) for r in rows]) + "\n"
    last = rows[-1]
    return {"code": code, "seconds": 1.0, "csv": csv,
            "summary": f"final_J={last[1]} matvec_seq={last[5]} matvec_par={last[6]} speedup=n/a"}


REF = {"J_star": 1.0, "g0_norm": 10.0, "reference_rtol": 1e-7}
GOOD = [(0, 1.2, 1.2, 0, 0.5, 10, 10, 3.0), (1, 1.00001, 1.0, 0.00001, 0, 20, 15, 6.0)]


def test_check_solve_accepts_a_monotone_converged_run():
    assert bench.check_solve(_solve(GOOD), REF, expected=None) == []
    assert bench.check_solve(_solve(GOOD), REF, bench.numeric_columns(_solve(GOOD)["csv"])) == []


@pytest.mark.parametrize("solve, fragment", [
    (_solve(GOOD, code=2), "exit code"),
    (_solve(GOOD, header="iter,J"), "header"),
    (_solve([GOOD[1], (1, 1.1, 1, 0, 0, 30, 20, 1.0)]), "J increases"),
    (_solve([GOOD[0], (1, 1.00001, 1, 0, 0, 5, 15, 1.0)]), "matvec_seq decreases"),
    (_solve([GOOD[0], (1, 1.1, 1.1, 0, 0, 20, 15, 1.0)]), "j_gap_rel"),
])
def test_check_solve_rejects(solve, fragment):
    assert any(fragment in p for p in bench.check_solve(solve, REF, expected=None))


def test_check_solve_rejects_numbers_that_do_not_repeat():
    other = [GOOD[0], (1, 1.000011, 1.0, 0.000011, 0, 20, 15, 6.0)]
    expected = bench.numeric_columns(_solve(other)["csv"])
    assert bench.check_solve(_solve(GOOD), REF, expected) == [
        "CSV numbers differ from an earlier run of the same code and input"]


def test_self_times_cover_concurrent_children_once():
    spans = [Span(0, -1, 1, "root", 0.0, 10.0, 0, 0),
             Span(1, 0, 2, "a", 1.0, 4.0, 0, 0),
             Span(2, 0, 3, "b", 2.0, 6.0, 0, 0),
             Span(3, 1, 2, "c", 1.5, 2.0, 0, 0)]
    own, overlap = self_times(spans)
    assert own == {0: 5.0, 1: 2.5, 2: 4.0, 3: 0.5}
    assert overlap == 2.0
    assert sum(own.values()) - overlap == 10.0


def test_self_times_expose_a_child_outside_its_parent():
    spans = [Span(0, -1, 1, "root", 0.0, 10.0, 0, 0), Span(1, 0, 1, "a", 8.0, 12.0, 0, 0)]
    own, overlap = self_times(spans)
    assert sum(own.values()) - overlap != 10.0
