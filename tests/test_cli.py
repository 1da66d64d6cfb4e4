import numpy as np
import pytest

import heatctrl.propagators as propagators
from heatctrl.cli import (
    CSV_HEADER, EXIT_CONFIG_ERROR, EXIT_MAX_ITER, EXIT_OK, EXIT_SOLVER_ERROR, main,
)
from heatctrl.linsolve import CGError


TINY_2D = """
dim = 2
nodes_per_axis = 9,9
domain_bounds = 0,1,0,1
control_bounds = 0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666
T = 0.8
dt = 0.05
alpha = 1e-2
nu = 1e-1
y0 = gaussian(0.5,0.5,0.15,1.0)
y_target = indicator(0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666)
mode = intermediate-targets
N = 4
max_outer = 40
gradient_rtol = 1e-3
"""


STALLING_1D = """
dim = 1
nodes_per_axis = 9
domain_bounds = 0,1
control_bounds = 0.2,0.8
T = 0.4
dt = 0.05
alpha = 0.3
nu = 0.5
y0 = gaussian(0.5,0.15,1.0)
y_target = indicator(0.2,0.8)
mode = intermediate-targets
N = 2
max_outer = 200
gradient_rtol = 1e-12
"""


# what the CLI prints before the runs for STALLING_1D's gradient_rtol (and
# any other 1e-12), which the default CG tolerance cannot resolve
RTOL_WARNING = ("warning: gradient_rtol = 1e-12 is below the CG tolerance 1e-10; "
                "the run may stall\n")


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(TINY_2D)
    return path


def _read_rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


def test_baseline_free_evolution_single_row(cfg_file, tmp_path, capsys):
    out = tmp_path / "free.csv"
    code = main(["--config", str(cfg_file), "--mode", "baseline",
                 "--y-target", "free-evolution-of-y0", "--out", str(out)])
    assert code == EXIT_OK
    rows = _read_rows(out)
    assert len(rows) == 1
    assert float(rows[0][1]) <= 1e-20
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("final_J=")
    assert summary.endswith("speedup=n/a")


def test_intermediate_csv_contract(cfg_file, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["--config", str(cfg_file), "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    rows = _read_rows(out)
    iters = [int(r[0]) for r in rows]
    assert iters == list(range(len(rows)))
    costs = [float(r[1]) for r in rows]
    assert all(b <= a for a, b in zip(costs, costs[1:]))
    for r in rows:
        misfit, penalty = float(r[2]), float(r[3])
        theta = float(r[4])
        assert np.isfinite(theta)
        assert misfit >= 0 and penalty >= 0
        assert int(r[6]) <= int(r[5])  # matvec_par <= matvec_seq
    if code == EXIT_OK:
        # exact line search: nonzero step everywhere except at convergence
        assert all(float(r[4]) != 0.0 for r in rows[:-1])
        assert float(rows[-1][4]) == 0.0


def test_csv_identical_across_reruns_except_wall(cfg_file, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["--config", str(cfg_file), "--out", str(out1)])
    main(["--config", str(cfg_file), "--out", str(out2)])
    strip = lambda p: [line.rsplit(",", 1)[0] for line in p.read_text().splitlines()]
    assert strip(out1) == strip(out2)


def test_mode_both_writes_two_files_and_speedup(cfg_file, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(["--config", str(cfg_file), "--mode", "both", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert (tmp_path / "bench_baseline.csv").exists()
    assert (tmp_path / "bench_intermediate.csv").exists()
    summary = capsys.readouterr().out.strip()
    parts = dict(tok.split("=") for tok in summary.split())
    assert set(parts) == {"final_J", "matvec_seq", "matvec_par", "speedup"}
    assert parts["speedup"] == "n/a" or float(parts["speedup"]) > 0


def test_exit_code_for_exhausted_budget(cfg_file, tmp_path, capsys):
    # one stderr line per run that ran out, in the order the runs ran
    for mode, runs in [("intermediate-targets", ["intermediate-targets"]),
                       ("baseline", ["baseline"]),
                       ("both", ["baseline", "intermediate-targets"])]:
        out = tmp_path / f"short_{mode}.csv"
        code = main(["--config", str(cfg_file), "--mode", mode, "--max-outer", "1",
                     "--rtol", "1e-12", "--out", str(out)])
        assert code == EXIT_MAX_ITER
        written = ([out] if mode != "both" else
                   [tmp_path / "short_both_baseline.csv", tmp_path / "short_both_intermediate.csv"])
        assert all(path.exists() for path in written)  # CSV still written on non-convergence
        assert capsys.readouterr().err == RTOL_WARNING + "".join(
            f"iteration budget exhausted: {run} did not converge within max_outer = 1 "
            "iterations\n" for run in runs)


@pytest.mark.parametrize("rtol, warns", [("1e-12", True), ("1e-10", False), (None, False)])
def test_gradient_rtol_below_cg_tol_warns_before_the_run(tmp_path, capsys, rtol, warns):
    # STALLING_1D asks for 1e-12; at the CG tolerance itself, or at the
    # default 1e-6, the CLI stays silent.  The warning leaves the exit code be
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D if rtol else STALLING_1D.replace("gradient_rtol = 1e-12\n", ""))
    flags = ["--rtol", rtol] if rtol else []
    code = main(["--config", str(cfg), "--max-outer", "1", *flags,
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_MAX_ITER
    warning = RTOL_WARNING if warns else ""
    assert capsys.readouterr().err == warning + (
        "iteration budget exhausted: intermediate-targets did not converge within "
        "max_outer = 1 iterations\n")


def test_exit_code_for_config_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "missing.cfg")])
    assert code == EXIT_CONFIG_ERROR
    assert "configuration error" in capsys.readouterr().err


def test_usage_error_is_a_config_error(capsys):
    # argparse alone would print a usage block and exit 2, the budget's code
    for argv in (["--bogus", "1"], ["--dim"]):
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: ")
    with pytest.raises(SystemExit) as done:
        main(["--help"])
    assert done.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_output_directory_is_a_config_error(cfg_file, tmp_path, capsys):
    code = main(["--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output") and err.count("\n") == 1


def _no_solve(*args):
    raise AssertionError("the run started")


def test_output_below_a_regular_file_is_a_config_error(cfg_file, tmp_path, capsys,
                                                       monkeypatch):
    (tmp_path / "afile").write_text("")
    monkeypatch.setattr("heatctrl.cli.build_instance", _no_solve)
    code = main(["--config", str(cfg_file), "--out", str(tmp_path / "afile" / "x" / "r.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output") and err.count("\n") == 1
    assert "is not a directory" in err


def test_mode_both_derived_output_directory_is_a_config_error(cfg_file, tmp_path, capsys,
                                                              monkeypatch):
    (tmp_path / "r_intermediate.csv").mkdir()
    monkeypatch.setattr("heatctrl.cli.build_instance", _no_solve)
    code = main(["--config", str(cfg_file), "--mode", "both", "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output") and err.count("\n") == 1
    assert "r_intermediate.csv' is a directory" in err
    assert not (tmp_path / "r_baseline.csv").exists()


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"dim = 1\xff\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "UTF-8" in err


def test_flag_overrides_reach_the_run(cfg_file, tmp_path):
    out = tmp_path / "n2.csv"
    code = main(["--config", str(cfg_file), "--N", "2", "--workers", "2",
                 "--max-outer", "3", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert len(_read_rows(out)) <= 4


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--nu", "inf"), ("--dt", "nan"), ("--T", "inf"),
    # invalid for the 8-step, 9-node 1D line
    ("--N", "100"), ("--nodes-per-axis", "2"), ("--nodes-per-axis", "9,9"),
    ("--domain-bounds", "1,0"), ("--control-bounds", "0.9,0.95"), ("--seed", "-1"),
    # finite fields whose squared norm overflows
    ("--y0", "gaussian(0.5,0.1,1e160)"), ("--y-target", "random(1e160)"),
    # a gaussian sigma whose 2 sigma^2 overflows or underflows to 0
    ("--y0", "gaussian(0.5,1e200,1.0)"), ("--y-target", "gaussian(0.5,1e-200,1.0)"),
])
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, flag, value):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("dim", ["0", "-1", "3"])
def test_unsupported_dim_is_reported_before_the_bounds(tmp_path, capsys, dim):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), "--dim", dim, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: dim must be 1 or 2, got {dim}\n"


def test_exit_code_for_solver_error(cfg_file, tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise CGError("synthetic breakdown")

    monkeypatch.setattr(propagators, "cg_solve", failing)
    code = main(["--config", str(cfg_file), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_SOLVER_ERROR
    err = capsys.readouterr().err
    assert err == "solver error: synthetic breakdown\n"


def test_stalled_run_stops_and_writes_csv(tmp_path, capsys):
    # rtol below what cg_tol = 1e-10 can resolve: the CLI warns, and the line
    # search eventually proposes an uphill step, which the driver rejects, in
    # either mode.  Each stall line names its mode; mode both runs the
    # baseline first
    cfg = tmp_path / "stall.cfg"
    cfg.write_text(STALLING_1D)
    for mode, runs in [("intermediate-targets", ["intermediate-targets"]),
                       ("baseline", ["baseline"]),
                       ("both", ["baseline", "intermediate-targets"])]:
        out = tmp_path / f"stall_{mode}.csv"
        code = main(["--config", str(cfg), "--mode", mode, "--out", str(out)])
        assert code == EXIT_MAX_ITER
        written = ([out] if mode != "both" else
                   [tmp_path / "stall_both_baseline.csv", tmp_path / "stall_both_intermediate.csv"])
        want = RTOL_WARNING
        for run, path in zip(runs, written, strict=True):
            rows = _read_rows(path)
            thetas = [float(r[4]) for r in rows]
            assert len(rows) < 200 and thetas[-1] == 0.0 and all(thetas[:-1])
            want += (f"stalled at iteration {len(rows) - 1}: {run}: "
                     "the line search found no descent step\n")
        assert capsys.readouterr().err == want


@pytest.mark.parametrize("mode", ["baseline", "intermediate-targets"])
def test_overflowing_gradient_is_a_solver_error(tmp_path, capsys, mode):
    # the squared norm of y0 is finite, so the config is valid, but the H
    # norm of the first gradient overflows: no threshold can be formed
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    out = tmp_path / "x.csv"
    code = main(["--config", str(cfg), "--mode", mode, "--y0", "gaussian(0.5,0.1,1e154)",
                 "--N", "2", "--T", "0.08", "--dt", "0.01", "--out", str(out)])
    assert code == EXIT_SOLVER_ERROR
    assert capsys.readouterr().err == RTOL_WARNING + (
        "solver error: the cost or its gradient overflowed at iteration 0\n")
    assert not out.exists()
