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
    out = tmp_path / "short.csv"
    code = main(["--config", str(cfg_file), "--max-outer", "1",
                 "--rtol", "1e-12", "--out", str(out)])
    assert code == EXIT_MAX_ITER
    assert out.exists()  # CSV still written on non-convergence
    assert capsys.readouterr().err == ("iteration budget exhausted: intermediate-targets "
                                       "did not converge within max_outer = 1 iterations\n")


def test_exit_code_for_config_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "missing.cfg")])
    assert code == EXIT_CONFIG_ERROR
    assert "configuration error" in capsys.readouterr().err


def test_output_directory_is_a_config_error(cfg_file, tmp_path, capsys):
    code = main(["--config", str(cfg_file), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error: output") and err.count("\n") == 1


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
])
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, flag, value):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


def test_exit_code_for_solver_error(cfg_file, tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise CGError("synthetic breakdown")

    monkeypatch.setattr(propagators, "cg_solve", failing)
    code = main(["--config", str(cfg_file), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_SOLVER_ERROR
    err = capsys.readouterr().err
    assert err == "solver error: synthetic breakdown\n"


def test_stalled_run_stops_and_writes_csv(tmp_path, capsys):
    # rtol below what cg_tol = 1e-10 can resolve: the line search eventually
    # proposes an uphill step, which the driver rejects
    cfg = tmp_path / "stall.cfg"
    cfg.write_text(STALLING_1D)
    out = tmp_path / "stall.csv"
    code = main(["--config", str(cfg), "--out", str(out)])
    assert code == EXIT_MAX_ITER
    rows = _read_rows(out)
    thetas = [float(r[4]) for r in rows]
    assert len(rows) < 200 and thetas[-1] == 0.0 and all(thetas[:-1])
    err = capsys.readouterr().err
    assert err == f"stalled at iteration {len(rows) - 1}: the line search found no descent step\n"
