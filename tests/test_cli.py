import contextlib
import errno
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import heatctrl.propagators as propagators
from heatctrl.cli import (
    CSV_HEADER, EXIT_CONFIG_ERROR, EXIT_MAX_ITER, EXIT_OK, EXIT_SOLVER_ERROR, main,
)
from heatctrl.config import KEYS, RunConfig
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
gradient_rtol = 1e-20
"""


# what the CLI prints before the runs for STALLING_1D's gradient_rtol (and
# any other 1e-20), which the default CG tolerance cannot resolve.  Its
# threshold, 1.2e-20, lies below the rounding floor of the gradient norm on
# this line, eps ||alpha v||_H = 3.4e-17, so no run can converge and each
# stops on a rounding-level uphill step, whatever its rounding.  At 1e-12,
# 1e-13 and 1e-14 the intermediate-targets run converged or stalled
# depending on one ulp of its adjoint patches
RTOL_WARNING = ("warning: gradient_rtol = 1e-20 is below the CG tolerance 1e-10; "
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
                     "--rtol", "1e-20", "--out", str(out)])
        assert code == EXIT_MAX_ITER
        written = ([out] if mode != "both" else
                   [tmp_path / "short_both_baseline.csv", tmp_path / "short_both_intermediate.csv"])
        assert all(path.exists() for path in written)  # CSV still written on non-convergence
        assert capsys.readouterr().err == RTOL_WARNING + "".join(
            f"iteration budget exhausted: {run} did not converge within max_outer = 1 "
            "iterations\n" for run in runs)


@pytest.mark.parametrize("rtol, warns", [("1e-20", True), ("1e-10", False), (None, False)])
def test_gradient_rtol_below_cg_tol_warns_before_the_run(tmp_path, capsys, rtol, warns):
    # STALLING_1D asks for 1e-20; at the CG tolerance itself, or at the
    # default 1e-6, the CLI stays silent.  The warning leaves the exit code be
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D if rtol else STALLING_1D.replace("gradient_rtol = 1e-20\n", ""))
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


def test_help_lists_each_key_flag_once(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  --")]
    assert listed == ["--config", *(flag for flag, _, _ in KEYS.values())]


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


def test_unreadable_config_is_a_config_error(cfg_file, tmp_path, capsys, monkeypatch):
    # a permissions-based test would not fail when run as root
    def unreadable(self, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", unreadable)
    code = main(["--config", str(cfg_file), "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: {cfg_file}: Permission denied\n"


@pytest.mark.parametrize("mode", ["intermediate-targets", "both"])
def test_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch, mode):
    # a full disk, as ``--out /dev/full`` gives, found only after the solve
    def full(self, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    monkeypatch.setattr(Path, "write_text", full)
    out = tmp_path / "x.csv"
    code = main(["--config", str(cfg), "--rtol", "1e-4", "--mode", mode, "--out", str(out)])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("configuration error: output ")
    assert err[0].endswith(": No space left on device")


def test_flag_overrides_reach_the_run(cfg_file, tmp_path):
    out = tmp_path / "n2.csv"
    code = main(["--config", str(cfg_file), "--N", "2", "--workers", "2",
                 "--max-outer", "3", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert len(_read_rows(out)) <= 4


# a value that its key's own parser rejects: the one line names the key
SINGLE_KEY_CHECKS = [
    ("--N", "0"), ("--inner-iters", "0"), ("--max-outer", "0"), ("--workers", "0"),
    ("--seed", "-1"), ("--T", "-1"), ("--mode", "turbo"),
    # malformed numbers
    ("--N", "abc"), ("--seed", "1.5"), ("--max-outer", "1e3"), ("--alpha", "abc"),
]


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "nan"), ("--nu", "inf"), ("--dt", "nan"), ("--T", "inf"),
    # invalid for the 8-step, 9-node 1D line
    ("--N", "100"), ("--nodes-per-axis", "2"), ("--nodes-per-axis", "9,9"),
    ("--domain-bounds", "1,0"), ("--control-bounds", "0.9,0.95"),
    # finite fields whose squared norm overflows
    ("--y0", "gaussian(0.5,0.1,1e160)"), ("--y-target", "random(1e160)"),
    # a gaussian sigma whose 2 sigma^2 overflows or underflows to 0
    ("--y0", "gaussian(0.5,1e200,1.0)"), ("--y-target", "gaussian(0.5,1e-200,1.0)"),
    # so many time steps that the run's float storage exceeds physical memory
    ("--T", "1e300"), ("--dt", "1e-300"),
    *SINGLE_KEY_CHECKS,
])
def test_non_finite_flag_is_a_config_error(tmp_path, capsys, flag, value):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()
    if (flag, value) in SINGLE_KEY_CHECKS:
        key = next(key for key, (f, _, _) in KEYS.items() if f == flag)
        assert err.startswith(f"configuration error: {key} must be ")


@pytest.mark.parametrize("flag, value, message", [
    ("--nodes-per-axis", "9,,9", "nodes_per_axis must be integers separated by commas"),
    ("--domain-bounds", "0,abc", "domain_bounds must be numbers separated by commas"),
], ids=["nodes_per_axis", "domain_bounds"])
def test_malformed_list_is_one_line_naming_its_key(tmp_path, capsys, flag, value, message):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: {message}, got '{value}'\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--y0", "bogus", "y0 must be one of zero, gaussian(cx,sigma,amplitude), "
     "indicator(lo,hi), random(scale)"),
    ("--y0", "gaussian(abc,1,1)", "y0 must be gaussian(cx,sigma,amplitude) with finite numbers"),
    ("--y0", "gaussian(0.5,0.15)", "y0 must be gaussian(cx,sigma,amplitude) for dim=1"),
    ("--y-target", "vortex(1)", "y_target must be one of zero, free-evolution-of-y0, "
     "gaussian(cx,sigma,amplitude), indicator(lo,hi), random(scale)"),
    ("--y-target", "indicator(0.2,inf)", "y_target must be indicator(lo,hi) with finite numbers"),
    ("--y-target", "random(1,2)", "y_target must be random(scale) for dim=1"),
], ids=["y0-name", "y0-argument", "y0-count", "y_target-name", "y_target-argument",
        "y_target-count"])
def test_malformed_field_spec_is_one_line_naming_its_key(tmp_path, capsys, flag, value,
                                                         message):
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), flag, value, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: {message}, got '{value}'\n"


def test_field_out_of_range_is_one_line_naming_its_key(tmp_path, capsys):
    # a well-formed spec whose value make_field rejects when it builds the field
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), "--y0", "gaussian(0.5,-1,1)",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == ("configuration error: y0 = 'gaussian(0.5,-1,1)': "
                                       "gaussian sigma must be positive\n")


@pytest.mark.parametrize("bounds, square", [("0,1e300", "inf"), ("0,1e-170", "0.0")],
                         ids=["h2-overflows", "h2-underflows"])
def test_grid_spacing_out_of_range_is_one_line_naming_its_key(tmp_path, capsys, bounds,
                                                              square):
    # h = 1.25e299 or 1.25e-171 on the 9-node line: h^2 overflows to inf or
    # underflows to 0, where the stencil would raise OverflowError or divide
    # by zero
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    code = main(["--config", str(cfg), "--domain-bounds", bounds, "--control-bounds", bounds,
                 "--y0", "gaussian(0,1e100,1.0)", "--mode", "both",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("configuration error: domain_bounds give axis 1 a spacing h = ")
    assert f"whose h^2 = {square} is out of range" in err and err.count("\n") == 1
    assert not any(tmp_path.glob("*.csv"))


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


@pytest.mark.parametrize("flags, value", [
    (["--nu", "1e308"], "inf"),
    (["--nu", "1e300", "--y0", "gaussian(0.5,0.15,1e10)"], "nan"),
    # the same overflow in the setup solve of the target
    (["--nu", "1e308", "--y-target", "free-evolution-of-y0"], "inf"),
])
def test_overflow_inside_a_solve_is_one_solver_error_line(tmp_path, capsys, flags, value):
    # the step operator's entries overflow: CG breaks down at its first
    # product, and numpy's overflow and invalid-value warnings (errors here)
    # stay silent
    cfg = tmp_path / "line.cfg"
    cfg.write_text(STALLING_1D)
    out = tmp_path / "x.csv"
    code = main(["--config", str(cfg), "--mode", "both", "--rtol", "1e-4", *flags,
                 "--out", str(out)])
    assert code == EXIT_SOLVER_ERROR
    assert capsys.readouterr().err == f"solver error: CG breakdown: p.Ap = {value}\n"
    assert not any(tmp_path.glob("*.csv"))


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


# The CLI fuzzer: one or two keys of config.KEYS set on the tiny 1D line, each
# to a value from its key's pool (valid, boundary and hostile values), or from
# HOSTILE for a key without a pool of its own.  Valid draws stay small: at
# most 64 steps, 33 nodes, 8 inner and 30 outer iterations
TINY_1D = {
    "dim": "1", "nodes_per_axis": "9", "domain_bounds": "0,1", "control_bounds": "0.2,0.8",
    "T": "0.4", "dt": "0.05", "alpha": "0.3", "nu": "0.5",
    "y0": "gaussian(0.5,0.15,1.0)", "y_target": "indicator(0.2,0.8)",
    "mode": "both", "N": "2", "max_outer": "30", "gradient_rtol": "1e-4",
}
HOSTILE = ("nan", "inf", "-inf", "1e300", "1e-300", "5e-324", "-1", "0", "2.5", "", "１２")
BIG = ("2.5", "１２")  # a valid T of up to 960 steps, or 12 inner iterations: too big
FIELDS = ("gaussian(0.5,0.15,1.0)", "zero", "indicator(0.2,0.8)", "random(1.0)",
          "free-evolution-of-y0", "gaussian(0.5,0.15)", "gaussian(0.5,0.15,1e10)",
          "gaussian(0.5,1e200,1.0)", "gaussian(0.5,5e-324,1.0)", "gaussian(nan,0.15,1.0)",
          "gaussian(0.5,0.15,1.0", "gaussian(,,)", "random(1e160)", "indicator(0.8,0.2)",
          "vortex(1)")
POOLS = {
    "dim": ("1", "2", "3", *HOSTILE),
    "nodes_per_axis": ("9", "3", "5", "17", "33", "2", "9,9", "9,", *HOSTILE),
    "domain_bounds": ("0,1", "0,2", "1,0", "0,0", "0,1,0,1", "0,inf", "-1e300,1e300",
                      "0,5e-324", *HOSTILE),
    "control_bounds": ("0.2,0.8", "0,1", "0.9,0.95", "0.8,0.2", "0.2,0.8,0.2,0.8",
                       *HOSTILE),
    "T": ("0.4", "0.8", "0.2", *(v for v in HOSTILE if v not in BIG)),
    "dt": ("0.05", "0.1", "0.0125", "0.03", *HOSTILE),
    "alpha": ("0.3", "1e-2", *HOSTILE),
    "nu": ("0.5", "0.1", "1e308", *HOSTILE),
    "y0": FIELDS + HOSTILE,
    "y_target": FIELDS + HOSTILE,
    "mode": ("baseline", "intermediate-targets", "both", "turbo", "BOTH", *HOSTILE),
    "N": ("1", "2", "8", "9", "100", *HOSTILE),
    "inner_iterations": ("1", "2", "8", *(v for v in HOSTILE if v not in BIG)),
    "max_outer": ("1", "5", "30", *HOSTILE),
    "gradient_rtol": ("1e-4", "1e-12", "0.5", *HOSTILE),
    # absolute paths below the example's own directory, never the working one
    "output": ("{tmp}/a.csv", "{tmp}/sub/b.csv", "{tmp}/c", "{tmp}", "{tmp}/", ""),
}
STOPPED_EARLY = ("stalled at iteration ", "iteration budget exhausted: ")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_fuzz_over_the_key_table(data):
    chosen = data.draw(st.lists(st.sampled_from(tuple(KEYS)), min_size=1, max_size=2,
                                unique=True), label="keys")
    with tempfile.TemporaryDirectory() as tmp:
        values = dict(TINY_1D, output=f"{tmp}/run.csv")
        for key in chosen:
            value = data.draw(st.sampled_from(POOLS.get(key, HOSTILE)), label=key)
            values[key] = value.replace("{tmp}", tmp)
        argv = [f"{KEYS[key][0]}={value}" for key, value in values.items()]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv)
        assert not [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        if code != EXIT_CONFIG_ERROR and lines and lines[0].startswith("warning: gradient_rtol"):
            lines = lines[1:]
        if code in (EXIT_CONFIG_ERROR, EXIT_SOLVER_ERROR):
            prefix = "configuration error: " if code == EXIT_CONFIG_ERROR else "solver error: "
            assert len(lines) == 1 and lines[0].startswith(prefix), lines
            assert not [p for p in Path(tmp).rglob("*") if p.is_file()]
            return
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        paths = RunConfig(**{**dict.fromkeys(KEYS), "output": values["output"],
                             "mode": values["mode"]}).output_paths
        if code == EXIT_OK:
            assert lines == []
        else:
            assert 1 <= len(lines) <= len(paths)
            assert all(line.startswith(STOPPED_EARLY) for line in lines), lines
        for path in paths:
            costs = [float(row[1]) for row in _read_rows(path)]
            assert all(b <= a for a, b in zip(costs, costs[1:]))
