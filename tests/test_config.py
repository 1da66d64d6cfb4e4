import dataclasses

import numpy as np
import pytest

import heatctrl as hc
from heatctrl.config import KEYS, ConfigError, RunConfig, make_field, parse_config


BENCH_SCALE = """
# parameters of the 2D benchmark
dim = 2
nodes_per_axis = 31,31
domain_bounds = 0,1,0,1
control_bounds = 0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666
T = 6.4
dt = 1e-3
alpha = 1e-2
nu = 1e-2
y0 = gaussian(0.5,0.5,0.15,1.0)
y_target = indicator(0.3333333333333333,0.6666666666666666,0.3333333333333333,0.6666666666666666)
mode = intermediate-targets
N = 8
"""


@pytest.fixture
def bench_cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BENCH_SCALE)
    return path


def test_parse_benchmark_scale_config(bench_cfg_file):
    cfg = parse_config(bench_cfg_file)
    assert cfg.step_count == 6400
    assert cfg.N == 8
    assert cfg.mode == "intermediate-targets"
    assert cfg.inner_iterations == 1  # default
    assert cfg.worker_count == 1  # default


def test_run_config_has_one_field_per_key():
    assert tuple(f.name for f in dataclasses.fields(RunConfig)) == tuple(KEYS)


def test_overrides_win_over_file(bench_cfg_file):
    cfg = parse_config(bench_cfg_file, {"N": "4", "worker_count": "8"})
    assert cfg.N == 4
    assert cfg.worker_count == 8


def test_key_given_twice_rejected(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text(BENCH_SCALE + "# again\nN = 3\n")
    lines = path.read_text().splitlines()
    first, second = (i + 1 for i, line in enumerate(lines) if line.startswith("N ="))
    for overrides in (None, {"N": "4"}):  # a flag does not mend the file
        with pytest.raises(ConfigError,
                           match=f"twice.cfg:{second}: 'N' is already set on line {first}"):
            parse_config(path, overrides)


def test_non_integer_step_count_rejected(bench_cfg_file):
    with pytest.raises(ConfigError, match="not a positive integer"):
        parse_config(bench_cfg_file, {"T": "1.0", "dt": "0.3"}).step_count


def test_unknown_key_rejected(bench_cfg_file, tmp_path):
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config(bench_cfg_file, {"bogus": "1"})
    bad = tmp_path / "bad.cfg"
    bad.write_text(BENCH_SCALE + "\nspice = plenty\n")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        parse_config(bad)


def test_missing_required_keys_rejected(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("dim = 1\nT = 1.0\n")
    with pytest.raises(ConfigError, match="missing required keys"):
        parse_config(path)


def test_bad_mode_rejected(bench_cfg_file):
    with pytest.raises(ConfigError, match="mode"):
        parse_config(bench_cfg_file, {"mode": "turbo"})


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.cfg")


def test_config_file_with_a_utf8_bom_parses(tmp_path, bench_cfg_file):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + BENCH_SCALE.lstrip().encode())
    assert parse_config(path) == parse_config(bench_cfg_file)


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dim 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config(path)


@pytest.mark.parametrize("key, value", [
    ("alpha", "nan"), ("nu", "inf"), ("dt", "nan"), ("T", "inf"),
    ("gradient_rtol", "nan"), ("domain_bounds", "0,inf,0,1"),
    ("control_bounds", "0.3,nan,0.3,0.6"),
])
def test_non_finite_values_rejected(bench_cfg_file, key, value):
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        parse_config(bench_cfg_file, {key: value})


def test_overflowing_step_count_rejected(bench_cfg_file):
    with pytest.raises(ConfigError, match="not a positive integer"):
        parse_config(bench_cfg_file, {"T": "1e300", "dt": "1e-300"})


@pytest.fixture
def grid_2d():
    return hc.build_grid(2, (9, 9), [(0.0, 1.0), (0.0, 1.0)],
                         [(1 / 3, 2 / 3), (1 / 3, 2 / 3)])


def test_make_field_zero(grid_2d):
    assert np.array_equal(make_field(grid_2d, "zero"), np.zeros(49))


def test_make_field_gaussian_peak_at_center(grid_2d):
    u = make_field(grid_2d, "gaussian(0.5,0.5,0.1,2.0)")
    assert u.max() == pytest.approx(2.0)  # 0.5 is a grid node
    assert u.min() > 0.0


def test_make_field_indicator_matches_control_mask(grid_2d):
    u = make_field(grid_2d, "indicator(0.3333333333333333,0.6666666666666666,"
                            "0.3333333333333333,0.6666666666666666)")
    assert set(np.flatnonzero(u)) == set(grid_2d.control_mask)


def test_make_field_random_is_seeded(grid_2d):
    a = make_field(grid_2d, "random(0.5)", np.random.default_rng(7))
    b = make_field(grid_2d, "random(0.5)", np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_make_field_rejects_garbage(grid_2d):
    with pytest.raises(ConfigError):
        make_field(grid_2d, "vortex(1,2)")
    with pytest.raises(ConfigError):
        make_field(grid_2d, "gaussian(0.5,0.1)")  # missing arguments in 2D
    with pytest.raises(ConfigError):
        make_field(grid_2d, "gaussian(0.5,nan,0.1,1.0)")


@pytest.mark.parametrize("sigma", ["1e200", "1e154", "1e-200", "5e-324"])
def test_make_field_rejects_gaussian_sigma_out_of_range(grid_2d, sigma):
    # 2 sigma^2 overflows or underflows to 0: a configuration error, no
    # traceback and no warning (pytest turns warnings into errors)
    with pytest.raises(ConfigError, match="sigma .* out of range"):
        make_field(grid_2d, f"gaussian(0.5,0.5,{sigma},1.0)")


def test_make_field_tiny_gaussian_sigma_is_a_spike(grid_2d):
    # 2 sigma^2 is a subnormal: exp(-sq / (2 sigma^2)) is 0 off the centre
    # node, without an overflow warning, and the amplitude on it
    u = make_field(grid_2d, "gaussian(0.5,0.5,1e-160,2.0)")
    assert u.max() == 2.0
    assert np.count_nonzero(u) == 1
    wide = make_field(grid_2d, "gaussian(0.5,0.5,1e150,2.0)")
    assert np.all(wide == 2.0)


def test_make_field_far_gaussian_centre_is_zero(grid_2d):
    # (x - 1e300)^2 overflows to inf, and exp(-inf) = 0 is the right value:
    # zeros, without an overflow warning (pytest turns warnings into errors)
    line = hc.build_grid(1, 9, [(0.0, 1.0)], [(0.2, 0.8)])
    assert np.array_equal(make_field(line, "gaussian(1e300,0.15,1.0)"), np.zeros(7))
    assert np.array_equal(make_field(grid_2d, "gaussian(0.5,-1e300,0.15,1.0)"),
                          np.zeros(49))


def test_build_instance_free_evolution(bench_cfg_file):
    cfg = parse_config(bench_cfg_file, {
        "nodes_per_axis": "9,9", "T": "0.5", "dt": "0.1", "N": "5",
        "y_target": "free-evolution-of-y0",
    })
    grid, tg, y0, y_target = hc.build_instance(cfg)
    scratch = hc.MatvecCounter()
    y = hc.solve_state(grid, tg, y0, np.zeros((tg.step_count, grid.control_node_count)),
                       cfg.nu, 1e-12, scratch)
    np.testing.assert_allclose(y_target, y[-1], atol=1e-12)
