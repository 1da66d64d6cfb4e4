"""Run configuration: flat key = value files, overrides, field generators."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import Grid, build_grid
from .linsolve import MatvecCounter
from .propagators import TimeGrid, solve_state


class ConfigError(ValueError):
    pass


MODES = ("baseline", "intermediate-targets", "both")

REQUIRED_KEYS = (
    "dim", "nodes_per_axis", "domain_bounds", "control_bounds",
    "T", "dt", "alpha", "nu", "y0", "y_target", "mode",
)

DEFAULTS = {
    "N": "4",
    "inner_iterations": "1",
    "max_outer": "100",
    "gradient_rtol": "1e-6",
    "worker_count": "1",
    "output": "run.csv",
    "seed": "0",
}

ALL_KEYS = REQUIRED_KEYS + tuple(DEFAULTS)


@dataclass(frozen=True)
class RunConfig:
    dim: int
    nodes_per_axis: tuple[int, ...]
    domain_bounds: tuple[tuple[float, float], ...]
    control_bounds: tuple[tuple[float, float], ...]
    T: float
    dt: float
    alpha: float
    nu: float
    y0: str
    y_target: str
    mode: str
    N: int
    inner_iterations: int
    max_outer: int
    gradient_rtol: float
    worker_count: int
    output: str
    seed: int

    @property
    def step_count(self) -> int:
        steps = self.T / self.dt
        rounded = round(steps) if math.isfinite(steps) else 0
        if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, steps):
            raise ConfigError(f"T/dt = {steps!r} is not a positive integer")
        return int(rounded)

    @property
    def output_paths(self) -> tuple[Path, ...]:
        """The CSV files a run writes: ``output``, or in mode both its siblings
        ``<stem>_baseline<suffix>`` and ``<stem>_intermediate<suffix>``."""
        out = Path(self.output)
        if self.mode != "both":
            return (out,)
        suffix = out.suffix or ".csv"
        return tuple(out.with_name(f"{out.stem}_{run}{suffix}")
                     for run in ("baseline", "intermediate"))


def _check_output(path: Path) -> None:
    """Reject an output file that cannot be written: a directory, or one below
    a path that is not a directory."""
    try:
        if path.is_dir():
            raise ConfigError(f"output {str(path)!r} is a directory")
        nearest = next(a for a in path.parents if a.exists())  # '.' or '/' exist
        if not nearest.is_dir():
            raise ConfigError(f"output {str(path)!r}: {str(nearest)!r} is not a directory")
    except OSError as exc:  # e.g. a parent that may not be searched
        raise ConfigError(f"output {str(path)!r}: {exc.strerror}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _parse_float(text: str, key: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text.strip()!r}")
    return value


def _parse_bounds(text: str, dim: int, key: str) -> tuple[tuple[float, float], ...]:
    vals = [_parse_float(tok, key) for tok in text.split(",")]
    if len(vals) != 2 * dim:
        raise ConfigError(f"{key} must list {2 * dim} numbers for dim={dim}")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(dim))


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key = value text with # comments."""
    raw: dict[str, str] = {}
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    return raw


def parse_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge file values and overrides (overrides win), validate everything."""
    raw = dict(DEFAULTS)
    file_values = read_config_file(path) if path is not None else {}
    for source in (file_values, overrides or {}):
        for key, value in source.items():
            if key not in ALL_KEYS:
                raise ConfigError(f"unknown configuration key: {key!r}")
            raw[key] = value

    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    try:
        dim = int(raw["dim"])
        cfg = RunConfig(
            dim=dim,
            nodes_per_axis=_parse_ints(raw["nodes_per_axis"]),
            domain_bounds=_parse_bounds(raw["domain_bounds"], dim, "domain_bounds"),
            control_bounds=_parse_bounds(raw["control_bounds"], dim, "control_bounds"),
            T=_parse_float(raw["T"], "T"),
            dt=_parse_float(raw["dt"], "dt"),
            alpha=_parse_float(raw["alpha"], "alpha"),
            nu=_parse_float(raw["nu"], "nu"),
            y0=raw["y0"],
            y_target=raw["y_target"],
            mode=raw["mode"],
            N=int(raw["N"]),
            inner_iterations=int(raw["inner_iterations"]),
            max_outer=int(raw["max_outer"]),
            gradient_rtol=_parse_float(raw["gradient_rtol"], "gradient_rtol"),
            worker_count=int(raw["worker_count"]),
            output=raw["output"],
            seed=int(raw["seed"]),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    for name in ("T", "dt", "alpha", "nu"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if cfg.N < 1 or cfg.inner_iterations < 1 or cfg.max_outer < 1 or cfg.worker_count < 1:
        raise ConfigError("N, inner_iterations, max_outer, worker_count must be >= 1")
    if cfg.gradient_rtol <= 0:
        raise ConfigError("gradient_rtol must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.N > cfg.step_count:  # step_count also validates T/dt
        raise ConfigError(f"N = {cfg.N} exceeds the {cfg.step_count} time steps")
    # checked before the solve, not after it
    _check_output(Path(cfg.output))
    for path in cfg.output_paths:
        _check_output(path)
    return cfg


_CALL_RE = re.compile(r"^([a-zA-Z-]+)\((.*)\)$")


def make_field(grid: Grid, spec: str, rng: np.random.Generator | None = None) -> np.ndarray:
    """Build a spatial field from a named generator spec.

    Supported: ``zero``, ``gaussian(cx[,cy],sigma,amplitude)``,
    ``indicator(lo1,hi1[,lo2,hi2])``, ``random(scale)``.
    """
    spec = spec.strip()
    if spec == "zero":
        return grid.zero_field()
    match = _CALL_RE.match(spec)
    if not match:
        raise ConfigError(f"unrecognized field spec: {spec!r}")
    name, arg_text = match.group(1), match.group(2)
    try:
        args = [_parse_float(tok, spec) for tok in arg_text.split(",")] if arg_text.strip() else []
    except ValueError as exc:
        raise ConfigError(f"bad arguments in field spec {spec!r}") from exc

    coords = grid.interior_coordinates()
    if name == "gaussian":
        if len(args) != grid.dim + 2:
            raise ConfigError(
                f"gaussian needs {grid.dim + 2} arguments (centers, sigma, amplitude)"
            )
        centers, sigma, amplitude = args[: grid.dim], args[-2], args[-1]
        if sigma <= 0:
            raise ConfigError("gaussian sigma must be positive")
        sq = 0.0
        for ax, (x, c) in enumerate(zip(coords, centers)):
            shaped = [1] * grid.dim
            shaped[ax] = -1
            sq = sq + ((x - c) ** 2).reshape(shaped)
        return (amplitude * np.exp(-sq / (2.0 * sigma**2))).ravel()
    if name == "indicator":
        if len(args) != 2 * grid.dim:
            raise ConfigError(f"indicator needs {2 * grid.dim} bound arguments")
        inside = np.ones(grid.interior_shape, dtype=bool)
        for ax, x in enumerate(coords):
            lo, hi = args[2 * ax], args[2 * ax + 1]
            shaped = [1] * grid.dim
            shaped[ax] = -1
            inside &= ((x >= lo) & (x <= hi)).reshape(shaped)
        return inside.ravel().astype(float)
    if name == "random":
        if len(args) != 1:
            raise ConfigError("random needs a single scale argument")
        if rng is None:
            rng = np.random.default_rng(0)
        return args[0] * rng.standard_normal(grid.interior_node_count)
    raise ConfigError(f"unrecognized field generator: {name!r}")


def build_instance(cfg: RunConfig):
    """Realize the grid, time grid, and initial/target fields of a config."""
    try:
        grid = build_grid(cfg.dim, cfg.nodes_per_axis, cfg.domain_bounds, cfg.control_bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    time_grid = TimeGrid(0.0, cfg.T, cfg.step_count)
    rng = np.random.default_rng(cfg.seed)
    y0 = make_field(grid, cfg.y0, rng)
    if cfg.y_target.strip() == "free-evolution-of-y0":
        # setup solve, not part of any benchmark tally
        scratch = MatvecCounter()
        n_ctrl = grid.control_node_count
        zero_v = np.zeros((time_grid.step_count, n_ctrl))
        y_target = solve_state(grid, time_grid, y0, zero_v, cfg.nu, 1e-12, scratch, keep=-1)
    else:
        y_target = make_field(grid, cfg.y_target, rng)
    return grid, time_grid, y0, y_target
