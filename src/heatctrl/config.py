"""Run configuration: flat key = value files, overrides, field generators.

``KEYS`` declares each key once, in parse order: its command-line flag, its
parser of (text, key, dim) with the key's own range check, and its default
text (None if the key is required).  ``RunConfig`` has one field per key."""

from __future__ import annotations

import math
import os
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
    def intervals(self) -> int:
        """The most sub-intervals a run of this config uses: N, or 1 in mode
        baseline, which runs one interval whatever N says."""
        return 1 if self.mode == "baseline" else self.N

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


def _check_spacing(cfg: RunConfig) -> None:
    """Reject a grid spacing h whose h^2 or 1/h^2 is not a finite, non-zero
    number: the stencil divides by h^2, and the step operator's diagonal
    holds 1/h^2.  Node counts and bounds that ``build_grid`` rejects are
    left to it."""
    nodes = cfg.nodes_per_axis * (cfg.dim if len(cfg.nodes_per_axis) == 1 else 1)
    for axis, (n, (lo, hi)) in enumerate(zip(nodes, cfg.domain_bounds), start=1):
        if n < 3 or not lo < hi:
            continue
        h = (hi - lo) / (n - 1)  # as build_grid computes it; inf if hi - lo overflows
        square = h * h  # a Python float: inf on overflow, 0.0 on underflow
        if not (0.0 < square < math.inf and 1.0 / square < math.inf):
            raise ConfigError(f"domain_bounds give axis {axis} a spacing h = {h!r} with "
                              f"{n} nodes, whose h^2 = {square!r} is out of range: h^2 "
                              f"and 1/h^2 must be finite and non-zero")


def _check_storage(cfg: RunConfig) -> None:
    """Reject a run whose float storage exceeds the machine's physical memory.

    The estimate is 8 bytes x (6 (steps+1) n + 4 (N+1) n), with n the
    interior node count standing in for the control node count and N the
    ``intervals``.  It bounds from above what a run holds, the controls, the
    gradient, the adjoint's control patch at every step and a few fields,
    with a margin for the arrays the solves make.
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: nothing to measure
        return
    nodes = cfg.nodes_per_axis * (cfg.dim if len(cfg.nodes_per_axis) == 1 else 1)
    n = math.prod(max(k - 2, 1) for k in nodes)
    steps = cfg.step_count
    # in floats: an estimate past the float range is inf, which still exceeds memory
    estimate = 8.0 * (6.0 * (steps + 1) * n + 4.0 * (cfg.intervals + 1) * n)
    if estimate > physical:
        raise ConfigError(f"{steps:.3g} time steps on {n} interior nodes need about "
                          f"{estimate / 2**30:.3g} GiB of float storage, more than the "
                          f"{physical / 2**30:.3g} GiB of physical memory")


def _convert(kind, text: str, key: str, rule: str):
    """``kind(text)``, or a ConfigError that names the key and the text."""
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be {rule}, got {text.strip()!r}") from None


def _parse_ints(text: str, key: str, dim: int) -> tuple[int, ...]:
    return _convert(lambda t: tuple(int(tok) for tok in t.split(",")), text, key,
                    "integers separated by commas")


def _parse_float(text: str, key: str) -> float:
    value = _convert(float, text, key, "a number")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text.strip()!r}")
    return value


def _parse_bounds(text: str, key: str, dim: int) -> tuple[tuple[float, float], ...]:
    vals = _convert(lambda t: [float(tok) for tok in t.split(",")], text, key,
                    "numbers separated by commas")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{key} must be finite, got {text.strip()!r}")
    if len(vals) != 2 * dim:
        raise ConfigError(f"{key} must list {2 * dim} numbers for dim={dim}")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(dim))


def _parser(kind: type, ok=None, rule: str = ""):
    """A parser of one int, finite float or str whose value must pass ``ok``."""
    def parse(text: str, key: str, dim: int | None):
        value = (_parse_float(text, key) if kind is float
                 else _convert(kind, text, key, "an integer"))
        if ok is not None and not ok(value):
            raise ConfigError(f"{key} must be {rule}, got {value!r}")
        return value
    return parse


_TEXT = _parser(str)
_POSITIVE = _parser(float, lambda x: x > 0, "positive")
_COUNT = _parser(int, lambda n: n >= 1, ">= 1")
_CALL_RE = re.compile(r"^([a-zA-Z-]+)\((.*)\)$")


def _field_signatures(dim: int) -> dict[str, str]:
    """The arguments of each field generator on a grid of dimension dim."""
    centre = "cx" if dim == 1 else "cx,cy"
    bounds = "lo,hi" if dim == 1 else "lo1,hi1,lo2,hi2"
    return {"gaussian": f"{centre},sigma,amplitude", "indicator": bounds, "random": "scale"}


def _field_call(text: str, key: str, dim: int, extra: tuple[str, ...] = ()):
    """(name, arguments) of a field spec: ``zero`` or a word of ``extra``
    with no arguments, or a generator call with its dim's argument count of
    finite numbers.  Otherwise a ConfigError that names the key and the text."""
    spec = text.strip()
    if spec in ("zero",) + extra:
        return spec, []
    signatures = _field_signatures(dim)
    match = _CALL_RE.match(spec)
    if not match or match.group(1) not in signatures:
        forms = ", ".join(["zero", *extra, *(f"{n}({a})" for n, a in signatures.items())])
        raise ConfigError(f"{key} must be one of {forms}, got {spec!r}")
    name, tokens = match.group(1), match.group(2).split(",")
    call = f"{name}({signatures[name]})"
    if len(tokens) != len(signatures[name].split(",")):
        raise ConfigError(f"{key} must be {call} for dim={dim}, got {spec!r}")
    try:
        args = [float(tok) for tok in tokens]
    except ValueError:
        args = None
    if args is None or not all(map(math.isfinite, args)):
        raise ConfigError(f"{key} must be {call} with finite numbers, got {spec!r}")
    return name, args


def _field_parser(*extra: str):
    """A parser of a field spec, which also accepts the words ``extra``."""
    def parse(text: str, key: str, dim: int) -> str:
        _field_call(text, key, dim, extra)
        return text
    return parse


# dim comes first, before the bounds whose length depends on it
KEYS = {
    "dim": ("--dim", _parser(int, lambda d: d in (1, 2), "1 or 2"), None),
    "nodes_per_axis": ("--nodes-per-axis", _parse_ints, None),
    "domain_bounds": ("--domain-bounds", _parse_bounds, None),
    "control_bounds": ("--control-bounds", _parse_bounds, None),
    "T": ("--T", _POSITIVE, None),
    "dt": ("--dt", _POSITIVE, None),
    "alpha": ("--alpha", _POSITIVE, None),
    "nu": ("--nu", _POSITIVE, None),
    "y0": ("--y0", _field_parser(), None),
    "y_target": ("--y-target", _field_parser("free-evolution-of-y0"), None),
    "mode": ("--mode", _parser(str, lambda m: m in MODES, f"one of {MODES}"), None),
    "N": ("--N", _COUNT, "4"),
    "inner_iterations": ("--inner-iters", _COUNT, "1"),
    "max_outer": ("--max-outer", _COUNT, "100"),
    "gradient_rtol": ("--rtol", _POSITIVE, "1e-6"),
    "worker_count": ("--workers", _COUNT, "1"),
    "output": ("--out", _TEXT, "run.csv"),
    "seed": ("--seed", _parser(int, lambda s: s >= 0, ">= 0"), "0"),
}


def read_config_file(path: str | Path) -> dict[str, str]:
    """Flat key = value text with # comments; a key may be given once."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading BOM is not part of a key
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {lines[key]}")
        raw[key], lines[key] = value, lineno
    return raw


def parse_config(path: str | Path | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Merge defaults, file values and overrides (overrides win); parse each key."""
    raw = {key: default for key, (_, _, default) in KEYS.items() if default is not None}
    file_values = read_config_file(path) if path is not None else {}
    for source in (file_values, overrides or {}):
        for key, value in source.items():
            if key not in KEYS:
                raise ConfigError(f"unknown configuration key: {key!r}")
            raw[key] = value

    missing = [k for k in KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    values = {}
    for key, (_, parse, _) in KEYS.items():  # each parser raises a ConfigError naming its key
        values[key] = parse(raw[key], key, values.get("dim"))
    cfg = RunConfig(**values)

    if cfg.intervals > cfg.step_count:  # step_count also validates T/dt
        raise ConfigError(f"N = {cfg.N} exceeds the {cfg.step_count} time steps")
    _check_spacing(cfg)
    _check_storage(cfg)
    # checked before the solve, not after it; output first, as it names mode both's files
    _check_output(Path(cfg.output))
    for path in cfg.output_paths:
        _check_output(path)
    return cfg


def make_field(grid: Grid, spec: str, rng: np.random.Generator | None = None) -> np.ndarray:
    """Build a spatial field from a named generator spec.

    Supported: ``zero``, ``gaussian(cx[,cy],sigma,amplitude)``,
    ``indicator(lo1,hi1[,lo2,hi2])``, ``random(scale)``.
    """
    name, args = _field_call(spec, "a field spec", grid.dim)
    if name == "zero":
        return grid.zero_field()
    coords = grid.interior_coordinates()
    if name == "gaussian":
        centers, sigma, amplitude = args[: grid.dim], args[-2], args[-1]
        if sigma <= 0:
            raise ConfigError("gaussian sigma must be positive")
        try:
            width = 2.0 * sigma**2
        except OverflowError:
            width = math.inf
        if not 0.0 < width < math.inf:
            raise ConfigError(f"gaussian sigma = {sigma!r} is out of range: "
                              f"2 sigma^2 = {width!r}")
        # a far-off centre makes sq infinite and a tiny width sends -sq /
        # width to -inf away from the centre; exp gives the right value, 0
        with np.errstate(over="ignore"):
            sq = 0.0
            for ax, (x, c) in enumerate(zip(coords, centers)):
                shaped = [1] * grid.dim
                shaped[ax] = -1
                sq = sq + ((x - c) ** 2).reshape(shaped)
            return (amplitude * np.exp(-sq / width)).ravel()
    if name == "indicator":
        inside = np.ones(grid.interior_shape, dtype=bool)
        for ax, x in enumerate(coords):
            lo, hi = args[2 * ax], args[2 * ax + 1]
            shaped = [1] * grid.dim
            shaped[ax] = -1
            inside &= ((x >= lo) & (x <= hi)).reshape(shaped)
        return inside.ravel().astype(float)
    if rng is None:  # random(scale)
        rng = np.random.default_rng(0)
    return args[0] * rng.standard_normal(grid.interior_node_count)


def _make_key_field(grid: Grid, key: str, spec: str, rng: np.random.Generator) -> np.ndarray:
    """``make_field`` for a key, whose errors name the key; also rejects a
    field whose squared norm is not finite: every solve and the cost take it."""
    try:
        field = make_field(grid, spec, rng)
    except ConfigError as exc:
        raise ConfigError(f"{key} = {spec.strip()!r}: {exc}") from None
    with np.errstate(over="ignore"):
        square = np.vecdot(field, field)
    if not np.isfinite(square):
        raise ConfigError(f"{key} = {spec.strip()!r}: the squared norm of the field "
                          f"is {float(square)!r}")
    return field


def build_instance(cfg: RunConfig):
    """Realize the grid, time grid, and initial/target fields of a config.

    Rejects a field whose squared norm overflows, before any solve."""
    try:
        grid = build_grid(cfg.dim, cfg.nodes_per_axis, cfg.domain_bounds, cfg.control_bounds)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    steps = cfg.step_count
    # T / steps, not cfg.dt: step_count lets T / dt miss an integer by 1e-9
    time_grid = TimeGrid(steps, cfg.T / steps)
    rng = np.random.default_rng(cfg.seed)
    y0 = _make_key_field(grid, "y0", cfg.y0, rng)
    if cfg.y_target.strip() == "free-evolution-of-y0":
        # setup solve, not part of any benchmark tally
        scratch = MatvecCounter()
        n_ctrl = grid.control_node_count
        zero_v = np.zeros((time_grid.step_count, n_ctrl))
        y_target = solve_state(grid, time_grid, y0, zero_v, cfg.nu, 1e-12, scratch, keep=-1)
    else:
        y_target = _make_key_field(grid, "y_target", cfg.y_target, rng)
    return grid, time_grid, y0, y_target
