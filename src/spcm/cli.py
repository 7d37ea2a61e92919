"""Command-line front end: ingestion, generation, runs, and serialization.

Subcommands
-----------
run             cluster a CSV dataset (sparse, non-sparse, or FCM-only) and
                write memberships, a summary, and optional trace/plot tables
generate        synthesise Gaussian blobs plus uniform background noise,
                with a ground-truth labels file
validate-params initialise on a dataset and print every K bound check

Each option of every subcommand is declared once.  ``_RUN_OPTIONS`` makes
the flags of ``run`` and ``validate-params`` and parses them, and the
config-file keys of ``run`` (flags win); the solver settings among them go
straight into a :class:`~spcm.driver.SolverConfig`, which supplies their
defaults and rejects bad values.  ``generate`` passes only the flags given
to :class:`BlobSpec` and :func:`generate_blobs`, which supply the rest.
``_reject_unread`` fails every option that its command would not read.
One function builds each summary section, one writer writes every CSV file
and ``_EXIT_CODES`` maps each error to its exit code.

Exit codes: 0 success (including warnings), 2 configuration error,
3 runtime violation, 4 I/O failure.  All numeric output uses shortest
round-trip decimal formatting, so identical config and seed reproduce
identical bytes on a given platform.
"""

from __future__ import annotations

import argparse
import csv
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .core import DataSet
from .driver import ActiveSetEmptyError, RunResult, SolverConfig, run, run_pcm2
from .initialization import DegenerateDataError, FcmConfig, InitReport, fcm_start, initialize
from .monitor import FixedPointReport, check_fixed_point

__all__ = [
    "ConfigError",
    "InputError",
    "BlobSpec",
    "ingest_csv",
    "emit_csv",
    "generate_blobs",
    "default_centers",
    "main",
]

_ALGORITHMS = ("spcm", "pcm2", "fcm")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4


class ConfigError(ValueError):
    """Configuration rejected at parse time."""


class InputError(ValueError):
    """Input file missing, malformed, or empty."""


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; empty for None; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return "" if x is None else str(x)


def _vector(v) -> str:
    return "[" + ", ".join(_fmt(float(c)) for c in np.asarray(v).ravel()) + "]"


def ingest_csv(path: str | Path) -> DataSet:
    """Read a CSV of decimal rows into a dataset.

    A single leading header row is skipped when any of its cells is not a
    number.  Ragged rows and non-finite values are rejected with their
    row/column coordinates.
    """
    path = Path(path)
    if not path.exists():
        raise InputError(f"input file not found: {path}")
    rows: list[list[float]] = []
    width = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, cells in enumerate(reader):
            if not cells or all(not c.strip() for c in cells):
                continue
            parsed = []
            numeric = True
            for col, cell in enumerate(cells):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    numeric = False
                    break
            if not numeric:
                if lineno == 0 and not rows:
                    continue  # header row
                raise InputError(f"row {lineno}: cell {col} ({cells[col]!r}) is not a number")
            if width is None:
                width = len(parsed)
            elif len(parsed) != width:
                raise InputError(f"row {lineno}: expected {width} columns, got {len(parsed)}")
            for col, value in enumerate(parsed):
                if not math.isfinite(value):
                    raise InputError(f"row {lineno}: cell {col} is not finite ({value})")
            rows.append(parsed)
    if not rows:
        raise InputError(f"no data rows in {path}")
    return DataSet(np.array(rows, dtype=np.float64))


def _write_rows(path: str | Path, rows: Iterable[Iterable[str]], header: list[str] | None = None) -> None:
    """Write rows of formatted cells as CSV lines, after an optional header."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def emit_csv(path: str | Path, array: np.ndarray, header: list[str] | None = None) -> None:
    """Write an array as CSV with full-precision decimals, every cell as a
    float (an integer or boolean array prints ``1.0``)."""
    rows = np.atleast_2d(np.asarray(array, dtype=np.float64)).tolist()
    _write_rows(path, (map(repr, row) for row in rows), header)


def default_centers(n_blobs: int) -> np.ndarray:
    """Vertices of a regular polygon with unit side length (a unit segment
    for two blobs, a unit-side triangle for three, ...)."""
    if n_blobs < 1:
        raise ValueError(f"need at least one blob, got {n_blobs}")
    if n_blobs == 1:
        return np.zeros((1, 2))
    circumradius = 1.0 / (2.0 * math.sin(math.pi / n_blobs))
    angles = 2.0 * math.pi * np.arange(n_blobs) / n_blobs
    return circumradius * np.column_stack([np.cos(angles), np.sin(angles)])


@dataclass(frozen=True)
class BlobSpec:
    """Synthetic benchmark: isotropic Gaussian blobs plus uniform noise."""

    centers: np.ndarray
    points_per_blob: int = 50
    sigma: float = 0.1
    noise_fraction: float = 0.1

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        if centers.shape[0] < 1:
            raise ValueError("need at least one blob")
        if not np.isfinite(centers).all():
            raise ValueError(f"centers must be finite, got {centers.tolist()}")
        if not isinstance(self.points_per_blob, numbers.Integral):
            raise ValueError(f"points_per_blob must be an integer, got {self.points_per_blob}")
        if self.points_per_blob < 1:
            raise ValueError(f"points_per_blob must be >= 1, got {self.points_per_blob}")
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError(f"noise_fraction must lie in [0, 1), got {self.noise_fraction}")
        object.__setattr__(self, "centers", centers)


def generate_blobs(spec: BlobSpec, seed: int = 0) -> tuple[DataSet, np.ndarray]:
    """Deterministic blobs + background noise; noise points carry label -1.

    The noise count is ``round(noise_fraction * total blob points)``, drawn
    uniformly over the blob bounding box inflated by half its span per side;
    a blob point or a box width that overflows raises ``ValueError``.
    """
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for b, center in enumerate(spec.centers):
        with np.errstate(over="ignore", invalid="ignore"):
            pts = center[None, :] + spec.sigma * rng.standard_normal((spec.points_per_blob, spec.centers.shape[1]))
        if not np.isfinite(pts).all():
            raise ValueError(
                f"blob {b} has a non-finite point: sigma {spec.sigma} overflows around {center.tolist()}"
            )
        chunks.append(pts)
        labels.append(np.full(spec.points_per_blob, b))
    blob_points = np.vstack(chunks)
    n_noise = int(round(spec.noise_fraction * blob_points.shape[0]))
    if n_noise:
        lo, hi = blob_points.min(axis=0), blob_points.max(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            span = hi - lo
            low, high = lo - 0.5 * span, hi + 0.5 * span
            finite = np.isfinite(high - low).all()
        if not finite:
            raise ValueError(f"noise box [{low.tolist()}, {high.tolist()}] is not finite")
        noise = rng.uniform(low, high, size=(n_noise, blob_points.shape[1]))
        chunks.append(noise)
        labels.append(np.full(n_noise, -1))
    return DataSet(np.vstack(chunks)), np.concatenate(labels)


def _header_section(algorithm: str, X: DataSet, m: int, seed: int, result: RunResult | None = None) -> list[str]:
    """The run's header; a clustering run adds its retained clusters,
    termination and iteration count before the seed."""
    lines = [f"algorithm: {algorithm}", f"points: {X.n_points}", f"dimensions: {X.n_dims}", f"clusters-requested: {m}"]
    if result is not None:
        lines += [
            f"clusters-retained: {len(result.dedup.kept)}",
            f"termination: {result.termination}",
            f"iterations: {result.n_iterations}",
        ]
    return lines + [f"seed: {seed}"]


def _parameter_section(gammas: np.ndarray, report: InitReport | None = None) -> list[str]:
    """p, K and lambda of a sparse start (an FCM run has none), then gamma."""
    lines = [] if report is None else [f"p: {_fmt(report.p)}", f"K: {_fmt(report.K)}", f"lambda: {_fmt(report.lam)}"]
    return lines + [f"gamma: {_vector(gammas)}"]


def _theta_section(theta: np.ndarray) -> list[str]:
    return ["theta:"] + [f"  {j}: {_vector(row)}" for j, row in enumerate(theta)]


def _bounds_section(report: InitReport) -> list[str]:
    lines = [
        "bounds:",
        f"  radius-bound p*e^(2*(1-p)): {_fmt(report.radius_bound)}  K-ok: {report.radius_bound_ok}",
        f"  activation-bound p*e^((2-mu_max)*(1-p)): {_fmt(report.activation_bound)}"
        f"  K-ok: {report.activation_bound_ok}",
        f"  per-cluster-activation-ok: {report.per_cluster_bounds_ok}",
        f"  mu: {_vector(report.mu)}",
        f"  mu-max: {_fmt(report.mu_max)}",
    ]
    if report.uniqueness_range is not None:
        lo, hi = report.uniqueness_range
        lines.append(
            f"  uniqueness-range: [{_fmt(lo)}, {_fmt(hi)}]  K-in-range: {report.K_in_uniqueness_range}"
        )
    else:
        lines.append("  uniqueness-range: not-applicable")
    return lines


def _fixed_point_section(fp: FixedPointReport) -> list[str]:
    return [
        "fixed-point:",
        f"  gradient-residual: {_fmt(fp.grad_norm)}",
        f"  gradient-ok: {fp.grad_ok}",
        f"  hessian-positive-definite: {fp.hessian_ok}",
        f"  pd-margin: {_vector(fp.per_cluster_pd_margin)}",
        f"  valley-samples-positive: {fp.valley_ok}",
        f"  valley-sample-counts: {_vector(fp.per_cluster_valley_samples)}",
        f"  epsilon-bound: {_fmt(fp.epsilon_bound)}",
        f"  geometric-condition-ok: {fp.geometric_ok}",
        f"  active-counts: {_vector(fp.active_counts)}",
    ]


def _warnings_section(warnings: tuple[str, ...]) -> list[str]:
    if not warnings:
        return ["warnings: none"]
    return ["warnings:"] + [f"  - {w}" for w in warnings]


def _summary_lines(
    algorithm: str, m: int, config: SolverConfig, X: DataSet, result: RunResult, fp: FixedPointReport
) -> list[str]:
    report = result.init_report
    mapping = ", ".join(f"{j}->{r}" for j, r in sorted(result.dedup.mapping.items()))
    return [
        *_header_section(algorithm, X, m, config.fcm.seed, result),
        *_parameter_section(report.gammas, report),
        *_theta_section(result.state.representatives),
        *_bounds_section(report),
        *_fixed_point_section(fp),
        "dedup:",
        f"  threshold: {_fmt(result.dedup.threshold)}",
        f"  mapping: {mapping}",
        *_warnings_section(report.warnings),
    ]


def _write_run(out_dir: Path, memberships: np.ndarray, summary: list[str]) -> None:
    """The files every run writes: memberships.csv and summary.txt."""
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(out_dir / "memberships.csv", memberships)
    (out_dir / "summary.txt").write_text("\n".join(summary) + "\n")


def _write_trace(path: Path, result: RunResult) -> None:
    m = result.state.n_clusters
    header = (
        ["t", "J", "J_after_u", "J_before"]
        + [f"delta_theta_{j}" for j in range(m)]
        + [f"active_{j}" for j in range(m)]
        + ["u_step_decreased", "theta_step_decreased", "u_bounds_ok"]
    )
    rows = (
        map(_fmt, (
            rec.t, rec.cost, rec.cost_after_u, rec.cost_before, *rec.delta_theta, *rec.active_counts,
            rec.u_step_decreased, rec.theta_step_decreased, rec.u_bounds_ok,
        ))
        for rec in result.trace
    )
    _write_rows(path, rows, header)


def _write_plot_data(out_dir: Path, result: RunResult) -> None:
    costs = ([_fmt(rec.t), _fmt(rec.cost)] for rec in result.trace)
    _write_rows(out_dir / "cost_vs_iteration.csv", costs, ["t", "J"])
    dims = min(2, result.state.n_dims)
    rows = (
        [_fmt(rec.t), _fmt(j), *(_fmt(row[q]) for q in range(dims))]
        for rec in result.trace
        for j, row in enumerate(rec.theta)
    )
    _write_rows(out_dir / "theta_trajectory.csv", rows, ["t", "cluster"] + [f"c{q}" for q in range(dims)])


def _switch(raw: str) -> bool:
    return raw.lower() in ("1", "true", "yes")


def _dedup(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


# Every run option: config key -> (parser, SolverConfig field, help).  Its
# flag is the key with "_" written "-"; "seed" is the FCM block's field, and
# None marks an option of the CLI alone.  validate-params takes the
# _VALIDATE_OPTIONS among them, as flags only.
_RUN_OPTIONS: dict[str, tuple[Callable[[str], object], str | None, str | None]] = {
    "input": (str, None, "input CSV path"),
    "out_dir": (str, None, "output directory (default .)"),
    "algorithm": (str, None, f"one of {', '.join(_ALGORITHMS)} (default spcm)"),
    "clusters": (int, None, None),
    "p": (float, "p", None),
    "K": (float, "K", None),
    "theta_tol": (float, "theta_tol", None),
    "max_iters": (int, "max_iters", None),
    "dedup": (_dedup, "dedup_threshold", "'auto' or a merge distance"),
    "seed": (int, "seed", None),
    "trace": (_switch, None, "write trace.csv"),
    "plot_data": (_switch, None, "write cost/trajectory tables for external plotting"),
}
_VALIDATE_OPTIONS = ("input", "clusters", "p", "K", "seed")
# The run options each algorithm would leave unread: FCM reads only the
# seed, and pcm2 starts from K = 0.
_UNREAD = {"fcm": ("p", "K", "theta_tol", "max_iters", "dedup", "trace", "plot_data"), "pcm2": ("K",)}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _given(args: argparse.Namespace, keys: Iterable[str]) -> dict:
    """The values of the flags among ``keys`` that the command line gave."""
    return {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}


def _read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno + 1}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _RUN_OPTIONS:
            raise ConfigError(f"unknown config key {key!r}")
        entries[key] = value.strip()
    return entries


def _reject_unread(flags: Iterable[str], because: str) -> None:
    """A ConfigError naming the given options that ``because`` leaves unread."""
    flags = [_flag(key) for key in flags]
    if flags:
        raise ConfigError(f"{' and '.join(flags)} would be ignored with {because}")


def _run_options(args: argparse.Namespace) -> dict:
    """Parsed run options, flags over config-file keys (a switch flag can
    only switch on), with the CLI's own checks applied."""
    config_file = getattr(args, "config", None)
    raw = _read_config_file(config_file) if config_file else {}
    raw.update(_given(args, _RUN_OPTIONS))
    options = {}
    for key, text in raw.items():
        try:
            options[key] = _RUN_OPTIONS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{_flag(key)}: cannot parse {text!r}") from exc
    where = " (as a flag or in the config file)" if "config" in args else ""
    for key in ("input", "clusters"):
        if key not in options:
            raise ConfigError(f"{_flag(key)} is required{where}")
    algorithm = options.setdefault("algorithm", "spcm")
    if algorithm not in _ALGORITHMS:
        raise ConfigError(f"--algorithm: unknown algorithm {algorithm!r}; choose one of {_ALGORITHMS}")
    if options["clusters"] < 1:
        raise ConfigError(f"--clusters must be >= 1, got {options['clusters']}")
    return options


def _solver_config(options: dict) -> SolverConfig:
    """The SolverConfig of the given options; a rejected value becomes a
    ConfigError that names its flag."""
    settings = {field: options[key] for key, (_, field, _) in _RUN_OPTIONS.items() if field and key in options}
    try:
        fcm = FcmConfig(seed=settings.pop("seed")) if "seed" in settings else FcmConfig()
        return SolverConfig(fcm=fcm, **settings)
    except ValueError as exc:
        # SolverConfig's messages start with the name of the field they reject
        name = str(exc).split(" ", 1)[0]
        flag = next((_flag(key) for key, (_, field, _) in _RUN_OPTIONS.items() if field == name), None)
        raise ConfigError(f"{flag}: {exc}" if flag else str(exc)) from exc


def run_command(args: argparse.Namespace) -> int:
    """Execute one configured run and write its artifacts.

    Returns the process exit code; error paths print to stderr.
    """
    options = _run_options(args)
    config = _solver_config(options)
    algorithm, m = options["algorithm"], options["clusters"]
    # a switch is given only when it is on
    given = [
        key for key in _UNREAD.get(algorithm, ())
        if key in options and (options[key] or _RUN_OPTIONS[key][0] is not _switch)
    ]
    _reject_unread(given, f"--algorithm {algorithm}")
    X = ingest_csv(options["input"])
    out_dir = Path(options.get("out_dir", "."))

    if algorithm == "fcm":
        theta, u, gammas, _ = fcm_start(X, m, config.fcm)
        header = _header_section(algorithm, X, m, config.fcm.seed)
        _write_run(out_dir, u, [*header, *_parameter_section(gammas), *_theta_section(theta)])
        return EXIT_OK
    if algorithm == "spcm":
        result = run(X, m, config)
    else:
        result = run_pcm2(X, m, config)

    fp = check_fixed_point(X, result.state, result.membership)
    _write_run(out_dir, result.dedup.membership, _summary_lines(algorithm, m, config, X, result, fp))
    if options.get("trace"):
        _write_trace(out_dir / "trace.csv", result)
    if options.get("plot_data"):
        _write_plot_data(out_dir, result)
    if result.termination == "iteration-cap":
        print(
            f"warning: iteration cap ({config.max_iters}) reached before the "
            f"representative displacement dropped below {config.theta_tol}",
            file=sys.stderr,
        )
    return EXIT_OK


def _add_option_flags(parser: argparse.ArgumentParser, keys: Iterable[str]) -> None:
    for key in keys:
        parse, _, help_text = _RUN_OPTIONS[key]
        switch = {"action": "store_const", "const": "true"} if parse is _switch else {}
        parser.add_argument(_flag(key), dest=key, help=help_text, **switch)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.centers:
        _reject_unread(_given(args, ("blobs",)), "--centers")
        try:
            centers = np.array(
                [[float(c) for c in pt.split(":")] for pt in args.centers.split(";")]
            )
        except ValueError as exc:
            raise ConfigError(f"cannot parse --centers {args.centers!r}") from exc
    else:
        centers = default_centers(3 if args.blobs is None else args.blobs)
    spec = BlobSpec(centers=centers, **_given(args, ("points_per_blob", "sigma", "noise_fraction")))
    X, labels = generate_blobs(spec, **_given(args, ("seed",)))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emit_csv(out, X.points)
    labels_path = out.with_suffix(out.suffix + ".labels.csv") if out.suffix != ".csv" else out.with_name(out.stem + ".labels.csv")
    _write_rows(labels_path, ([str(int(lab))] for lab in labels))
    print(f"wrote {X.n_points} points to {out} (labels: {labels_path})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    options = _run_options(args)
    config = _solver_config(options)
    m = options["clusters"]
    X = ingest_csv(options["input"])
    report = initialize(X, m, p=config.p, K=config.K, fcm=config.fcm)
    lines = [
        f"clusters: {m}",
        *_parameter_section(report.gammas, report),
        *_bounds_section(report),
        *_warnings_section(report.warnings),
    ]
    print("\n".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spcm", description="Sparse possibilistic c-means clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="cluster a CSV dataset")
    p_run.add_argument("--config", help="flat key=value config file; flags override it")
    _add_option_flags(p_run, _RUN_OPTIONS)
    p_run.set_defaults(func=run_command)

    p_gen = sub.add_parser("generate", help="generate a synthetic blob benchmark")
    # BlobSpec and generate_blobs supply the defaults of the flags left out
    p_gen.add_argument("--blobs", type=int)  # 3 unless --centers sets the count
    p_gen.add_argument("--points-per-blob", dest="points_per_blob", type=int)
    p_gen.add_argument("--sigma", type=float)
    p_gen.add_argument("--noise", dest="noise_fraction", metavar="NOISE", type=float)
    p_gen.add_argument("--centers", help="semicolon-separated x:y pairs")
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_val = sub.add_parser("validate-params", help="check K bounds on a dataset")
    _add_option_flags(p_val, _VALIDATE_OPTIONS)
    p_val.set_defaults(func=_cmd_validate)
    return parser


# The exit code of each error main reports.  The first type that matches
# wins, so the subclasses of ValueError that are not configuration errors
# (ConfigError is one) come before it.
_EXIT_CODES = {
    InputError: EXIT_IO,
    ActiveSetEmptyError: EXIT_RUNTIME,
    DegenerateDataError: EXIT_RUNTIME,
    ValueError: EXIT_CONFIG,
    OSError: EXIT_IO,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
