"""Command-line front end: ingestion, generation, runs, and serialization.

Subcommands
-----------
run             cluster a CSV dataset (sparse, non-sparse, or FCM-only) and
                write memberships, a summary, and optional trace/plot tables
generate        synthesise Gaussian blobs plus uniform background noise,
                with a ground-truth labels file
validate-params initialise on a dataset and print every K bound check

Each ``run`` option is listed once, in ``_RUN_OPTIONS``.  That table makes
the flags and parses the config-file keys (flags win); the solver settings
among them go straight into a :class:`~spcm.driver.SolverConfig`, which
supplies their defaults and rejects bad values.

Exit codes: 0 success (including warnings), 2 configuration error,
3 runtime violation, 4 I/O failure.  All numeric output uses shortest
round-trip decimal formatting, so identical config and seed reproduce
identical bytes on a given platform.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


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


def emit_csv(path: str | Path, array: np.ndarray, header: list[str] | None = None) -> None:
    """Write an array as CSV with full-precision decimals."""
    array = np.asarray(array)
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in np.atleast_2d(array):
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


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
        if self.points_per_blob < 1:
            raise ValueError(f"points_per_blob must be >= 1, got {self.points_per_blob}")
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError(f"noise_fraction must lie in [0, 1), got {self.noise_fraction}")
        object.__setattr__(self, "centers", centers)


def generate_blobs(spec: BlobSpec, seed: int = 0) -> tuple[DataSet, np.ndarray]:
    """Deterministic blobs + background noise; noise points carry label -1.

    The noise count is ``round(noise_fraction * total blob points)``, drawn
    uniformly over the blob bounding box inflated by half its span per side.
    """
    rng = np.random.default_rng(seed)
    chunks, labels = [], []
    for b, center in enumerate(spec.centers):
        pts = center[None, :] + spec.sigma * rng.standard_normal((spec.points_per_blob, spec.centers.shape[1]))
        chunks.append(pts)
        labels.append(np.full(spec.points_per_blob, b))
    blob_points = np.vstack(chunks)
    n_noise = int(round(spec.noise_fraction * blob_points.shape[0]))
    if n_noise:
        lo, hi = blob_points.min(axis=0), blob_points.max(axis=0)
        span = hi - lo
        noise = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(n_noise, blob_points.shape[1]))
        chunks.append(noise)
        labels.append(np.full(n_noise, -1))
    return DataSet(np.vstack(chunks)), np.concatenate(labels)


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


def _summary_text(
    algorithm: str, m: int, config: SolverConfig, X: DataSet, result: RunResult, fp: FixedPointReport
) -> str:
    report = result.init_report
    lines = [
        f"algorithm: {algorithm}",
        f"points: {X.n_points}",
        f"dimensions: {X.n_dims}",
        f"clusters-requested: {m}",
        f"clusters-retained: {len(result.dedup.kept)}",
        f"termination: {result.termination}",
        f"iterations: {result.n_iterations}",
        f"seed: {config.fcm.seed}",
        f"p: {_fmt(report.p)}",
        f"K: {_fmt(report.K)}",
        f"lambda: {_fmt(report.lam)}",
        f"gamma: {_vector(report.gammas)}",
        "theta:",
    ]
    for j, row in enumerate(result.state.representatives):
        lines.append(f"  {j}: {_vector(row)}")
    lines.extend(_bounds_section(report))
    lines.extend(_fixed_point_section(fp))
    lines.append("dedup:")
    lines.append(f"  threshold: {_fmt(result.dedup.threshold)}")
    mapping = ", ".join(f"{j}->{r}" for j, r in sorted(result.dedup.mapping.items()))
    lines.append(f"  mapping: {mapping}")
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    else:
        lines.append("warnings: none")
    return "\n".join(lines) + "\n"


def _write_trace(path: Path, result: RunResult) -> None:
    m = result.state.n_clusters
    header = (
        ["t", "J", "J_after_u", "J_before"]
        + [f"delta_theta_{j}" for j in range(m)]
        + [f"active_{j}" for j in range(m)]
        + ["u_step_decreased", "theta_step_decreased", "u_bounds_ok"]
    )
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in result.trace:
            row = [str(rec.t), _fmt(rec.cost), _fmt(rec.cost_after_u)]
            row.append("" if rec.cost_before is None else _fmt(rec.cost_before))
            row.extend(_fmt(v) for v in rec.delta_theta)
            row.extend(str(int(c)) for c in rec.active_counts)
            row.append("" if rec.u_step_decreased is None else str(rec.u_step_decreased))
            row.append(str(rec.theta_step_decreased))
            row.append(str(rec.u_bounds_ok))
            fh.write(",".join(row) + "\n")


def _write_plot_data(out_dir: Path, result: RunResult) -> None:
    with open(out_dir / "cost_vs_iteration.csv", "w", newline="") as fh:
        fh.write("t,J\n")
        for rec in result.trace:
            fh.write(f"{rec.t},{_fmt(rec.cost)}\n")
    dims = min(2, result.state.n_dims)
    header = ["t", "cluster"] + [f"c{q}" for q in range(dims)]
    with open(out_dir / "theta_trajectory.csv", "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in result.trace:
            for j, row in enumerate(rec.theta):
                coords = ",".join(_fmt(row[q]) for q in range(dims))
                fh.write(f"{rec.t},{j},{coords}\n")


def _run_fcm_only(X: DataSet, m: int, config: SolverConfig, out_dir: Path) -> int:
    theta, u, gammas, _ = fcm_start(X, m, config.fcm)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(out_dir / "memberships.csv", u)
    lines = [
        "algorithm: fcm",
        f"points: {X.n_points}",
        f"dimensions: {X.n_dims}",
        f"clusters-requested: {m}",
        f"seed: {config.fcm.seed}",
        f"gamma: {_vector(gammas)}",
        "theta:",
    ]
    for j, row in enumerate(theta):
        lines.append(f"  {j}: {_vector(row)}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def _switch(raw: str) -> bool:
    return raw.lower() in ("1", "true", "yes")


def _dedup(raw: str) -> float | None:
    return None if raw == "auto" else float(raw)


# Every run option: config key -> (parser, SolverConfig field, help).  Its
# flag is the key with "_" written "-"; "seed" is the FCM block's field, and
# None marks an option of the CLI alone.
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


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


def _run_options(args: argparse.Namespace) -> dict:
    """Parsed run options, flags over config-file keys (a switch flag can
    only switch on), with the CLI's own checks applied."""
    raw = _read_config_file(args.config) if args.config else {}
    raw.update({key: getattr(args, key) for key in _RUN_OPTIONS if getattr(args, key) is not None})
    options = {}
    for key, text in raw.items():
        try:
            options[key] = _RUN_OPTIONS[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{_flag(key)}: cannot parse {text!r}") from exc
    for key in ("input", "clusters"):
        if key not in options:
            raise ConfigError(f"{_flag(key)} is required (as a flag or in the config file)")
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
    X = ingest_csv(options["input"])
    out_dir = Path(options.get("out_dir", "."))

    if algorithm == "fcm":
        return _run_fcm_only(X, m, config, out_dir)
    if algorithm == "spcm":
        result = run(X, m, config)
    else:
        result = run_pcm2(X, m, config)

    fp = check_fixed_point(X, result.state, result.membership)
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(out_dir / "memberships.csv", result.dedup.membership)
    (out_dir / "summary.txt").write_text(_summary_text(algorithm, m, config, X, result, fp))
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


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for key, (parse, _, help_text) in _RUN_OPTIONS.items():
        switch = {"action": "store_const", "const": "true"} if parse is _switch else {}
        parser.add_argument(_flag(key), dest=key, help=help_text, **switch)


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.centers:
        try:
            centers = np.array(
                [[float(c) for c in pt.split(":")] for pt in args.centers.split(";")]
            )
        except ValueError as exc:
            raise ConfigError(f"cannot parse --centers {args.centers!r}") from exc
    else:
        centers = default_centers(args.blobs)
    try:
        spec = BlobSpec(
            centers=centers,
            points_per_blob=args.points_per_blob,
            sigma=args.sigma,
            noise_fraction=args.noise,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    X, labels = generate_blobs(spec, seed=args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    emit_csv(out, X.points)
    labels_path = out.with_suffix(out.suffix + ".labels.csv") if out.suffix != ".csv" else out.with_name(out.stem + ".labels.csv")
    with open(labels_path, "w", newline="") as fh:
        for lab in labels:
            fh.write(f"{int(lab)}\n")
    print(f"wrote {X.n_points} points to {out} (labels: {labels_path})")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    given = {key: getattr(args, key) for key in ("p", "K", "seed")}
    config = _solver_config({key: value for key, value in given.items() if value is not None})
    X = ingest_csv(args.input)
    report = initialize(X, args.clusters, p=config.p, K=config.K, fcm=config.fcm)
    lines = [f"clusters: {args.clusters}", f"p: {_fmt(report.p)}", f"K: {_fmt(report.K)}",
             f"lambda: {_fmt(report.lam)}", f"gamma: {_vector(report.gammas)}"]
    lines.extend(_bounds_section(report))
    if report.warnings:
        lines.append("warnings:")
        lines.extend(f"  - {w}" for w in report.warnings)
    else:
        lines.append("warnings: none")
    print("\n".join(lines))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spcm", description="Sparse possibilistic c-means clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="cluster a CSV dataset")
    _add_run_flags(p_run)
    p_run.set_defaults(func=run_command)

    p_gen = sub.add_parser("generate", help="generate a synthetic blob benchmark")
    p_gen.add_argument("--blobs", type=int, default=3)
    p_gen.add_argument("--points-per-blob", dest="points_per_blob", type=int, default=50)
    p_gen.add_argument("--sigma", type=float, default=0.1)
    p_gen.add_argument("--noise", type=float, default=0.1)
    p_gen.add_argument("--centers", default=None, help="semicolon-separated x:y pairs")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_val = sub.add_parser("validate-params", help="check K bounds on a dataset")
    p_val.add_argument("--input", required=True)
    p_val.add_argument("--clusters", type=int, required=True)
    p_val.add_argument("--p", type=float)
    p_val.add_argument("--K", type=float)
    p_val.add_argument("--seed", type=int)
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ActiveSetEmptyError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
