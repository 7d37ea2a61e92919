"""Command-line front end: ingestion, generation, runs, and serialization.

Subcommands
-----------
run             cluster a CSV dataset (sparse, non-sparse, or FCM-only) and
                write memberships, a summary, and optional trace/plot tables
generate        synthesise Gaussian blobs plus uniform background noise,
                with a ground-truth labels file
validate-params initialise on a dataset and print every K bound check

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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .core import DataSet
from .driver import ActiveSetEmptyError, RunResult, SolverConfig, run, run_pcm2
from .initialization import (
    DegenerateDataError,
    FcmConfig,
    InitReport,
    compute_gammas,
    compute_mu,
    radius_bound,
    run_fcm,
    validate_K,
)
from .monitor import FixedPointReport, check_fixed_point

__all__ = [
    "ConfigError",
    "InputError",
    "RunConfig",
    "BlobSpec",
    "ingest_csv",
    "emit_csv",
    "generate_blobs",
    "default_centers",
    "run_command",
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


@dataclass(frozen=True)
class RunConfig:
    """Everything one `run` invocation needs."""

    input: str
    out_dir: str
    algorithm: str = "spcm"
    clusters: int = 2
    p: float = 0.5
    K: float | None = None
    theta_tol: float = 1e-6
    max_iters: int = 500
    bisection_iters: int = 30
    dedup: str = "auto"  # "auto" or a decimal distance
    seed: int = 0
    trace: bool = False
    plot_data: bool = False


def _validate_config(cfg: RunConfig) -> None:
    if cfg.algorithm not in _ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg.algorithm!r}; choose one of {_ALGORITHMS}")
    if cfg.clusters < 1:
        raise ConfigError(f"clusters must be >= 1, got {cfg.clusters}")
    if not 0.0 < cfg.p < 1.0:
        raise ConfigError(f"p must lie strictly inside (0, 1), got {cfg.p}")
    if cfg.K is not None:
        if not cfg.K > 0:
            raise ConfigError(f"K must be positive, got {cfg.K}")
        bound = radius_bound(cfg.p)
        if cfg.K >= bound:
            raise ConfigError(
                f"K = {cfg.K} violates the radius-positivity bound "
                f"K < p*e^(2*(1-p)) = {bound!r}: every influence radius would be nonpositive"
            )
    if not cfg.theta_tol > 0:
        raise ConfigError(f"theta-tol must be positive, got {cfg.theta_tol}")
    if cfg.max_iters < 1:
        raise ConfigError(f"max-iters must be >= 1, got {cfg.max_iters}")
    if cfg.bisection_iters < 1:
        raise ConfigError(f"bisection-iters must be >= 1, got {cfg.bisection_iters}")
    if cfg.dedup != "auto":
        try:
            value = float(cfg.dedup)
        except ValueError as exc:
            raise ConfigError(f"dedup must be 'auto' or a number, got {cfg.dedup!r}") from exc
        if value < 0:
            raise ConfigError(f"dedup threshold must be nonnegative, got {value}")


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


def _summary_text(cfg: RunConfig, X: DataSet, result: RunResult, fp: FixedPointReport) -> str:
    report = result.init_report
    lines = [
        f"algorithm: {cfg.algorithm}",
        f"points: {X.n_points}",
        f"dimensions: {X.n_dims}",
        f"clusters-requested: {cfg.clusters}",
        f"clusters-retained: {len(result.dedup.kept)}",
        f"termination: {result.termination}",
        f"iterations: {result.n_iterations}",
        f"seed: {cfg.seed}",
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


def _run_fcm_only(cfg: RunConfig, X: DataSet, out_dir: Path) -> int:
    fcm = FcmConfig(seed=cfg.seed)
    theta, u = run_fcm(X, cfg.clusters, fcm)
    gammas = compute_gammas(X, theta, u)
    emit_csv(out_dir / "memberships.csv", u)
    lines = [
        "algorithm: fcm",
        f"points: {X.n_points}",
        f"dimensions: {X.n_dims}",
        f"clusters-requested: {cfg.clusters}",
        f"seed: {cfg.seed}",
        f"gamma: {_vector(gammas)}",
        "theta:",
    ]
    for j, row in enumerate(theta):
        lines.append(f"  {j}: {_vector(row)}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def run_command(cfg: RunConfig) -> int:
    """Execute one configured run and write its artifacts.

    Returns the process exit code; error paths print to stderr.
    """
    _validate_config(cfg)
    X = ingest_csv(cfg.input)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if cfg.algorithm == "fcm":
        return _run_fcm_only(cfg, X, out_dir)

    dedup_threshold = None if cfg.dedup == "auto" else float(cfg.dedup)
    solver = SolverConfig(
        p=cfg.p,
        K=cfg.K,
        theta_tol=cfg.theta_tol,
        max_iters=cfg.max_iters,
        bisection_iters=cfg.bisection_iters,
        dedup_threshold=dedup_threshold,
        fcm=FcmConfig(seed=cfg.seed),
    )
    if cfg.algorithm == "spcm":
        result = run(X, cfg.clusters, solver)
    else:
        result = run_pcm2(X, cfg.clusters, solver)

    fp = check_fixed_point(X, result.state, result.membership)
    emit_csv(out_dir / "memberships.csv", result.dedup.membership)
    (out_dir / "summary.txt").write_text(_summary_text(cfg, X, result, fp))
    if cfg.trace:
        _write_trace(out_dir / "trace.csv", result)
    if cfg.plot_data:
        _write_plot_data(out_dir, result)
    if result.termination == "iteration-cap":
        print(
            f"warning: iteration cap ({cfg.max_iters}) reached before the "
            f"representative displacement dropped below {cfg.theta_tol}",
            file=sys.stderr,
        )
    return EXIT_OK


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
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


_CONFIG_PARSERS = {
    "input": str,
    "out_dir": str,
    "algorithm": str,
    "clusters": int,
    "p": float,
    "K": float,
    "theta_tol": float,
    "max_iters": int,
    "bisection_iters": int,
    "dedup": str,
    "seed": int,
    "trace": lambda s: s.lower() in ("1", "true", "yes"),
    "plot_data": lambda s: s.lower() in ("1", "true", "yes"),
}


def _merge_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config:
        entries = _read_config_file(args.config)
        for key, raw in entries.items():
            if key not in _CONFIG_PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                values[key] = _CONFIG_PARSERS[key](raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc
    # Flags win over the config file; store_true flags can only switch on.
    for f in fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        if flag_value is not None and flag_value is not False:
            values[f.name] = flag_value
    if "input" not in values:
        raise ConfigError("an input CSV is required (--input or config file)")
    if "clusters" not in values:
        raise ConfigError("a cluster count is required (--clusters or config file)")
    values.setdefault("out_dir", ".")
    return RunConfig(**values)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    parser.add_argument("--input", help="input CSV path")
    parser.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    parser.add_argument("--algorithm", choices=_ALGORITHMS, default=None)
    parser.add_argument("--clusters", type=int, default=None)
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--K", type=float, default=None)
    parser.add_argument("--theta-tol", dest="theta_tol", type=float, default=None)
    parser.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    parser.add_argument("--bisection-iters", dest="bisection_iters", type=int, default=None)
    parser.add_argument("--dedup", default=None, help="'auto' or a merge distance")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true", help="write trace.csv")
    parser.add_argument("--plot-data", dest="plot_data", action="store_true",
                        help="write cost/trajectory tables for external plotting")


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _merge_run_config(args)
    return run_command(cfg)


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
    X = ingest_csv(args.input)
    fcm = FcmConfig(seed=args.seed)
    theta0, u_fcm = run_fcm(X, args.clusters, fcm)
    gammas = compute_gammas(X, theta0, u_fcm)
    mu = compute_mu(X, theta0, gammas)
    K = args.K
    if K is None:
        from .initialization import default_K

        K = default_K(args.p, float(mu.max()))
    if K >= radius_bound(args.p):
        raise ConfigError(
            f"K = {K} violates the radius-positivity bound "
            f"K < p*e^(2*(1-p)) = {radius_bound(args.p)!r}"
        )
    report = validate_K(K, gammas, args.p, mu, theta0=theta0)
    lines = [f"clusters: {args.clusters}", f"p: {_fmt(args.p)}", f"K: {_fmt(K)}",
             f"lambda: {_fmt(report.lam)}", f"gamma: {_vector(gammas)}"]
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
    p_run.set_defaults(func=_cmd_run)

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
    p_val.add_argument("--p", type=float, default=0.5)
    p_val.add_argument("--K", type=float, default=None)
    p_val.add_argument("--seed", type=int, default=0)
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
