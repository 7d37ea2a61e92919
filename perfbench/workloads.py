"""The benchmark's workloads, their operations and the correctness gate.

Every workload clusters three Gaussian blobs (sigma 0.1, unit spacing) plus
10 % uniform background noise with p = 0.5 and K = 0.9, the paper's setting.
One operation is one call into the package; the gate decides whether its
result is correct.

Operation k of a run clusters input set k drawn from the run's seed.  How
long an operation takes depends on the draw (the loop's and FCM's iteration
counts, the monitor's active-set sizes), so a run that timed a single draw
would report that draw rather than the workload.  The warm-up operation and
the first timed one share draw 0, as do the two operations of a traced pair,
so every run also checks that the same input gives byte-identical output.
"""

from __future__ import annotations

import hashlib
import importlib
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import SIGMA, Inputs, make_blobs, triangle_centers, write_csv

N_BLOBS = 3
P = 0.5
K = 0.9
# Acceptance criterion 09: retained representatives within 0.1 sigma of a blob mean.
REP_ERR_LIMIT = 0.1 * SIGMA


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points_per_blob: int
    cli: bool

    def make_inputs(self, seed: int, index: int) -> Inputs:
        return make_blobs(triangle_centers(), self.points_per_blob, [seed, index])


WORKLOADS = {
    w.name: w
    for w in (
        # Both ask for the right cluster count in 2-d: asking for 4 (the merge scenario)
        # and clustering in 16-d each fail the gate on some draws; BASELINE.md lists them.
        Workload(
            "cli-audit",
            "spcm run with the monitor on 3x600 points in 2-d: "
            "the only workload that runs the monitor and the CLI's file I/O",
            points_per_blob=600, cli=True,
        ),
        Workload(
            "fit-large",
            "library run on 3x30000 points in 2-d: the membership loop and the FCM start "
            "at N = 1e5; no monitor, no CLI",
            points_per_blob=30_000, cli=False,
        ),
    )
}


@dataclass
class Outcome:
    """What one operation produced, as far as the gate needs it."""

    exit_code: int = 0
    error: str = ""
    termination: str = ""
    representatives: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    verdicts: dict[str, bool] = field(default_factory=dict)
    digest: str | None = None
    bytes_written: int = 0
    runtime_warnings: int = 0


def rep_err(representatives: np.ndarray, blob_means: np.ndarray) -> float:
    """Worst distance from a representative to its nearest blob mean."""
    if len(representatives) == 0:
        return float("inf")
    gaps = np.linalg.norm(representatives[:, None, :] - blob_means[None, :, :], axis=2)
    return float(gaps.min(axis=1).max())


def gate(outcome: Outcome, blob_means: np.ndarray, reference_digest: str | None) -> list[str]:
    """Reasons the operation failed; empty when it is correct."""
    if outcome.error:
        return [outcome.error]
    if outcome.exit_code != 0:
        return [f"exit code {outcome.exit_code}"]
    reasons = []
    if outcome.termination != "converged":
        reasons.append(f"termination {outcome.termination!r}")
    reps = outcome.representatives
    if len(reps) != N_BLOBS:
        reasons.append(f"{len(reps)} clusters retained, expected {N_BLOBS}")
    else:
        nearest = np.linalg.norm(reps[:, None, :] - blob_means[None, :, :], axis=2).argmin(axis=1)
        if len(set(nearest.tolist())) != N_BLOBS:
            reasons.append("two retained representatives sit on the same blob")
    err = rep_err(reps, blob_means)
    if not err <= REP_ERR_LIMIT:
        reasons.append(f"rep_err {err:.6g} above {REP_ERR_LIMIT:g}")
    reasons.extend(f"fixed-point verdict {k} is False" for k, ok in outcome.verdicts.items() if not ok)
    if reference_digest is not None and outcome.digest != reference_digest:
        reasons.append("memberships.csv or summary.txt differ from an earlier run on the same input")
    return reasons


def parse_summary(text: str) -> tuple[str, np.ndarray, dict[str, bool]]:
    """Termination, retained representatives and fixed-point verdicts of summary.txt."""
    fields: dict[str, str] = {}
    theta: dict[int, np.ndarray] = {}
    verdicts: dict[str, bool] = {}
    section = ""
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split(":", 1)[0]
            fields[section] = line.split(":", 1)[1].strip() if ":" in line else ""
            continue
        key, _, value = line.strip().partition(": ")
        if section == "theta":
            theta[int(key)] = np.array([float(v) for v in value.strip("[]").split(",")])
        elif section == "fixed-point" and value in ("True", "False"):
            verdicts[key] = value == "True"
        elif section == "dedup" and key == "mapping":
            fields["mapping"] = value
    kept = sorted({int(pair.split("->")[1]) for pair in fields["mapping"].split(", ")})
    return fields["termination"], np.array([theta[j] for j in kept]), verdicts


class Runner:
    """Holds the current input set of one workload and runs its operation."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.spcm = importlib.import_module("spcm")
        self.cli = importlib.import_module("spcm.cli")
        self.config = self.spcm.SolverConfig(p=P, K=K)
        self.input_csv = workdir / "input.csv"
        self.out_dir = workdir / "out"
        self.argv = [
            "run", "--input", str(self.input_csv), "--out-dir", str(self.out_dir),
            "--clusters", str(N_BLOBS), "--p", str(P), "--K", str(K), "--trace",
        ]
        self.index = -1
        self.prepare(0)

    def prepare(self, index: int) -> None:
        """Make input set ``index`` current: generate it, and write it for the CLI."""
        if index == self.index:
            return
        self.index = index
        self.data = self.workload.make_inputs(self.seed, index)
        if self.workload.cli:
            write_csv(self.input_csv, self.data.points)
        else:
            self.X = self.spcm.DataSet(self.data.points)

    def operation(self) -> tuple[float, Outcome]:
        """Run one operation on the current input set; return its wall time and outcome."""
        outcome = Outcome()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                if self.workload.cli:
                    outcome.exit_code = self.cli.main(self.argv)
                else:
                    result = self.spcm.run(self.X, N_BLOBS, self.config)
            except SystemExit as exc:
                outcome.exit_code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an operation that raises is a failed operation
                outcome.error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        outcome.runtime_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
        if outcome.error or outcome.exit_code != 0:
            return elapsed, outcome
        if self.workload.cli:
            self._read_cli_outputs(outcome)
        else:
            outcome.termination = result.termination
            outcome.representatives = np.asarray(result.dedup.representatives)
        return elapsed, outcome

    def _read_cli_outputs(self, outcome: Outcome) -> None:
        try:
            summary = (self.out_dir / "summary.txt").read_bytes()
            memberships = (self.out_dir / "memberships.csv").read_bytes()
            outcome.termination, outcome.representatives, outcome.verdicts = parse_summary(summary.decode())
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome.error = f"unreadable CLI output: {type(exc).__name__}: {exc}"
            return
        outcome.digest = hashlib.sha256(memberships + b"\0" + summary).hexdigest()
        outcome.bytes_written = sum(f.stat().st_size for f in self.out_dir.iterdir() if f.is_file())
