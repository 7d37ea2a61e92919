"""Tests of the benchmark itself: the correctness gate and the tracer.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from layers import LAYERS, op_metrics  # noqa: E402
from tracing import Span, Target, Tracer, self_times  # noqa: E402
from workloads import Runner, Workload, gate  # noqa: E402

TINY_CLI = Workload("tiny-cli", "", points_per_blob=100, cli=True)
TINY_FIT = Workload("tiny-fit", "", points_per_blob=200, cli=False)


@pytest.fixture
def cli_runner(tmp_path):
    return Runner(TINY_CLI, 10, tmp_path)


@pytest.fixture
def fit_runner(tmp_path):
    return Runner(TINY_FIT, 10, tmp_path)


def test_correct_cli_operation_passes(cli_runner):
    _, first = cli_runner.operation()
    _, second = cli_runner.operation()
    means = cli_runner.data.blob_means
    assert gate(first, means, None) == []
    assert gate(second, means, first.digest) == []
    assert first.verdicts and all(first.verdicts.values())
    assert first.bytes_written > 0


def test_perturbed_cli_output_fails(cli_runner):
    _, outcome = cli_runner.operation()
    summary = cli_runner.out_dir / "summary.txt"
    text = summary.read_text()
    lines = text.splitlines()
    i = lines.index("theta:") + 1
    key, coords = lines[i].split(": ", 1)
    x = float(coords.strip("[]").split(",")[0])
    lines[i] = f"{key}: [{x + 0.05!r}," + coords.split(",", 1)[1]
    summary.write_text("\n".join(lines) + "\n")
    perturbed = replace(outcome)
    cli_runner._read_cli_outputs(perturbed)
    reasons = gate(perturbed, cli_runner.data.blob_means, outcome.digest)
    assert any("rep_err" in r for r in reasons)
    assert any("differ from an earlier run" in r for r in reasons)

    summary.write_text(text.replace("gradient-ok: True", "gradient-ok: False"))
    cli_runner._read_cli_outputs(perturbed)
    assert "fixed-point verdict gradient-ok is False" in gate(perturbed, cli_runner.data.blob_means, None)


def test_perturbed_fit_result_fails(fit_runner):
    _, outcome = fit_runner.operation()
    means = fit_runner.data.blob_means
    assert gate(outcome, means, None) == []
    reps = outcome.representatives
    cases = {
        "rep_err": replace(outcome, representatives=reps + 0.02),
        "clusters retained": replace(outcome, representatives=reps[:2]),
        "same blob": replace(outcome, representatives=np.vstack([reps[:2], reps[:1] + 1e-4])),
        "termination": replace(outcome, termination="iteration-cap"),
        "exit code": replace(outcome, exit_code=3),
        "raised": replace(outcome, error="raised ValueError: boom"),
    }
    for expected, bad in cases.items():
        assert any(expected in r for r in gate(bad, means, None)), expected


def test_measure_counts_failed_operations(fit_runner):
    _, good = fit_runner.operation()
    bad = replace(good, representatives=good.representatives + 0.5)
    outcomes = []

    def every_third_wrong():
        outcomes.append(bad if len(outcomes) % 3 == 2 else good)
        return 0.01, outcomes[-1]

    fit_runner.operation = every_third_wrong
    fit_runner.prepare = lambda k: None  # keep the input set the outcomes belong to
    m = run.measure(fit_runner, seconds=0, trace=False)
    assert m["attempted"] == len(outcomes) >= run.MIN_OPS + 1
    assert len(m["failures"]) == sum(o is bad for o in outcomes) > 0


def test_traced_layers_sum_to_the_operation(fit_runner):
    m = run.measure(fit_runner, seconds=0, trace=True)
    assert m["missing"] == [] and m["failures"] == []
    per_op = m["per_op"][0]
    assert sum(per_op[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["traced"][0], rel=0.02)
    assert per_op["driver.iterations"] >= 1
    assert per_op["core.squared_distances_per_step"] == 3
    assert per_op["initialization.fcm_iters"] >= 1
    assert per_op["monitor.check_s"] == 0 and per_op["cli.ingest_s"] == 0


def test_missing_names_are_reported_not_raised():
    tracer = Tracer((Target("spcm.driver", "no_such_function", "driver.gone"),
                     Target("spcm.no_such_module", "f", "x.gone")))
    tracer.install(0)
    tracer.uninstall()
    assert tracer.missing == ["spcm.driver.no_such_function", "spcm.no_such_module.f"]


def test_tracer_restores_originals():
    import spcm.driver

    before = spcm.driver.spcm_step
    tracer = Tracer()
    tracer.install(0)
    assert spcm.driver.spcm_step is not before
    tracer.uninstall()
    assert spcm.driver.spcm_step is before


def test_self_time_subtracts_children():
    spans = [Span("driver.run", 0, -1, 0.0, 10.0), Span("core.total_cost", 0, 0, 1.0, 4.0),
             Span("core.squared_distances", 0, 1, 2.0, 3.0)]
    own = self_times(list(enumerate(spans)))
    assert own == {0: 7.0, 1: 2.0, 2: 1.0}
    metrics = op_metrics(spans, list(enumerate(spans)), fcm_warnings=0, bytes_written=0)
    assert metrics["driver.self_s"] == 7.0 and metrics["core.self_s"] == 3.0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
