"""Per-layer metrics of one traced operation.

A layer is one module of the package (cli, driver, initialization,
membership, core, monitor); a span's layer is the first part of its name.
Byte counts are computed from array shapes, not measured.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracing import Span, has_ancestor, self_times

LAYERS = ("cli", "driver", "initialization", "membership", "core", "monitor")


def op_metrics(spans: list[Span], indexed: list[tuple[int, Span]], fcm_warnings: int,
               bytes_written: int) -> dict[str, float]:
    """Metrics of one operation from its spans (``indexed``) in the full span list."""
    own = self_times(indexed)
    total: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counted: dict[str, Counter] = defaultdict(Counter)
    layer_self: dict[str, float] = defaultdict(float)
    for i, s in indexed:
        total[s.name] += s.duration
        calls[s.name] += 1
        layer_self[s.layer] += own[i]
        if s.counts:
            counted[s.name].update(s.counts)

    dist = "core.squared_distances"
    steps = calls["driver.spcm_step"]
    dist_in_steps = sum(1 for i, s in indexed if s.name == dist and has_ancestor(spans, i, "driver.spcm_step"))
    dist_in_fcm = sum(1 for i, s in indexed if s.name == dist and has_ancestor(spans, i, "initialization.run_fcm"))
    solve = counted["membership.solve_membership_batch"]

    metrics = {
        "monitor.check_s": total["monitor.check_fixed_point"],
        # check_fixed_point's own code: valley quadratic forms and the interior re-assembly loop
        "monitor.check_self_s": sum(own[i] for i, s in indexed if s.name == "monitor.check_fixed_point"),
        "monitor.assemble_hessian_s": total["monitor.assemble_hessian"],
        "monitor.assemble_hessian_calls": calls["monitor.assemble_hessian"],
        "monitor.hessian_bytes": counted["monitor.assemble_hessian"]["bytes"],
        "monitor.gradient_residual_s": total["monitor.gradient_residual"],
        "monitor.cholesky_s": total["monitor.cholesky"],
        "monitor.valley_samples_s": total["monitor.valley_samples"],
        "membership.solve_s": total["membership.solve_membership_batch"],
        "membership.solve_calls": calls["membership.solve_membership_batch"],
        "membership.points_solved": solve["points"],
        "membership.active_ratio": solve["active"] / solve["points"] if solve["points"] else 0.0,
        "membership.build_context_s": total["membership.build_context"],
        "initialization.initialize_s": total["initialization.initialize"],
        "initialization.run_fcm_s": total["initialization.run_fcm"],
        # run_fcm computes distances once per iteration and once more at the end
        "initialization.fcm_iters": max(dist_in_fcm - calls["initialization.run_fcm"], 0),
        "initialization.fcm_capped": fcm_warnings,
        "core.squared_distances_s": total[dist],
        "core.squared_distances_calls": calls[dist],
        "core.squared_distances_per_step": dist_in_steps / steps if steps else 0.0,
        "core.squared_distances_bytes": counted[dist]["bytes"],
        "core.total_cost_s": total["core.total_cost"],
        "core.total_cost_calls": calls["core.total_cost"],
        "driver.run_s": total["driver.run"],
        "driver.iterations": steps,
        "driver.spcm_step_s": total["driver.spcm_step"],
        "driver.update_theta_s": total["driver.update_theta"],
        "driver.deduplicate_s": total["driver.deduplicate"],
        "cli.ingest_s": total["cli.ingest_csv"],
        "cli.emit_s": total["cli.emit_csv"],
        "cli.bytes_written": bytes_written,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
