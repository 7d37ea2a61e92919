"""The numerical contract of ``tools/output_digest.py`` on synthetic outputs."""

import json

import numpy as np
import pytest

from contract import digest


def run_parts(gammas=(0.3, 0.5, 0.7), n_iterations=12, u_00=0.25, summary_iterations="12"):
    """A run's outputs in the shape :func:`digest.result_parts` and the CLI give them."""
    u = np.array([[u_00, 0.0, 1e-20], [0.5, 0.75, 0.0], [0.0, 0.125, 0.875]])
    return {
        "state.gammas": [np.array(gammas)],
        "state.representatives": [np.array([[0.25, -1e-9], [1.0, 0.5], [0.5, 0.875]])],
        "membership.values": [u],
        "n_iterations": [n_iterations],
        "termination": ["converged"],
        "trace.cost": [-5.25, -5.5],
        "trace.cost_before": [None, -5.25],
        "trace.active_counts": [np.array([2, 2, 2]), np.array([2, 2, 2])],
        "trace.u_step_decreased": [None, True],
        "grad_norm": [1e-7],
        "per_cluster_pd_margin": [(29.25, 896.125, -np.inf)],
        "summary.txt": f"iterations: {summary_iterations}\ngamma: [0.3, 0.5]\ntheta:\n  0: [0.25, -1e-09]\n",
        "memberships.csv": f"{u_00!r},0.0,1e-20\n0.5,0.75,0.0\n",
    }


def nudge(parts):
    """``parts`` with every nonzero float moved one ulp up."""

    def move(value):
        if isinstance(value, np.ndarray) and value.dtype.kind == "f":
            return np.where(value == 0, value, np.nextafter(value, np.inf))
        if isinstance(value, float):
            return value if value == 0 or not np.isfinite(value) else float(np.nextafter(value, np.inf))
        if isinstance(value, tuple):
            return tuple(move(v) for v in value)
        return value

    nudged = {}
    for name, leaves in parts.items():
        if name == "summary.txt":
            nudged[name] = leaves.replace("0.3,", f"{float(np.nextafter(0.3, 1.0))!r},")
        elif name == "memberships.csv":
            nudged[name] = leaves.replace("0.75", repr(float(np.nextafter(0.75, 1.0))))
        else:
            nudged[name] = [move(v) for v in leaves]
    return nudged


def outside(old, new):
    """The fields of two parts outside the contract, after a JSON round trip."""
    a, b = (json.loads(json.dumps(digest.values(parts))) for parts in (old, new))
    return {name: why for name in a if (why := digest.agree(a[name], b[name], name))}


def test_one_ulp_nudge_keeps_the_contract():
    old = run_parts()
    new = nudge(old)
    assert digest.digests(old) != digest.digests(new)
    assert outside(old, new) == {}


@pytest.mark.parametrize(
    ("change", "field"),
    [
        pytest.param({"gammas": (0.5, 0.3, 0.7)}, "state.gammas", id="swapped-gammas"),
        pytest.param({"n_iterations": 13}, "n_iterations", id="iteration-count"),
        pytest.param({"summary_iterations": "13"}, "summary.txt", id="iteration-count-in-text"),
        pytest.param({"u_00": 0.0}, "membership.values", id="active-membership-to-zero"),
    ],
)
def test_a_wrong_change_breaks_the_contract(change, field):
    assert set(outside(run_parts(), run_parts(**change))) >= {field}


def test_an_inactive_membership_stays_exactly_zero():
    old = run_parts()
    new = dict(old, **{"membership.values": [old["membership.values"][0] + np.array([[0, 0, 0], [0, 0, 1e-300], [0] * 3])]})
    assert set(outside(old, new)) == {"membership.values"}


def test_a_residual_is_bounded_against_the_data_scale():
    old = run_parts()
    moved = dict(old, **{"grad_norm": [1e-7 + 1e-14], "state.representatives": [old["state.representatives"][0] + 1e-14]})
    assert outside(old, moved) == {}
    assert set(outside(old, dict(old, **{"grad_norm": [1.01e-7]}))) == {"grad_norm"}
    assert set(outside(old, dict(old, **{"trace.cost": [-5.25, -5.5 * (1 + 1e-9)]}))) == {"trace.cost"}


def test_text_numbers_and_words_are_compared_apart():
    agree = digest.agree
    assert agree("K: 0.9  K-ok: True", "K: 0.9000000000000001  K-ok: True", "summary.txt") is None
    assert agree("K: 0.9  K-ok: True", "K: 0.9  K-ok: False", "summary.txt")
    assert agree("exit 0", "exit 2", "stderr")
    assert agree("ValueError: bad", "ConfigError: bad", "error")
    assert agree("t,J\n3,-68.4\n", "t,J\n3,-68.400001\n", "cost_vs_iteration.csv")


def test_compare_fails_only_outside_the_contract(tmp_path, capsys):
    old, new = run_parts(), nudge(run_parts())
    paths = {}
    for name, encode, wrap in (("digests", digest.digests, lambda c: c), ("values", digest.values, lambda c: {"values": c})):
        for side, parts in (("old", old), ("new", new)):
            paths[name, side] = tmp_path / f"{name}-{side}.json"
            paths[name, side].write_text(json.dumps(wrap({"case": encode(parts)})))
    assert digest.compare(paths["values", "old"], paths["values", "new"]) == 0
    assert "0 outside the contract" in capsys.readouterr().out
    # the digests see bits only: every nudged field differs
    assert digest.compare(paths["digests", "old"], paths["digests", "new"]) == 1
    assert "differs: case state.gammas" in capsys.readouterr().out
    paths["values", "new"].write_text(json.dumps({"values": {"case": digest.values(run_parts(n_iterations=13))}}))
    assert digest.compare(paths["values", "old"], paths["values", "new"]) == 1
    assert "outside: case n_iterations: item 0: 12 against 13" in capsys.readouterr().out
