"""The package's public names."""

import importlib

import pytest

MODULES = ("spcm", "spcm.cli", "spcm.core", "spcm.driver", "spcm.initialization", "spcm.membership", "spcm.monitor")

# Test-only API that moved to tests/oracles.py or was folded into the one solver.
REMOVED = ("f_value", "solve_membership", "solve_membership_by_radius", "point_term_cost", "cluster_costs")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), module
    with pytest.raises(ImportError):
        exec(f"from spcm import {name}", {})
