"""The package's public names."""

import importlib
from pathlib import Path

import pytest

import spcm

MODULES = ("spcm", "spcm.cli", "spcm.core", "spcm.driver", "spcm.initialization", "spcm.membership", "spcm.monitor")

# The submodules whose public names `spcm` re-exports.
REEXPORTED = ("spcm.core", "spcm.membership", "spcm.initialization", "spcm.driver", "spcm.monitor")

# Test-only API that moved to tests/oracles.py or was folded into the one solver.
REMOVED = (
    "f_value",
    "solve_membership",
    "solve_membership_by_radius",
    "point_term_cost",
    "cluster_costs",
    "weighted_cauchy_schwarz_holds",
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_exactly_the_submodule_names():
    names = [name for module in REEXPORTED for name in importlib.import_module(module).__all__]
    assert len(set(names)) == len(names)
    assert set(spcm.__all__) == {*names, "__version__"}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone(name):
    for module in MODULES:
        assert not hasattr(importlib.import_module(module), name), module
    with pytest.raises(ImportError):
        exec(f"from spcm import {name}", {})


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert spcm.__version__ == tomllib.load(fh)["project"]["version"]
