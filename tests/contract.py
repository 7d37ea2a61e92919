"""The numerical contract of ``tools/output_digest.py`` as a test assertion.

Results that differ from a reference only in rounding (another summation
order, another but exact formula) are compared under the same contract that
the tool applies across versions of the package.
"""

import importlib.util
from pathlib import Path

import numpy as np

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", _TOOL)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def assert_within_contract(actual, desired, name: str = "") -> None:
    """``actual`` agrees with ``desired`` entry by entry to the contract's
    relative tolerance; ``name`` is the field's name, which makes a
    coordinate or a residual bounded against the data's unit scale."""
    actual, desired = np.asarray(actual, dtype=np.float64), np.asarray(desired, dtype=np.float64)
    assert actual.shape == desired.shape, f"shape {actual.shape} against {desired.shape}"
    bad = np.argwhere(~digest._close(actual, desired, name))
    assert not bad.size, f"{len(bad)} entries outside the contract, first at {bad[0]}: " + (
        f"{actual[tuple(bad[0])]!r} against {desired[tuple(bad[0])]!r}"
    )
