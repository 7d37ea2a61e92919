"""Sparse possibilistic c-means clustering toolkit.

Clusters are found by alternating two exact minimisation steps: a per-point
membership solve (inside each cluster's influence ball the larger root of
the cost derivative, in closed form through the Lambert W function; outside
it exactly zero) and a weighted-mean update of each cluster representative.
A convergence monitor checks every guarantee the iteration is supposed to
deliver: strict per-iteration cost descent, bounded trajectories, gradient
stationarity at termination, and positive definiteness of the cost's
second-derivative matrix at the fixed point.
"""

from . import core, driver, initialization, membership, monitor
from .core import *
from .driver import *
from .initialization import *
from .membership import *
from .monitor import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *membership.__all__, *initialization.__all__, *driver.__all__, *monitor.__all__, "__version__",
]
