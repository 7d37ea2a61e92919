"""Benchmark inputs: Gaussian blobs plus uniform background noise.

The recipe follows the package's blob generator and acceptance criterion 09
(isotropic blobs, then ``round(noise * blob points)`` uniform points over the
blob bounding box inflated by half its span per side), but it is written
here so that a change to the package cannot change what the benchmark feeds
it.  Only numpy is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIGMA = 0.1
NOISE_FRACTION = 0.1


@dataclass(frozen=True)
class Inputs:
    """Points (blobs first, then noise) and the blobs' sample means."""

    points: np.ndarray
    blob_means: np.ndarray


def triangle_centers() -> np.ndarray:
    """Vertices of the unit-side triangle in the plane."""
    circumradius = 1.0 / (2.0 * math.sin(math.pi / 3))
    angles = 2.0 * math.pi * np.arange(3) / 3
    return circumradius * np.column_stack([np.cos(angles), np.sin(angles)])


def make_blobs(centers: np.ndarray, points_per_blob: int, seed) -> Inputs:
    """Blobs of ``points_per_blob`` points around each centre, then noise.

    ``seed`` is anything ``numpy.random.default_rng`` accepts.
    """
    rng = np.random.default_rng(seed)
    n_blobs, dims = centers.shape
    blobs = centers[:, None, :] + SIGMA * rng.standard_normal((n_blobs, points_per_blob, dims))
    blob_points = blobs.reshape(-1, dims)
    n_noise = int(round(NOISE_FRACTION * blob_points.shape[0]))
    lo, hi = blob_points.min(axis=0), blob_points.max(axis=0)
    span = hi - lo
    noise = rng.uniform(lo - 0.5 * span, hi + 0.5 * span, size=(n_noise, dims))
    return Inputs(points=np.vstack([blob_points, noise]), blob_means=blobs.mean(axis=1))


def write_csv(path, points: np.ndarray) -> None:
    """Write points as CSV with shortest round-trip decimals."""
    with open(path, "w", newline="") as fh:
        for row in points:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
