"""Equirectangular-sphere geometry: latitude bands and their weights.

An ERP frame maps latitude linearly onto pixel rows, so the sphere's
solid-angle density per row is proportional to cos(latitude). Frames are
partitioned into horizontal bands; the model aggregates per-band features
with weights softmax(learned_logits + log(cos_prior)) so the physical
prior acts as a bias while gradients flow into the logits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass
class LatitudeBandPartition:
    """Horizontal bands tiling an ERP frame, north to south."""

    num_bands: int
    height: int
    band_row_ranges: list[tuple[int, int]]   # half-open [start, end) pixel rows
    band_latitude_centers: np.ndarray        # radians, in (-pi/2, pi/2)


def row_latitude(row, height: int):
    """Latitude (radians) of a pixel row center: pi/2 - pi*(row+0.5)/H."""
    return math.pi / 2 - math.pi * (np.asarray(row, dtype=np.float64) + 0.5) / height


def partition_erp(height: int, num_bands: int) -> LatitudeBandPartition:
    """Split H pixel rows into M near-equal bands.

    Row counts differ by at most one; the leftover rows from integer
    division go to the northernmost bands.
    """
    if not 1 <= num_bands <= height:
        raise ValidationError(
            f"num_bands must be in [1, {height}], got {num_bands}"
        )
    base, extra = divmod(height, num_bands)
    ranges = []
    start = 0
    for m in range(num_bands):
        rows = base + (1 if m < extra else 0)
        ranges.append((start, start + rows))
        start += rows
    centers = np.array(
        [float(row_latitude((a + b - 1) / 2.0, height)) for a, b in ranges]
    )
    return LatitudeBandPartition(
        num_bands=num_bands,
        height=height,
        band_row_ranges=ranges,
        band_latitude_centers=centers,
    )


def cos_latitude_prior(partition: LatitudeBandPartition) -> np.ndarray:
    """Per-band weights proportional to the summed cos(latitude) of its rows."""
    w = np.empty(partition.num_bands)
    for m, (a, b) in enumerate(partition.band_row_ranges):
        w[m] = np.cos(row_latitude(np.arange(a, b), partition.height)).sum()
    return w / w.sum()
