"""Doppler clutter filtering of the frame ensemble.

The paper is explicit about ordering: "the Doppler processing is done before
extracting the sign. Otherwise, the Doppler signal will be lost in the
dominant stationary signals" (§V-A). The clutter filter is the SVD
filter, the field standard of functional ultrasound for in-vivo data where
tissue moves slightly: it zeroes the strongest temporal singular components
of the measurement matrix Y (K channels x N frames) along the frame axis,
before quantization and beamforming.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ShapeError


class ClutterFilter(enum.Enum):
    """Available clutter-rejection methods."""

    NONE = "none"
    SVD = "svd"


def svd_filter(y: np.ndarray, n_components: int = 2) -> np.ndarray:
    """Remove the ``n_components`` strongest temporal singular components.

    Tissue clutter concentrates in the first singular vectors (high energy,
    slow dynamics); blood spreads over the rest. Uses the thin SVD of the
    (K, N) matrix, so cost is O(K N min(K, N)).
    """
    if y.ndim != 2:
        raise ShapeError(f"expected (K, N) measurement matrix, got {y.shape}")
    if n_components <= 0:
        return y.copy()
    u, s, vh = np.linalg.svd(y, full_matrices=False)
    n = min(n_components, s.shape[0])
    clutter = (u[:, :n] * s[:n]) @ vh[:n]
    return y - clutter


def apply_clutter_filter(y: np.ndarray, method: ClutterFilter, n_components: int = 2) -> np.ndarray:
    """Dispatch on the configured filter method."""
    if method is ClutterFilter.NONE:
        return y.copy()
    if method is ClutterFilter.SVD:
        return svd_filter(y, n_components=n_components)
    raise ShapeError(f"unknown clutter filter {method}")  # pragma: no cover


def power_doppler(beamformed_frames: np.ndarray) -> np.ndarray:
    """Power-Doppler image: mean |signal| over the ensemble.

    The paper's Fig 6 volume "was obtained by averaging the magnitude of the
    complex beamformed signal along the 8041 frames". ``beamformed_frames``
    has shape (V, N); the result is (V,).
    """
    if beamformed_frames.ndim != 2:
        raise ShapeError(f"expected (V, N) beamformed frames, got {beamformed_frames.shape}")
    return np.abs(beamformed_frames).mean(axis=1)
