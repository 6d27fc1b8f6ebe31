"""Central-beamformer weight generation.

Coherent beamforming "preserves phase information by aligning the signals
from each station" (paper §V-B): beam b's weight for station st at channel
frequency f conjugates the geometric arrival phase of direction (l_b, m_b)::

    w[ch, b, st] = exp(+2*pi*i * f_ch * tau_st(l_b, m_b)) / n_stations

The 1/n normalization keeps the beamformed amplitude independent of array
size. Weights are constant over a time block — the property that maps
beamforming onto a matrix-matrix product ("the weights used to steer the
beams are constant for some period of time", paper §I).
"""

from __future__ import annotations

import numpy as np

from repro.apps.radioastronomy.coordinates import ArrayLayout, geometric_delay
from repro.errors import ShapeError


def steering_weights(
    layout: ArrayLayout,
    channel_frequencies_hz: np.ndarray,
    beam_directions: np.ndarray,
    normalize: bool = True,
) -> np.ndarray:
    """Steering weight tensor of shape (n_channels, n_beams, n_stations).

    ``beam_directions`` is (n_beams, 2) of (l, m) direction cosines.
    """
    beam_directions = np.asarray(beam_directions, dtype=np.float64)
    if beam_directions.ndim != 2 or beam_directions.shape[1] != 2:
        raise ShapeError(f"beam_directions must be (n_beams, 2), got {beam_directions.shape}")
    freqs = np.atleast_1d(np.asarray(channel_frequencies_hz, dtype=np.float64))
    delays = np.stack(
        [geometric_delay(layout.positions, dir_l, dir_m) for dir_l, dir_m in beam_directions]
    )  # (B, S)
    phase = 2.0 * np.pi * freqs[:, None, None] * delays[None, :, :]
    weights = np.exp(1j * phase)
    if normalize:
        weights /= layout.n_stations
    return weights.astype(np.complex64)


def beam_grid(n_beams: int, fov_radius: float = 0.02, seed_angle: float = 0.0) -> np.ndarray:
    """A compact grid of beam directions tiling the field of view.

    Fills a square grid of side ceil(sqrt(n_beams)) inside the radius and
    trims to ``n_beams`` (LOFAR tied-array observations tile the station
    beam with hundreds to thousands of tied beams; the paper benchmarks
    1024 beams).
    """
    side = int(np.ceil(np.sqrt(n_beams)))
    axis = np.linspace(-fov_radius, fov_radius, side)
    gl, gm = np.meshgrid(axis, axis, indexing="ij")
    dirs = np.column_stack([gl.ravel(), gm.ravel()])[:n_beams]
    if seed_angle:
        c, s = np.cos(seed_angle), np.sin(seed_angle)
        dirs = dirs @ np.array([[c, -s], [s, c]])
    return dirs
