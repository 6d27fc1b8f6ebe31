"""Array geometry and geometric delays for LOFAR-style beamforming.

LOFAR consists of "tens of geographically distributed stations across
Europe" (paper §V-B), each containing many individual antennas. We model
station positions on a plane (east, north) with a dense core plus remote
stations at logarithmically increasing distances — the characteristic LOFAR
layout — and antennas scattered within a station aperture.

Directions are expressed as direction cosines (l, m) relative to the
pointing centre; for one beamformed field of view these are small and the
planar (w-term-free) delay approximation holds::

    tau(station, l, m) = (east * l + north * m) / c
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.util.rng import derive_seed, make_rng

#: speed of light, m/s.
SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class ArrayLayout:
    """Station positions in metres on the (east, north) plane."""

    positions: np.ndarray  # (n_stations, 2)

    @property
    def n_stations(self) -> int:
        return self.positions.shape[0]


def lofar_like_layout(
    n_stations: int = 48,
    core_fraction: float = 0.5,
    core_radius_m: float = 2_000.0,
    max_radius_m: float = 80_000.0,
    seed: int = 11,
) -> ArrayLayout:
    """A dense-core + logarithmic-arm layout reminiscent of LOFAR.

    The typical Dutch LOFAR beamforming configuration combines 48 stations
    (paper: "the typical LOFAR configuration of 48 stations").
    """
    rng = make_rng(derive_seed(seed, "layout"))
    n_core = max(1, int(n_stations * core_fraction))
    n_remote = n_stations - n_core
    core_r = core_radius_m * np.sqrt(rng.random(n_core))
    core_phi = rng.uniform(0, 2 * np.pi, n_core)
    core = np.column_stack([core_r * np.cos(core_phi), core_r * np.sin(core_phi)])
    if n_remote > 0:
        remote_r = np.geomspace(core_radius_m * 1.5, max_radius_m, n_remote)
        remote_phi = rng.uniform(0, 2 * np.pi, n_remote)
        remote = np.column_stack([remote_r * np.cos(remote_phi), remote_r * np.sin(remote_phi)])
        positions = np.vstack([core, remote])
    else:
        positions = core
    return ArrayLayout(positions=positions)


def station_antenna_layout(
    n_antennas: int = 48, aperture_m: float = 30.0, seed: int = 12
) -> np.ndarray:
    """Random antenna positions within one station's aperture (metres)."""
    rng = make_rng(derive_seed(seed, "antennas"))
    r = aperture_m / 2.0 * np.sqrt(rng.random(n_antennas))
    phi = rng.uniform(0, 2 * np.pi, n_antennas)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def geometric_delay(positions: np.ndarray, dir_l: float, dir_m: float) -> np.ndarray:
    """Plane-wave arrival delay per element for direction cosines (l, m).

    ``positions`` is (n, 2) in metres; the result is seconds, one per
    element. Positive delay means the wavefront reaches that element later.
    """
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise ShapeError(f"positions must be (n, 2), got {positions.shape}")
    return (positions[:, 0] * dir_l + positions[:, 1] * dir_m) / SPEED_OF_LIGHT

