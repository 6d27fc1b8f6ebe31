"""Station-level (FPGA) beamformer.

"These signals are initially processed by a station beamformer, implemented
on Field-Programmable Gate Arrays (FPGAs) within each station. The station
beamformer combines the signals from all antennas in the station into a
coherent station beam ... The resulting data, known as beamlet data, is then
transmitted to a central beamformer." (paper §V-B)

This module reproduces that first stage functionally: per-antenna time
series are channelized (polyphase filterbank) and summed with steering
phases toward the station pointing. It runs at test scale — the central
TCBF consumes station-level data generated directly by
:mod:`repro.apps.radioastronomy.sky` for larger runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.radioastronomy.channelizer import PolyphaseFilterbank
from repro.apps.radioastronomy.coordinates import (
    geometric_delay,
    station_antenna_layout,
)
from repro.errors import ShapeError
from repro.util.rng import derive_seed, make_rng


@dataclass(frozen=True)
class StationConfig:
    """One station: antenna layout plus channelizer settings."""

    n_antennas: int = 24
    aperture_m: float = 30.0
    n_channels: int = 16
    n_taps: int = 4
    seed: int = 5

    def antenna_positions(self) -> np.ndarray:
        return station_antenna_layout(self.n_antennas, self.aperture_m, self.seed)


class StationBeamformer:
    """FPGA-stage beamformer: antennas -> channelized station beamlets."""

    def __init__(self, config: StationConfig, f_centre_hz: float, bandwidth_hz: float):
        self.config = config
        self.f_centre_hz = f_centre_hz
        self.bandwidth_hz = bandwidth_hz
        self.pfb = PolyphaseFilterbank(config.n_channels, config.n_taps)
        self._antennas = config.antenna_positions()

    def channel_frequencies(self) -> np.ndarray:
        return self.pfb.channel_frequencies(self.f_centre_hz, self.bandwidth_hz)

    def form_station_beam(
        self, antenna_timeseries: np.ndarray, pointing_l: float, pointing_m: float
    ) -> np.ndarray:
        """Channelize every antenna and phase-sum toward the pointing.

        ``antenna_timeseries``: (n_antennas, T) complex baseband. Returns
        beamlet data (n_channels, T') — one coherent station beam.
        """
        if antenna_timeseries.shape[0] != self.config.n_antennas:
            raise ShapeError(
                f"expected {self.config.n_antennas} antenna streams, got "
                f"{antenna_timeseries.shape[0]}"
            )
        channels = self.pfb.channelize(antenna_timeseries)  # (A, C, T')
        tau = geometric_delay(self._antennas, pointing_l, pointing_m)
        freqs = self.channel_frequencies()
        # Align: conjugate of the arrival phase per (channel, antenna).
        weights = np.exp(2j * np.pi * freqs[:, None] * tau[None, :]).astype(np.complex64)
        beam = np.einsum("ca,act->ct", weights, channels) / self.config.n_antennas
        return beam.astype(np.complex64)

    def simulate_antenna_source(
        self, source_l: float, source_m: float, n_samples: int, flux: float = 1.0, seed: int = 0
    ) -> np.ndarray:
        """Plane-wave noise signal from one direction at every antenna.

        Baseband model: the (narrowband) delay appears as a phase at the
        centre frequency plus a sub-sample delay we approximate by that
        phase — adequate for a 30 m aperture at LOFAR bands.
        """
        rng = make_rng(derive_seed(seed, "station-source"))
        signal = (rng.normal(size=n_samples) + 1j * rng.normal(size=n_samples)) * np.sqrt(
            flux / 2.0
        )
        tau = geometric_delay(self._antennas, source_l, source_m)
        phases = np.exp(-2j * np.pi * self.f_centre_hz * tau)
        return (phases[:, None] * signal[None, :]).astype(np.complex64)

    def beam_gain(self, pointing: tuple[float, float], source: tuple[float, float]) -> float:
        """Analytic station-beam power response for a source direction."""
        tau_p = geometric_delay(self._antennas, *pointing)
        tau_s = geometric_delay(self._antennas, *source)
        af = np.exp(2j * np.pi * self.f_centre_hz * (tau_p - tau_s)).mean()
        return float(np.abs(af) ** 2)
