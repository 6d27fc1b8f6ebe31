"""End-to-end LOFAR observation pipeline.

Wires the substrates together the way the real instrument does (paper
§V-B): sky -> station signals -> central tensor-core beamformer -> tied
beams -> pulsar search. Used by the examples and the integration tests;
the Fig 7 performance sweep lives in :mod:`repro.bench.fig7`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.radioastronomy.beamformer import LOFARBeamformer
from repro.apps.radioastronomy.coordinates import lofar_like_layout
from repro.apps.radioastronomy.pulsar import PulsarDetection, search_beams
from repro.apps.radioastronomy.sky import Observation, PointSource, Pulsar, generate_station_data
from repro.apps.radioastronomy.weights import beam_grid, steering_weights
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device
from repro.gpusim.timing import KernelCost


@dataclass
class ObservationResult:
    """Everything one synthetic observation produced."""

    observation: Observation
    beam_directions: np.ndarray
    #: (n_channels, n_beams, n_samples) complex voltage beams.
    beams: np.ndarray
    cost: KernelCost
    detections: list[PulsarDetection] = field(default_factory=list)

    def beam_powers(self) -> np.ndarray:
        """(n_beams, n_channels, n_samples) power cube for post-processing."""
        return np.transpose(np.abs(self.beams) ** 2, (1, 0, 2))


def run_observation(
    device: Device,
    sources: list[PointSource],
    n_stations: int = 24,
    n_beams: int = 25,
    n_channels: int = 8,
    n_samples: int = 256,
    fov_radius: float = 0.02,
    precision: Precision = Precision.FLOAT16,
    search_pulsars: bool = True,
    seed: int = 99,
) -> ObservationResult:
    """Simulate and beamform one observation on a functional device."""
    layout = lofar_like_layout(n_stations, seed=seed)
    obs = Observation(layout=layout, n_channels=n_channels, n_samples=n_samples, seed=seed)
    data = generate_station_data(obs, sources)  # (C, S, T)
    dirs = beam_grid(n_beams, fov_radius=fov_radius)
    weights = steering_weights(layout, obs.channel_frequencies(), dirs)  # (C, B, S)
    beamformer = LOFARBeamformer(
        device,
        n_beams=n_beams,
        n_stations=n_stations,
        n_samples=n_samples,
        n_channels=n_channels,
        precision=precision,
    )
    out = beamformer.form_beams(weights, data)
    result = ObservationResult(
        observation=obs, beam_directions=dirs, beams=out.beams, cost=out.cost
    )
    pulsars = [s for s in sources if isinstance(s, Pulsar)]
    if search_pulsars and pulsars:
        psr = pulsars[0]
        result.detections = search_beams(
            result.beam_powers(),
            dm_pc_cm3=psr.dm_pc_cm3,
            period_s=psr.period_s,
            channel_frequencies_hz=obs.channel_frequencies(),
            sample_time_s=obs.sample_time_s,
        )
    return result
