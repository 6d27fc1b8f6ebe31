"""Incoherent-mode transient detection scenario (paper §V-B trade-offs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.radioastronomy import (
    LOFARBeamformer,
    Observation,
    PointSource,
    Pulsar,
    beam_grid,
    dedisperse,
    generate_station_data,
    incoherent_beam,
    lofar_like_layout,
    steering_weights,
)
from repro.gpusim.device import Device


@pytest.fixture(scope="module")
def burst_scene():
    layout = lofar_like_layout(24)
    obs = Observation(layout=layout, n_channels=16, n_samples=1024, seed=42)
    burst = Pulsar(
        dir_l=0.15, dir_m=-0.12, flux=25.0,
        period_s=obs.n_samples * obs.sample_time_s * 2,  # one pulse in window
        duty_cycle=0.004, dm_pc_cm3=60.0,
    )
    data = generate_station_data(obs, [burst])
    return layout, obs, burst, data


def _peak_snr(series: np.ndarray) -> float:
    baseline = np.median(series)
    mad = np.median(np.abs(series - baseline)) * 1.4826 + 1e-12
    return float((series.max() - baseline) / mad)


class TestIncoherentTransientDetection:
    def test_dedispersion_required(self, burst_scene):
        layout, obs, burst, data = burst_scene
        incoh, _ = incoherent_beam(
            Device("A100"), data, obs.n_channels, layout.n_stations, obs.n_samples
        )
        fixed = dedisperse(incoh, burst.dm_pc_cm3, obs.channel_frequencies(), obs.sample_time_s)
        snr_dedispersed = _peak_snr(fixed.sum(axis=0))
        snr_raw = _peak_snr(incoh.sum(axis=0))
        assert snr_dedispersed > 2 * snr_raw
        assert snr_dedispersed > 10

    def test_out_of_field_burst_not_localized_by_tied_beams(self, burst_scene):
        layout, obs, burst, data = burst_scene
        dirs = beam_grid(16, fov_radius=0.02)  # burst far outside
        weights = steering_weights(layout, obs.channel_frequencies(), dirs)
        bf = LOFARBeamformer(Device("A100"), 16, layout.n_stations, obs.n_samples, obs.n_channels)
        beams = bf.form_beams(weights, data)
        p = (np.abs(beams.beams) ** 2).mean(axis=(0, 2))
        # sidelobe pickup: no beam dominates the grid.
        assert p.max() / np.median(p) < 6.0

    def test_in_field_source_is_localized(self, burst_scene):
        layout, obs, *_ = burst_scene
        dirs = beam_grid(16, fov_radius=0.02)
        src = PointSource(dir_l=float(dirs[5][0]), dir_m=float(dirs[5][1]), flux=2.0)
        data = generate_station_data(obs, [src])
        weights = steering_weights(layout, obs.channel_frequencies(), dirs)
        bf = LOFARBeamformer(Device("A100"), 16, layout.n_stations, obs.n_samples, obs.n_channels)
        beams = bf.form_beams(weights, data)
        p = (np.abs(beams.beams) ** 2).mean(axis=(0, 2))
        assert int(p.argmax()) == 5
        assert p.max() / np.median(p) > 5.0

    def test_incoherent_far_cheaper_than_wide_tied_grid(self, burst_scene):
        layout, obs, *_ = burst_scene
        from repro.gpusim.device import ExecutionMode

        dry = Device("A100", ExecutionMode.DRY_RUN)
        coh = LOFARBeamformer(dry, 1024, layout.n_stations, obs.n_samples,
                              obs.n_channels).predict_cost()
        _, inc = incoherent_beam(dry, None, obs.n_channels, layout.n_stations, obs.n_samples)
        assert coh.time_s / inc.time_s > 5
