"""Central LOFAR beamformer: TCBF vs reference, incoherent mode, pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.radioastronomy import (
    LOFARBeamformer,
    Observation,
    PointSource,
    Pulsar,
    ReferenceBeamformer,
    beam_grid,
    generate_station_data,
    incoherent_beam,
    lofar_like_layout,
    run_observation,
    steering_weights,
)
from repro.errors import ShapeError
from repro.gpusim.device import Device, ExecutionMode


@pytest.fixture(scope="module")
def observation_setup():
    layout = lofar_like_layout(16)
    obs = Observation(layout=layout, n_channels=4, n_samples=128)
    src = PointSource(dir_l=0.004, dir_m=-0.006, flux=4.0)
    data = generate_station_data(obs, [src])
    dirs = beam_grid(9, fov_radius=0.012)
    # snap beam 4 (centre) onto the source for a guaranteed main-lobe hit
    dirs[4] = [src.dir_l, src.dir_m]
    weights = steering_weights(layout, obs.channel_frequencies(), dirs)
    return layout, obs, src, data, dirs, weights


class TestCoherentBeamforming:
    def test_on_source_beam_strongest(self, observation_setup):
        layout, obs, src, data, dirs, weights = observation_setup
        bf = LOFARBeamformer(Device("A100"), 9, 16, 128, 4)
        out = bf.form_beams(weights, data)
        powers = (np.abs(out.beams) ** 2).mean(axis=(0, 2))
        assert powers.argmax() == 4

    def test_matches_reference_numerically(self, observation_setup):
        layout, obs, src, data, dirs, weights = observation_setup
        dev = Device("A100")
        tc = LOFARBeamformer(dev, 9, 16, 128, 4).form_beams(weights, data)
        ref, _ = ReferenceBeamformer(dev, 9, 16, 128, 4).form_beams(weights, data)
        rel = np.abs(tc.beams - ref).max() / np.abs(ref).max()
        assert rel < 2e-3  # float16 quantization only

    def test_operand_shapes_validated(self, observation_setup):
        *_, weights = observation_setup
        bf = LOFARBeamformer(Device("A100"), 9, 16, 128, 4)
        with pytest.raises(ShapeError):
            bf.form_beams(weights, np.zeros((4, 3, 128), dtype=np.complex64))
        with pytest.raises(ShapeError):
            bf.form_beams(None, None)

    def test_dry_run_cost_only(self):
        dev = Device("GH200", ExecutionMode.DRY_RUN)
        bf = LOFARBeamformer(dev, 1024, 48, 1024, 256)
        out = bf.form_beams()
        assert out.beams is None
        assert out.cost.useful_ops == pytest.approx(8 * 256 * 1024 * 1024 * 48)


class TestIncoherentBeam:
    def test_functional_values(self, observation_setup, rng):
        *_, data, dirs, weights = observation_setup
        dev = Device("A100")
        out, cost = incoherent_beam(dev, data, 4, 16, 128)
        assert out.shape == (4, 128)
        assert np.allclose(out, (np.abs(data) ** 2).sum(axis=1), rtol=1e-5)

    def test_memory_bound(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        _, cost = incoherent_beam(dev, None, 256, 512, 1024)
        assert cost.bound.value == "memory"

    def test_much_cheaper_than_coherent(self):
        # "Computationally less demanding" — paper §V-B.
        dev = Device("A100", ExecutionMode.DRY_RUN)
        coherent = LOFARBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        _, inc = incoherent_beam(dev, None, 256, 512, 1024)
        assert inc.time_s < coherent.time_s / 3


class TestReferenceBeamformer:
    def test_compute_bound_at_large_k(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        cost = ReferenceBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        assert cost.detail["t_math"] > cost.detail["t_dram"]

    def test_never_exceeds_fp32_peak(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        cost = ReferenceBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        assert cost.ops_per_second < dev.spec.fp32_peak_ops()

    def test_tcbf_speedup_shape_vs_paper(self):
        # Paper: up to ~20x at many receivers, crossover at very few.
        dev = Device("A100", ExecutionMode.DRY_RUN)

        def speedup(k):
            t = LOFARBeamformer(dev, 1024, k, 1024, 256).predict_cost()
            r = ReferenceBeamformer(dev, 1024, k, 1024, 256).predict_cost()
            return t.ops_per_second / r.ops_per_second

        assert speedup(8) < 2.0
        assert 3.0 < speedup(48) < 10.0
        assert 10.0 < speedup(512) < 25.0

    def test_energy_advantage(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        t = LOFARBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        r = ReferenceBeamformer(dev, 1024, 512, 1024, 256).predict_cost()
        assert 5.0 < t.ops_per_joule / r.ops_per_joule < 25.0  # paper: ~10x


class TestEndToEndPipeline:
    def test_pulsar_detected_in_correct_beam(self):
        dirs = beam_grid(25, fov_radius=0.02)
        psr = Pulsar(
            dir_l=float(dirs[7][0]), dir_m=float(dirs[7][1]), flux=4.0,
            period_s=6.4e-4, duty_cycle=0.15, dm_pc_cm3=5.0,
        )
        res = run_observation(Device("A100"), [psr], n_stations=24, n_beams=25,
                              n_channels=8, n_samples=512)
        snrs = np.array([d.snr for d in res.detections])
        assert res.detections[7].detected
        assert snrs[7] > 3 * np.delete(snrs, 7).max()

    def test_observation_metadata(self):
        src = PointSource(dir_l=0.0, dir_m=0.0, flux=2.0)
        res = run_observation(Device("A100"), [src], n_stations=8, n_beams=4,
                              n_channels=2, n_samples=64, search_pulsars=False)
        assert res.beams.shape == (2, 4, 64)
        assert res.beam_powers().shape == (4, 2, 64)
        assert res.detections == []
