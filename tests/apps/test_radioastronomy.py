"""Radio-astronomy substrates: layout, channelizer, sky, station, pulsar."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.radioastronomy import (
    DISPERSION_MS,
    Observation,
    PointSource,
    PolyphaseFilterbank,
    Pulsar,
    StationBeamformer,
    StationConfig,
    beam_grid,
    dedisperse,
    expected_beam_power,
    fft_filterbank,
    fold,
    generate_station_data,
    geometric_delay,
    lofar_like_layout,
    profile_snr,
    steering_weights,
)
from repro.errors import ShapeError


def leakage_db(filterbank_output: np.ndarray, tone_channel: int) -> float:
    """Power ratio (dB) between the strongest off-tone channel and the tone.

    ``filterbank_output`` has shape (C, T').
    """
    power = (np.abs(filterbank_output) ** 2).mean(axis=-1)
    tone = power[tone_channel]
    rest = np.delete(power, tone_channel)
    return 10.0 * np.log10(float(rest.max()) / float(tone))


class TestLayout:
    def test_station_count(self):
        assert lofar_like_layout(48).n_stations == 48

    def test_core_and_remote_radii(self):
        layout = lofar_like_layout(40, core_radius_m=2000, max_radius_m=80000)
        radii = np.linalg.norm(layout.positions, axis=1)
        assert radii.min() < 2000
        assert radii.max() > 40000

    def test_geometric_delay_zenith_zero(self):
        layout = lofar_like_layout(8)
        assert np.all(geometric_delay(layout.positions, 0.0, 0.0) == 0.0)

    def test_geometric_delay_linear_in_direction(self):
        pos = np.array([[1000.0, 0.0]])
        d1 = geometric_delay(pos, 0.01, 0.0)
        d2 = geometric_delay(pos, 0.02, 0.0)
        assert d2[0] == pytest.approx(2 * d1[0])

    def test_delay_shape_validation(self):
        with pytest.raises(ShapeError):
            geometric_delay(np.zeros((3,)), 0.1, 0.1)


class TestChannelizer:
    def test_tone_lands_in_its_channel(self):
        pfb = PolyphaseFilterbank(16, 8)
        t = np.arange(16 * 64)
        tone = np.exp(2j * np.pi * (5 / 16) * t)
        out = pfb.channelize(tone)
        power = (np.abs(out) ** 2).mean(axis=-1)
        assert power.argmax() == 5

    def test_pfb_beats_fft_filterbank_on_leakage(self):
        # An off-bin tone: the PFB must suppress leakage far better.
        t = np.arange(16 * 128)
        tone = np.exp(2j * np.pi * ((3 + 0.31) / 16) * t)
        pfb_leak = leakage_db(PolyphaseFilterbank(16, 8).channelize(tone), 3)
        fft_leak = leakage_db(fft_filterbank(tone, 16), 3)
        assert pfb_leak < fft_leak - 20.0

    def test_output_shape(self):
        pfb = PolyphaseFilterbank(8, 4)
        out = pfb.channelize(np.zeros((3, 8 * 16), dtype=np.complex64))
        assert out.shape == (3, 8, 16 - 3)

    def test_input_length_validated(self):
        pfb = PolyphaseFilterbank(8, 4)
        with pytest.raises(ShapeError):
            pfb.channelize(np.zeros(12))
        with pytest.raises(ShapeError):
            pfb.channelize(np.zeros(16))  # multiple of 8 but < taps window

    def test_prototype_unit_dc_gain(self):
        h = PolyphaseFilterbank(16, 8).prototype()
        assert h.sum() == pytest.approx(1.0)

    def test_channel_frequencies(self):
        pfb = PolyphaseFilterbank(4, 2)
        freqs = pfb.channel_frequencies(100e6, 4e6)
        assert freqs[0] == pytest.approx(100e6)
        assert len(freqs) == 4


class TestSky:
    def test_station_data_shape(self):
        obs = Observation(layout=lofar_like_layout(6), n_channels=4, n_samples=64)
        data = generate_station_data(obs, [PointSource(dir_l=0.01, dir_m=0.0, flux=1.0)])
        assert data.shape == (4, 6, 64)
        assert data.dtype == np.complex64

    def test_source_raises_power_over_noise(self):
        obs = Observation(layout=lofar_like_layout(6), n_channels=4, n_samples=256, noise_level=0.1)
        quiet = generate_station_data(obs, [])
        loud = generate_station_data(obs, [PointSource(dir_l=0.0, dir_m=0.0, flux=5.0)])
        assert (np.abs(loud) ** 2).mean() > 5 * (np.abs(quiet) ** 2).mean()

    def test_dispersion_delay_formula(self):
        psr = Pulsar(dir_l=0, dir_m=0, dm_pc_cm3=10.0, f_ref_hz=200e6)
        delay = psr.dispersion_delay_s(150e6)
        expected = DISPERSION_MS * 1e-3 * 10.0 * ((0.15) ** -2 - (0.2) ** -2)
        assert delay == pytest.approx(expected)
        assert delay > 0  # lower frequency arrives later

    def test_pulsar_envelope_duty_cycle(self):
        psr = Pulsar(dir_l=0, dir_m=0, period_s=0.1, duty_cycle=0.2, dm_pc_cm3=0.0)
        t = np.linspace(0, 1.0, 10000)
        env = psr.envelope(t, psr.f_ref_hz)
        assert env.mean() == pytest.approx(0.2, abs=0.02)

    def test_expected_beam_power_peaks_on_source(self):
        obs = Observation(layout=lofar_like_layout(16), n_channels=2, n_samples=16)
        src = PointSource(dir_l=0.003, dir_m=-0.002, flux=2.0)
        on = expected_beam_power(obs, src, src.dir_l, src.dir_m)
        off = expected_beam_power(obs, src, src.dir_l + 0.01, src.dir_m)
        assert on == pytest.approx(2.0)
        assert off < on / 5


class TestStationBeamformer:
    def test_gain_toward_pointing(self):
        st = StationBeamformer(StationConfig(n_antennas=16), 150e6, 3.2e6)
        assert st.beam_gain((0.01, 0.0), (0.01, 0.0)) == pytest.approx(1.0)

    def test_off_axis_suppression(self):
        st = StationBeamformer(StationConfig(n_antennas=24), 150e6, 3.2e6)
        # 30 m aperture at 2 m wavelength: beamwidth ~ 0.07 rad.
        assert st.beam_gain((0.0, 0.0), (0.3, 0.0)) < 0.3

    def test_station_beam_recovers_on_axis_source(self):
        cfg = StationConfig(n_antennas=12, n_channels=8, n_taps=4)
        st = StationBeamformer(cfg, 150e6, 3.2e6)
        x = st.simulate_antenna_source(0.05, 0.0, n_samples=8 * 32)
        on = st.form_station_beam(x, 0.05, 0.0)
        off = st.form_station_beam(x, -0.25, 0.1)
        assert (np.abs(on) ** 2).sum() > 3 * (np.abs(off) ** 2).sum()

    def test_antenna_count_checked(self):
        st = StationBeamformer(StationConfig(n_antennas=4), 150e6, 3.2e6)
        with pytest.raises(ShapeError):
            st.form_station_beam(np.zeros((3, 64), dtype=np.complex64), 0, 0)


class TestWeights:
    def test_shape_and_magnitude(self):
        layout = lofar_like_layout(12)
        w = steering_weights(layout, np.array([150e6, 151e6]), beam_grid(9))
        assert w.shape == (2, 9, 12)
        assert np.allclose(np.abs(w), 1.0 / 12, atol=1e-6)

    def test_unnormalized(self):
        layout = lofar_like_layout(5)
        w = steering_weights(layout, np.array([150e6]), beam_grid(4), normalize=False)
        assert np.allclose(np.abs(w), 1.0, atol=1e-6)

    def test_beam_grid_count_and_extent(self):
        dirs = beam_grid(25, fov_radius=0.02)
        assert dirs.shape == (25, 2)
        assert np.abs(dirs).max() <= 0.02 + 1e-12

    def test_direction_validation(self):
        with pytest.raises(ShapeError):
            steering_weights(lofar_like_layout(4), np.array([1e8]), np.zeros((3,)))


class TestPulsarProcessing:
    def test_dedispersion_aligns_channels(self):
        freqs = np.array([140e6, 150e6, 160e6])
        t_sample = 1e-3
        dm = 20.0
        n = 512
        spectrum = np.zeros((3, n))
        # place a pulse in each channel at its dispersed arrival time
        psr = Pulsar(dir_l=0, dir_m=0, dm_pc_cm3=dm, f_ref_hz=160e6)
        for ch, f in enumerate(freqs):
            shift = int(round(psr.dispersion_delay_s(f) / t_sample))
            spectrum[ch, (100 + shift) % n] = 1.0
        fixed = dedisperse(spectrum, dm, freqs, t_sample)
        series = fixed.sum(axis=0)
        assert series.max() == pytest.approx(3.0)
        assert series.argmax() == 100

    def test_fold_recovers_phase(self):
        t_sample = 1e-3
        period = 0.05
        n = 5000
        series = np.zeros(n)
        t = np.arange(n) * t_sample
        series[((t / period) % 1.0) < 0.1] = 1.0
        profile = fold(series, period, t_sample, n_bins=20)
        assert profile[:2].mean() > 5 * profile[10:18].mean()

    def test_profile_snr_flat_is_low(self, rng):
        flat = rng.normal(1.0, 0.1, size=32)
        assert profile_snr(flat) < 5.0

    def test_profile_snr_pulse_is_high(self):
        profile = np.zeros(32)
        profile[3] = 10.0
        assert profile_snr(profile) > 5.0

    def test_validation(self):
        with pytest.raises(ShapeError):
            dedisperse(np.zeros(5), 1.0, np.zeros(5), 1e-3)
        with pytest.raises(ShapeError):
            fold(np.zeros((2, 2)), 0.1, 1e-3)
        with pytest.raises(ShapeError):
            profile_snr(np.zeros(2))
