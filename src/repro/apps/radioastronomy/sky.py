"""Sky models: point sources and pulsars generating station data.

The substitution for the paper's real LOFAR beamlet recordings (§V-B): synthetic
channelized station signals with known ground truth, so tests can verify the
central beamformer points where it should. Radio emission is modelled as
band-limited complex Gaussian noise (the physically correct statistics),
with a pulsar being noise modulated by a periodic pulse envelope whose
arrival time is dispersed across frequency by the interstellar medium::

    t_delay(f) = 4.149 ms * DM * [(f_ref/GHz)^-2 - (f/GHz)^-2]

Station signals carry the plane-wave phase of each source's direction, which
is exactly what the central (coherent) beamformer undoes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.radioastronomy.coordinates import ArrayLayout, geometric_delay
from repro.util.rng import derive_seed, make_rng

#: dispersion constant in ms GHz^2 / (pc cm^-3).
DISPERSION_MS = 4.149


@dataclass(frozen=True)
class PointSource:
    """A steady source of band-limited Gaussian noise.

    ``dir_l``/``dir_m`` are its direction cosines (l, m), the arguments of
    :func:`~repro.apps.radioastronomy.coordinates.geometric_delay`.
    """

    dir_l: float
    dir_m: float
    flux: float = 1.0
    label: str = "source"

    def envelope(self, t_s: np.ndarray, f_hz: float) -> np.ndarray:
        """Emission power envelope over time (steady: all ones)."""
        return np.ones_like(t_s)


@dataclass(frozen=True)
class Pulsar(PointSource):
    """A pulsing source with interstellar dispersion.

    ``period_s`` and ``duty_cycle`` define the pulse train; ``dm_pc_cm3``
    disperses the arrival time across the band relative to ``f_ref_hz``.
    """

    period_s: float = 0.1
    duty_cycle: float = 0.08
    dm_pc_cm3: float = 30.0
    f_ref_hz: float = 150e6
    label: str = "pulsar"

    def dispersion_delay_s(self, f_hz: float) -> float:
        """Arrival delay at ``f_hz`` relative to the reference frequency."""
        f_ghz = f_hz / 1e9
        ref_ghz = self.f_ref_hz / 1e9
        return DISPERSION_MS * 1e-3 * self.dm_pc_cm3 * (f_ghz**-2 - ref_ghz**-2)

    def envelope(self, t_s: np.ndarray, f_hz: float) -> np.ndarray:
        """Pulse-train power envelope including dispersion delay."""
        phase = ((t_s - self.dispersion_delay_s(f_hz)) / self.period_s) % 1.0
        return (phase < self.duty_cycle).astype(np.float64)


@dataclass(frozen=True)
class Observation:
    """One synthetic observation's static parameters."""

    layout: ArrayLayout
    f_centre_hz: float = 150e6
    bandwidth_hz: float = 3.2e6
    n_channels: int = 16
    n_samples: int = 256
    sample_time_s: float = 5e-6  # per channelized sample (1/channel BW)
    noise_level: float = 1.0
    seed: int = 99

    def channel_frequencies(self) -> np.ndarray:
        offsets = np.fft.fftfreq(self.n_channels) * self.bandwidth_hz
        return self.f_centre_hz + offsets


def generate_station_data(obs: Observation, sources: list[PointSource]) -> np.ndarray:
    """Channelized station signals X of shape (n_channels, n_stations, n_samples).

    For each source s, channel ch, station st::

        X += sqrt(flux) * a_s(ch, t) * exp(-2*pi*i * f_ch * tau_st(s))

    where ``a_s`` is unit-variance complex Gaussian noise gated by the
    source's emission envelope, and independent receiver noise of RMS
    ``noise_level`` is added per (station, channel, sample).
    """
    rng = make_rng(derive_seed(obs.seed, "station-data"))
    freqs = obs.channel_frequencies()
    n_ch, n_st, n_t = obs.n_channels, obs.layout.n_stations, obs.n_samples
    t = np.arange(n_t) * obs.sample_time_s
    data = np.zeros((n_ch, n_st, n_t), dtype=np.complex64)
    for source in sources:
        tau = geometric_delay(obs.layout.positions, source.dir_l, source.dir_m)
        for ch, f in enumerate(freqs):
            amp = rng.normal(size=n_t) + 1j * rng.normal(size=n_t)
            amp *= np.sqrt(source.flux / 2.0) * np.sqrt(source.envelope(t, f))
            steering = np.exp(-2j * np.pi * f * tau)
            data[ch] += np.outer(steering, amp).astype(np.complex64)
    noise = rng.normal(scale=obs.noise_level / np.sqrt(2.0), size=(2, n_ch, n_st, n_t))
    data += (noise[0] + 1j * noise[1]).astype(np.complex64)
    return data


def expected_beam_power(
    obs: Observation, source: PointSource, beam_l: float, beam_m: float
) -> float:
    """Coherent-beam response of a steady source in a given beam direction.

    Normalized array factor |sum_st exp(i phi_st)|^2 / n^2 evaluated at the
    centre frequency; tests compare measured beam powers against this.
    """
    tau_src = geometric_delay(obs.layout.positions, source.dir_l, source.dir_m)
    tau_beam = geometric_delay(obs.layout.positions, beam_l, beam_m)
    phase = 2.0 * np.pi * obs.f_centre_hz * (tau_beam - tau_src)
    af = np.exp(1j * phase).mean()
    return float(source.flux * np.abs(af) ** 2)
