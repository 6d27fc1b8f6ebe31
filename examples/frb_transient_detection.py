#!/usr/bin/env python3
"""Incoherent-mode transient (FRB) detection — paper §V-B's other mode.

"Incoherent beamforming discards phase information and instead combines the
power from each station, creating a broader beam with a wider field of view
but lower resolution. This method is computationally less demanding and is
well-suited for all-sky surveys and transient detection."

This script simulates a one-off dispersed burst (an FRB) arriving from a
direction *outside* the tied-array beam grid, shows that:

* the coherent tied beams miss it (narrow field of view — the paper's
  stated trade-off);
* the incoherent beam catches it after dedispersion at the right DM;
* the incoherent reduction costs a small fraction of the coherent GEMM.

Run:  python examples/frb_transient_detection.py
"""

import numpy as np

from repro import Device, ExecutionMode
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

rng = np.random.default_rng(42)

# --- simulate: a single dispersed burst far off the tied-beam grid -----------
layout = lofar_like_layout(24)
obs = Observation(layout=layout, n_channels=16, n_samples=1024, seed=42)
# Model the burst as one "pulse" of a very-long-period pulsar: exactly one
# pulse falls inside the observation window.
burst = Pulsar(
    dir_l=0.15, dir_m=-0.12,  # far outside the 0.02-radius tied-beam grid
    flux=25.0,
    period_s=obs.n_samples * obs.sample_time_s * 2,  # one pulse per window
    duty_cycle=0.004,
    dm_pc_cm3=60.0,
)
steady = PointSource(dir_l=0.001, dir_m=0.001, flux=1.0)
data = generate_station_data(obs, [burst, steady])
print(f"simulated {obs.n_channels} channels x {layout.n_stations} stations x "
      f"{obs.n_samples} samples; burst at (l,m)=({burst.dir_l}, {burst.dir_m}), "
      f"DM={burst.dm_pc_cm3}")

# --- coherent tied-array beams: narrow FoV misses the burst -------------------
device = Device("A100")
dirs = beam_grid(16, fov_radius=0.02)
weights = steering_weights(layout, obs.channel_frequencies(), dirs)
bf = LOFARBeamformer(device, 16, layout.n_stations, obs.n_samples, obs.n_channels)
coherent = bf.form_beams(weights, data)
coh_power = np.abs(coherent.beams) ** 2  # (C, B, T)


def burst_snr(dynspec: np.ndarray) -> float:
    """Dedisperse at the burst DM, collapse frequency, peak significance."""
    fixed = dedisperse(dynspec, burst.dm_pc_cm3, obs.channel_frequencies(), obs.sample_time_s)
    series = fixed.sum(axis=0)
    baseline = np.median(series)
    mad = np.median(np.abs(series - baseline)) * 1.4826 + 1e-12
    return float((series.max() - baseline) / mad)


coh_snrs = np.array([burst_snr(coh_power[:, b, :]) for b in range(16)])
# The burst leaks into every tied beam through sidelobes at roughly equal
# strength: it is *detected* but cannot be *localized* — the paper's
# "restricted field of view unless multiple beams are synthesized" and
# "complex instantaneous sidelobe pattern" trade-offs.
spread = coh_snrs.max() / np.median(coh_snrs)
print(f"\ncoherent tied beams (FoV radius 0.02): burst S/N "
      f"{coh_snrs.min():.0f}..{coh_snrs.max():.0f} across all 16 beams "
      f"(max/median = {spread:.2f} — sidelobe pickup, no localization)")

# Contrast: an in-field source is sharply localized by the same beam grid.
infield = PointSource(dir_l=float(dirs[5][0]), dir_m=float(dirs[5][1]), flux=2.0)
data_in = generate_station_data(obs, [infield])
beams_in = bf.form_beams(weights, data_in)
p_in = (np.abs(beams_in.beams) ** 2).mean(axis=(0, 2))
print(f"for comparison, an in-field steady source: beam {int(p_in.argmax())} "
      f"holds {p_in.max() / np.median(p_in):.1f}x the median beam power "
      "(sharp localization inside the tied-beam grid)")

# --- incoherent beam: wide FoV catches it --------------------------------------
incoh, incoh_cost = incoherent_beam(
    device, data, obs.n_channels, layout.n_stations, obs.n_samples
)
incoh_snr = burst_snr(incoh)
print(f"incoherent station-power beam: burst S/N = {incoh_snr:.1f} "
      f"after dedispersion at DM {burst.dm_pc_cm3}")

# Without dedispersion the sweep smears the burst across the window.
series_raw = incoh.sum(axis=0)
baseline = np.median(series_raw)
mad = np.median(np.abs(series_raw - baseline)) * 1.4826 + 1e-12
print(f"undedispersed incoherent S/N = {(series_raw.max() - baseline) / mad:.1f} "
      "(dispersion smears the burst)")

# --- cost comparison -------------------------------------------------------------
dry = Device("A100", ExecutionMode.DRY_RUN)
coh_cost = LOFARBeamformer(dry, 1024, layout.n_stations, obs.n_samples,
                           obs.n_channels).predict_cost()
_, inc_cost = incoherent_beam(dry, None, obs.n_channels, layout.n_stations, obs.n_samples)
print(f"\nmodelled cost: coherent (1024 beams) {coh_cost.time_s * 1e6:.0f} us "
      f"vs incoherent {inc_cost.time_s * 1e6:.1f} us "
      f"({coh_cost.time_s / inc_cost.time_s:.0f}x — 'computationally less "
      "demanding', paper §V-B)")
