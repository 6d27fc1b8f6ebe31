#!/usr/bin/env python3
"""LOFAR-style pulsar observation end to end — paper §V-B.

Simulates a 24-station array observing a dispersed pulsar plus a steady
confusion source, beamforms a grid of 25 tied-array beams with the 16-bit
tensor-core beamformer, dedisperses and folds every beam, and reports which
beam detects the pulsar. It streams the same data again in blocks, with the
beam weights prepared once, and then compares TCBF against the float32
reference beamformer across receiver counts (the Fig 7 story).

Run:  python examples/lofar_pulsar_search.py
"""

import numpy as np

from repro import Device, ExecutionMode
from repro.apps.radioastronomy import (
    LOFARBeamformer,
    PointSource,
    Pulsar,
    ReferenceBeamformer,
    beam_grid,
    generate_station_data,
    run_observation,
    steering_weights,
)
from repro.util.units import tera

# --- the observation -----------------------------------------------------------
directions = beam_grid(25, fov_radius=0.02)
target = directions[7]
pulsar = Pulsar(
    l=float(target[0]), m=float(target[1]),
    flux=4.0, period_s=6.4e-4, duty_cycle=0.15, dm_pc_cm3=5.0,
)
confusion = PointSource(l=float(directions[20][0]), m=float(directions[20][1]), flux=2.0)
print(f"observing: pulsar P={pulsar.period_s * 1e3:.2f} ms, DM={pulsar.dm_pc_cm3} "
      f"pc/cm^3 at beam 7; steady confusion source at beam 20")

device = Device("A100")
result = run_observation(
    device, [pulsar, confusion],
    n_stations=24, n_beams=25, n_channels=8, n_samples=512,
)
print(f"beamformed {result.beams.shape[1]} beams x {result.beams.shape[0]} channels "
      f"x {result.beams.shape[2]} samples "
      f"(modelled GEMM: {result.cost.ops_per_second / tera:.2f} TFLOPs/s)")

# --- pulsar search --------------------------------------------------------------
snrs = np.array([d.snr for d in result.detections])
best = int(snrs.argmax())
print("\nfolded-profile S/N per beam (5x5 grid):")
for row in range(5):
    print("  " + "  ".join(f"{snrs[row * 5 + col]:7.1f}" for col in range(5)))
print(f"\npulsar recovered in beam {best} "
      f"(true beam 7, detected: {result.detections[best].detected}); "
      f"on/off-beam S/N contrast: "
      f"{snrs[7] / np.delete(snrs, 7).max():.1f}x")
profile = result.detections[7].profile
bar = "".join("#" if v > profile.mean() else "." for v in profile)
print(f"beam-7 pulse profile: [{bar}]")

# --- streaming: the weight set is fixed for the observation ------------------------
# A real beamformer sees station data arrive block by block while the beam
# weights stay put, so it prepares the weights once and passes None per block.
obs = result.observation
weights = steering_weights(obs.layout, obs.channel_frequencies(), result.beam_directions)
stream = LOFARBeamformer(device, n_beams=25, n_stations=24, n_samples=128, n_channels=8)
stream.prepare_weights(weights)
blocks = np.split(generate_station_data(obs, [pulsar, confusion]), 4, axis=-1)
streamed = np.concatenate([stream.form_beams(None, blk).beams for blk in blocks], axis=-1)
dev = np.abs(streamed - result.beams).max() / np.abs(result.beams).max()
print(f"\nstreamed the same data as {len(blocks)} blocks of 128 samples, weights "
      f"prepared once: max deviation from the one-block beams {dev:.1e} "
      f"(each block's own float16 scaling)")

# --- Fig 7: TCBF vs the reference float32 beamformer -----------------------------
print("\nTCBF vs reference beamformer (A100, 1024 beams, 1024 samples, batch 256):")
print(f"  {'receivers':>9s} {'TCBF TFLOPs/s':>14s} {'ref TFLOPs/s':>13s} "
      f"{'speedup':>8s} {'energy adv.':>11s}")
dry = Device("A100", ExecutionMode.DRY_RUN)
for k in (8, 16, 48, 128, 256, 512):
    tcbf = LOFARBeamformer(dry, 1024, k, 1024, 256).predict_cost()
    ref = ReferenceBeamformer(dry, 1024, k, 1024, 256).predict_cost()
    print(f"  {k:9d} {tcbf.ops_per_second / tera:14.1f} "
          f"{ref.ops_per_second / tera:13.1f} "
          f"{tcbf.ops_per_second / ref.ops_per_second:7.1f}x "
          f"{tcbf.ops_per_joule / ref.ops_per_joule:10.1f}x")
print("\n(paper: 'the TCBF is up to 20 times faster and 10 times more energy "
      "efficient than the reference beamformer'; crossover at very few receivers)")
