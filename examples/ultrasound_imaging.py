#!/usr/bin/env python3
"""Computational ultrasound imaging (cUSi) end to end — paper §V-A.

Builds a coded-aperture imaging model, simulates an ensemble of frames of a
vascular phantom (flowing blood inside dominant stationary tissue), runs
the Doppler clutter filter, sign-quantizes, reconstructs with the 1-bit
tensor-core beamformer, and displays maximum-intensity projections — the
Fig 6 pipeline at functional scale. It then prints the Fig 5 real-time
analysis for the NVIDIA GPUs at paper scale.

Run:  python examples/ultrasound_imaging.py
"""

from repro import Device, Precision
from repro.apps.ultrasound import (
    ClutterFilter,
    EnsembleConfig,
    ImagingConfig,
    TransducerArray,
    UltrasoundBeamformer,
    VoxelGrid,
    apply_clutter_filter,
    build_model_matrix,
    contrast_db,
    frames_per_second,
    make_phantom,
    max_intensity_projections,
    max_realtime_voxels,
    power_doppler,
    render_ascii,
    simulate_frames,
    FULL_VOLUME_VOXELS,
    REQUIRED_FPS,
    THREE_PLANES_VOXELS,
)
from repro.gpusim.specs import INT1_GPUS, get_spec

# --- build the imaging setup (reduced scale: runs in seconds on a laptop) ----
config = ImagingConfig(
    array=TransducerArray(n_x=4, n_y=4),
    grid=VoxelGrid(shape=(12, 12, 10)),
    n_frequencies=16,
    n_transmissions=8,
)
print(f"model matrix: K={config.n_rows} rows x {config.n_voxels} voxels")
model = build_model_matrix(config)
phantom = make_phantom(config.grid, n_generations=3)
print(f"phantom: {phantom.n_blood_voxels} blood voxels "
      f"({phantom.graph.number_of_edges()} vessel segments)")

# --- acquire and clutter-filter the ensemble ----------------------------------
ensemble = EnsembleConfig(n_frames=64)
frames = simulate_frames(model, phantom, ensemble)
filtered = apply_clutter_filter(frames, ClutterFilter.SVD, n_components=2)
print(f"acquired {ensemble.n_frames} frames; SVD clutter filter applied "
      "(before sign extraction — the paper's required ordering)")

# --- 1-bit reconstruction ------------------------------------------------------
device = Device("GH200")
beamformer = UltrasoundBeamformer(device, model, n_frames=ensemble.n_frames,
                                  precision=Precision.INT1)
beamformer.prepare_model()
result = beamformer.reconstruct(filtered)
image = power_doppler(result.frames)
volume = config.grid.to_volume(image)
mips = max_intensity_projections(volume)
mask = phantom.blood_mask_volume()
axis_of = {"axial": 0, "coronal": 1, "sagittal": 2}
print("\nMaximum-intensity projections (1-bit pipeline):")
for name in ("sagittal", "coronal", "axial"):
    c = contrast_db(mips[name], mask.max(axis=axis_of[name]))
    print(f"\n{name} (vessel contrast {c:.1f} dB):")
    print(render_ascii(mips[name], width=48), end="")

print(f"\nmodelled reconstruction cost: "
      f"{result.time_s * 1e3:.3f} ms for {ensemble.n_frames} frames "
      f"(kernels: {', '.join(c.name for c in result.costs)})")

# --- Fig 5: real-time analysis at paper scale ----------------------------------
print(f"\nReal-time analysis (K = 128 freqs x 64 elements x 32 tx, "
      f"{REQUIRED_FPS:.0f} fps required):")
for gpu in INT1_GPUS:
    spec = get_spec(gpu)
    planes = frames_per_second(spec, THREE_PLANES_VOXELS)
    full = frames_per_second(spec, FULL_VOLUME_VOXELS)
    frac = max_realtime_voxels(spec) / FULL_VOLUME_VOXELS
    print(f"  {gpu:8s} three planes: {planes.fps:8.0f} fps | "
          f"full 128^3: {full.fps:6.0f} fps | real-time volume fraction: {frac:4.0%}")
print("\n(paper: all GPUs sustain three planes; none the full volume; " "GH200 reaches ~85% of it)")
