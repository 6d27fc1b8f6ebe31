"""Experiment: paper Fig 6 — beamformed mouse-brain volume.

Two halves, since simulated devices stand in for the paper's GPUs (README
introduction):

* **Image quality (functional)**: synthetic vascular phantom at reduced
  scale through the full pipeline — simulate frames, SVD clutter filter,
  sign quantization, 1-bit reconstruction, power Doppler, three orthogonal
  MIPs — and verify vessels are visible (positive contrast), that skipping
  the clutter filter destroys the image (the paper's ordering claim), and
  that the 1-bit image correlates with the float16 image at reduced
  contrast ("conversion to 1-bit means that the contrast is reduced ...
  still results in usable image feedback").
* **Throughput (dry-run, paper scale)**: the recorded-dataset shape
  M=38880, N=8041, K=524288 on the GH200 (paper: 1.2 s) versus the Octave
  float32/OpenCL baseline on an A100 (paper: ~15 minutes) — the "nearly
  three orders of magnitude" claim.
"""

from __future__ import annotations

import numpy as np

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
    make_phantom,
    max_intensity_projections,
    power_doppler,
    render_ascii,
    simulate_frames,
)
from repro.bench.report import ExperimentResult
from repro.ccglib.precision import Precision, complex_ops
from repro.gpusim.device import Device, ExecutionMode
from repro.gpusim.specs import get_spec
from repro.util.formatting import render_table

#: paper: "we run the matrix-matrix multiplication in float32 precision
#: using Octave with OpenCL backend. On an A100, this takes roughly 15
#: minutes" — which implies ~7.5% of the A100's float32 peak; kept as the
#: documented baseline efficiency.
OCTAVE_OPENCL_EFFICIENCY = 0.075

#: recorded mouse-brain dataset shape (paper §V-A).
RECORDED_M, RECORDED_N, RECORDED_K = 38880, 8041, 524288
PAPER_TCBF_SECONDS = 1.2
PAPER_OCTAVE_SECONDS = 15 * 60.0
REALTIME_BUDGET_SECONDS = 8.0

PROJECTION_AXIS = {"axial": 0, "coronal": 1, "sagittal": 2}


def run(backend: str | None = None) -> ExperimentResult:
    sections: list[str] = []
    findings: list[str] = []

    # ---- functional image-quality half -----------------------------------
    cfg = ImagingConfig(
        array=TransducerArray(4, 4),
        grid=VoxelGrid(shape=(12, 12, 10)),
        n_frequencies=16,
        n_transmissions=8,
    )
    model = build_model_matrix(cfg)
    phantom = make_phantom(cfg.grid, n_generations=3)
    frames = simulate_frames(model, phantom, EnsembleConfig(n_frames=64))
    filtered = apply_clutter_filter(frames, ClutterFilter.SVD, n_components=2)
    device = Device("GH200")
    images: dict[str, np.ndarray] = {}
    for precision in (Precision.INT1, Precision.FLOAT16):
        bf = UltrasoundBeamformer(
            device, model, n_frames=64, precision=precision, backend=backend
        )
        rec = bf.reconstruct(filtered)
        images[precision.value] = power_doppler(rec.frames)
    unfiltered = power_doppler(
        UltrasoundBeamformer(
            device, model, n_frames=64, precision=Precision.INT1, backend=backend
        )
        .reconstruct(frames)
        .frames
    )
    mask = phantom.blood_mask_volume()
    contrast_rows: list[list[object]] = []
    for label, img in [
        ("int1 + clutter filter", images["int1"]),
        ("float16 + clutter filter", images["float16"]),
        ("int1, no clutter filter", unfiltered),
    ]:
        mips = max_intensity_projections(cfg.grid.to_volume(img))
        row: list[object] = [label]
        for name, mip in mips.items():
            row.append(round(contrast_db(mip, mask.max(axis=PROJECTION_AXIS[name])), 1))
        contrast_rows.append(row)
    contrast_headers = ["pipeline", "axial dB", "coronal dB", "sagittal dB"]
    sections.append(
        render_table(contrast_headers, contrast_rows, title="Vessel contrast of the MIPs")
    )
    mips1 = max_intensity_projections(cfg.grid.to_volume(images["int1"]))
    for name in ("sagittal", "coronal", "axial"):
        sections.append(f"{name} MIP (1-bit pipeline):")
        sections.append(render_ascii(mips1[name], width=48))
    corr = float(np.corrcoef(images["int1"], images["float16"])[0, 1])
    findings.append(
        f"1-bit and float16 power-Doppler volumes correlate at r={corr:.2f}; "
        "1-bit contrast is mildly reduced but vessels remain clearly visible"
    )
    findings.append(
        "without pre-quantization clutter filtering the vessel contrast "
        f"collapses to {contrast_rows[2][1]} dB (paper: Doppler processing "
        "must precede sign extraction)"
    )

    # ---- paper-scale throughput half --------------------------------------
    gh200 = Device("GH200", ExecutionMode.DRY_RUN)
    bf = UltrasoundBeamformer(
        gh200, n_voxels=RECORDED_M, k=RECORDED_K, n_frames=RECORDED_N,
        precision=Precision.INT1,
    )
    rec = bf.reconstruct()
    tcbf_s = rec.time_s
    ops = complex_ops(1, RECORDED_M, RECORDED_N, RECORDED_K)
    a100 = get_spec("A100")
    octave_s = ops / (a100.fp32_peak_ops() * OCTAVE_OPENCL_EFFICIENCY)
    timing_rows = [
        ["TCBF on GH200 (int1, incl. pack+transpose)", round(tcbf_s, 2), PAPER_TCBF_SECONDS],
        ["Octave float32/OpenCL on A100", round(octave_s, 0), PAPER_OCTAVE_SECONDS],
        [
            "speedup",
            round(octave_s / tcbf_s, 0),
            round(PAPER_OCTAVE_SECONDS / PAPER_TCBF_SECONDS, 0),
        ],
    ]
    timing_headers = ["quantity", "measured", "paper"]
    sections.append(
        render_table(
            timing_headers,
            timing_rows,
            title=f"Recorded dataset M={RECORDED_M}, N={RECORDED_N}, K={RECORDED_K}",
        )
    )
    findings.append(
        f"recorded-dataset reconstruction takes {tcbf_s:.2f} s on the simulated "
        f"GH200 (paper: {PAPER_TCBF_SECONDS} s), well inside the {REALTIME_BUDGET_SECONDS:.0f} s "
        "real-time budget"
    )
    findings.append(
        f"TCBF is {octave_s / tcbf_s:.0f}x faster than the Octave baseline "
        "(paper: 'nearly three orders of magnitude')"
    )

    tables = {
        "contrast": (contrast_headers, contrast_rows),
        "timing": (timing_headers, timing_rows),
    }
    return ExperimentResult(
        name="fig6",
        title="Beamformed mouse-brain volume: quality and throughput (paper Fig 6)",
        text="\n".join(sections),
        tables=tables,
        findings=findings,
    )
