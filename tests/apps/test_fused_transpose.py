"""Experimental transpose-free pipeline (paper §VI future work)."""

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
    make_phantom,
    power_doppler,
    simulate_frames,
)
from repro.ccglib.precision import Precision
from repro.gpusim.device import Device, ExecutionMode


class TestFusedTranspose:
    def test_skips_transpose_kernel(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        bf = UltrasoundBeamformer(dev, n_voxels=4096, k=8192, n_frames=256, fused_transpose=True)
        result = bf.reconstruct()
        assert all(c.name != "transpose" for c in result.costs)

    def test_baseline_includes_transpose(self):
        dev = Device("A100", ExecutionMode.DRY_RUN)
        bf = UltrasoundBeamformer(dev, n_voxels=4096, k=8192, n_frames=256)
        assert any(c.name == "transpose" for c in bf.reconstruct().costs)

    def test_fused_is_never_slower(self):
        for precision in (Precision.INT1, Precision.FLOAT16):
            t_base = UltrasoundBeamformer(
                Device("GH200", ExecutionMode.DRY_RUN),
                n_voxels=38880, k=524288, n_frames=1024, precision=precision,
            ).reconstruct().time_s
            t_fused = UltrasoundBeamformer(
                Device("GH200", ExecutionMode.DRY_RUN),
                n_voxels=38880, k=524288, n_frames=1024, precision=precision,
                fused_transpose=True,
            ).reconstruct().time_s
            assert t_fused < t_base

    def test_functional_result_identical(self):
        # The fused path changes cost accounting only; images are identical.
        cfg = ImagingConfig(
            array=TransducerArray(4, 4), grid=VoxelGrid(shape=(6, 6, 6)),
            n_frequencies=8, n_transmissions=4,
        )
        model = build_model_matrix(cfg)
        phantom = make_phantom(cfg.grid, n_generations=2)
        frames = simulate_frames(model, phantom, EnsembleConfig(n_frames=16))
        filtered = apply_clutter_filter(frames, ClutterFilter.MEAN)
        dev = Device("A100")
        base = UltrasoundBeamformer(dev, model, n_frames=16).reconstruct(filtered)
        fused = UltrasoundBeamformer(
            dev, model, n_frames=16, fused_transpose=True
        ).reconstruct(filtered)
        assert np.array_equal(power_doppler(base.frames), power_doppler(fused.frames))
