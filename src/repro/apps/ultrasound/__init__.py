"""Computational ultrasound imaging (cUSi) application (paper §V-A).

End-to-end reproduction of the medical-ultrasound use of the TCBF:
transducer array + coded aperture -> acoustic model matrix -> synthetic
vascular phantom and frame ensemble -> Doppler clutter filtering -> 1-bit
sign quantization -> ccglib reconstruction -> power-Doppler volume and
maximum-intensity projections (Figs 5 and 6).
"""

from repro.apps.ultrasound.array_geometry import (
    TransducerArray,
    CodedAperture,
    TransmissionScheme,
    VoxelGrid,
    SPEED_OF_SOUND,
)
from repro.apps.ultrasound.acoustics import PulseSpectrum, greens_function, pulse_echo_response
from repro.apps.ultrasound.model_matrix import (
    ImagingConfig,
    ModelMatrix,
    build_model_matrix,
    paper_scale_config,
    recorded_dataset_config,
)
from repro.apps.ultrasound.phantom import VascularPhantom, make_phantom, grow_vessel_tree
from repro.apps.ultrasound.measurement import EnsembleConfig, simulate_frames, doppler_rate
from repro.apps.ultrasound.doppler import (
    ClutterFilter,
    apply_clutter_filter,
    svd_filter,
    power_doppler,
)
from repro.apps.ultrasound.imaging import (
    UltrasoundBeamformer,
    ReconstructionResult,
    ultrasound_gemm_params,
    pipeline_workload,
    service_workload,
)
from repro.apps.ultrasound.mip import max_intensity_projections, render_ascii, contrast_db
from repro.apps.ultrasound.realtime import (
    RealTimePoint,
    frames_per_second,
    sweep_voxels,
    max_realtime_voxels,
    default_voxel_sweep,
    REQUIRED_FPS,
    PAPER_REALTIME_K,
    FULL_VOLUME_VOXELS,
    THREE_PLANES_VOXELS,
)

__all__ = [
    "TransducerArray",
    "CodedAperture",
    "TransmissionScheme",
    "VoxelGrid",
    "SPEED_OF_SOUND",
    "PulseSpectrum",
    "greens_function",
    "pulse_echo_response",
    "ImagingConfig",
    "ModelMatrix",
    "build_model_matrix",
    "paper_scale_config",
    "recorded_dataset_config",
    "VascularPhantom",
    "make_phantom",
    "grow_vessel_tree",
    "EnsembleConfig",
    "simulate_frames",
    "doppler_rate",
    "ClutterFilter",
    "apply_clutter_filter",
    "svd_filter",
    "power_doppler",
    "UltrasoundBeamformer",
    "ReconstructionResult",
    "ultrasound_gemm_params",
    "service_workload",
    "pipeline_workload",
    "max_intensity_projections",
    "render_ascii",
    "contrast_db",
    "RealTimePoint",
    "frames_per_second",
    "sweep_voxels",
    "max_realtime_voxels",
    "default_voxel_sweep",
    "REQUIRED_FPS",
    "PAPER_REALTIME_K",
    "FULL_VOLUME_VOXELS",
    "THREE_PLANES_VOXELS",
]
