"""LOFAR radio-astronomy application (paper §V-B).

Station-to-science reproduction of the radio-astronomical use of the TCBF:
array layout and delays -> sky model (steady sources + dispersed pulsar) ->
station (FPGA) beamformer with polyphase channelizer -> central coherent
tensor-core beamformer (and the float32 reference baseline of Fig 7) ->
incoherent beams, dedispersion, folding and pulsar detection.
"""

from repro.apps.radioastronomy.coordinates import (
    ArrayLayout,
    lofar_like_layout,
    station_antenna_layout,
    geometric_delay,
    SPEED_OF_LIGHT,
)
from repro.apps.radioastronomy.channelizer import PolyphaseFilterbank, fft_filterbank
from repro.apps.radioastronomy.sky import (
    PointSource,
    Pulsar,
    Observation,
    generate_station_data,
    expected_beam_power,
    DISPERSION_MS,
)
from repro.apps.radioastronomy.station import StationConfig, StationBeamformer
from repro.apps.radioastronomy.weights import steering_weights, beam_grid
from repro.apps.radioastronomy.beamformer import (
    LOFARBeamformer,
    BeamformOutput,
    incoherent_beam,
    pipeline_workload,
    service_workload,
)
from repro.apps.radioastronomy.reference import ReferenceBeamformer
from repro.apps.radioastronomy.pulsar import (
    dedisperse,
    fold,
    profile_snr,
    search_beams,
    PulsarDetection,
)
from repro.apps.radioastronomy.pipeline import run_observation, ObservationResult

__all__ = [
    "ArrayLayout",
    "lofar_like_layout",
    "station_antenna_layout",
    "geometric_delay",
    "SPEED_OF_LIGHT",
    "PolyphaseFilterbank",
    "fft_filterbank",
    "PointSource",
    "Pulsar",
    "Observation",
    "generate_station_data",
    "expected_beam_power",
    "DISPERSION_MS",
    "StationConfig",
    "StationBeamformer",
    "steering_weights",
    "beam_grid",
    "LOFARBeamformer",
    "BeamformOutput",
    "incoherent_beam",
    "service_workload",
    "pipeline_workload",
    "ReferenceBeamformer",
    "dedisperse",
    "fold",
    "profile_snr",
    "search_beams",
    "PulsarDetection",
    "run_observation",
    "ObservationResult",
]
