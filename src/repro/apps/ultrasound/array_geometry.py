"""Transducer array and coded-aperture geometry for cUSi.

Computational ultrasound imaging (paper §V-A, refs [9, 10]) images a 3D
volume with "a spatially under-sampled transceiver array in conjunction with
a spatial encoding mask". We model:

* a small planar transceiver array (64 elements in the paper's mouse-brain
  experiment) on a regular grid;
* the encoding mask as an aberrating delay layer: every element gets a
  random extra propagation delay that varies with the direction of the
  voxel, sampled on a coarse grid of direction bins. This is the property
  the technique needs — each voxel acquires a quasi-unique temporal
  signature across elements — without simulating the physical plastic
  layer's acoustics;
* per-transmission random phase codes (the paper uses 32 transmissions per
  frame; each transmission insonifies the volume with a different code so
  the rows of the model matrix are diverse).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.util.rng import derive_seed, make_rng

#: speed of sound in soft tissue, m/s.
SPEED_OF_SOUND = 1540.0


@dataclass(frozen=True)
class TransducerArray:
    """A planar grid of ultrasound transceivers at z = 0.

    ``n_x`` x ``n_y`` elements at ``pitch_m`` spacing, centred on the origin.
    """

    n_x: int = 8
    n_y: int = 8
    pitch_m: float = 0.5e-3

    @property
    def n_elements(self) -> int:
        return self.n_x * self.n_y

    def positions(self) -> np.ndarray:
        """(n_elements, 3) element centre coordinates in metres."""
        xs = (np.arange(self.n_x) - (self.n_x - 1) / 2.0) * self.pitch_m
        ys = (np.arange(self.n_y) - (self.n_y - 1) / 2.0) * self.pitch_m
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), np.zeros(self.n_elements)])


@dataclass(frozen=True)
class CodedAperture:
    """The spatial encoding mask as a direction-binned random delay screen.

    ``delay_rms_s`` sets the aberration strength (of order one period of the
    centre frequency, as a physical mask would). ``n_direction_bins`` is the
    angular granularity of the screen in each transverse direction.
    """

    n_elements: int
    delay_rms_s: float = 3.0e-7
    n_direction_bins: int = 16
    seed: int = 2017  # Kruizinga et al. year, for flavour

    def delays(self, element_positions: np.ndarray, voxel_positions: np.ndarray) -> np.ndarray:
        """Mask delay for every (element, voxel) pair, seconds.

        The voxel's direction from the array centre is quantized into bins;
        each (element, bin) pair carries an independent Gaussian delay. The
        result has shape (n_elements, n_voxels).
        """
        if element_positions.shape[0] != self.n_elements:
            raise ShapeError(
                f"mask built for {self.n_elements} elements, got "
                f"{element_positions.shape[0]}"
            )
        rng = make_rng(derive_seed(self.seed, "mask-screen"))
        screen = rng.normal(
            scale=self.delay_rms_s,
            size=(self.n_elements, self.n_direction_bins, self.n_direction_bins),
        )
        direction = voxel_positions / np.linalg.norm(voxel_positions, axis=1, keepdims=True)
        # Map direction cosines (dx, dy) in [-1, 1] onto bin indices.
        bx = np.clip(
            ((direction[:, 0] + 1.0) / 2.0 * self.n_direction_bins).astype(int),
            0,
            self.n_direction_bins - 1,
        )
        by = np.clip(
            ((direction[:, 1] + 1.0) / 2.0 * self.n_direction_bins).astype(int),
            0,
            self.n_direction_bins - 1,
        )
        return screen[:, bx, by]


@dataclass(frozen=True)
class TransmissionScheme:
    """Per-transmission random phase codes over the array elements."""

    n_transmissions: int
    n_elements: int
    seed: int = 32

    def codes(self) -> np.ndarray:
        """(n_transmissions, n_elements) unit-magnitude complex codes."""
        rng = make_rng(derive_seed(self.seed, "tx-codes"))
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(self.n_transmissions, self.n_elements))
        return np.exp(1j * phases)


@dataclass(frozen=True)
class VoxelGrid:
    """A rectangular imaging volume in front of the array."""

    shape: tuple[int, int, int] = (16, 16, 16)
    spacing_m: float = 0.2e-3
    origin_m: tuple[float, float, float] = (0.0, 0.0, 4.0e-3)

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def positions(self) -> np.ndarray:
        """(n_voxels, 3) voxel centres in metres, x-fastest ordering."""
        nx, ny, nz = self.shape
        xs = (np.arange(nx) - (nx - 1) / 2.0) * self.spacing_m + self.origin_m[0]
        ys = (np.arange(ny) - (ny - 1) / 2.0) * self.spacing_m + self.origin_m[1]
        zs = np.arange(nz) * self.spacing_m + self.origin_m[2]
        gz, gy, gx = np.meshgrid(zs, ys, xs, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def to_volume(self, flat: np.ndarray) -> np.ndarray:
        """Reshape a flat voxel vector back to (nz, ny, nx)."""
        nx, ny, nz = self.shape
        if flat.shape[-1] != self.n_voxels:
            raise ShapeError(f"expected {self.n_voxels} voxels, got {flat.shape[-1]}")
        return flat.reshape(flat.shape[:-1] + (nz, ny, nx))
