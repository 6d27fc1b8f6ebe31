"""Synthetic vascular phantom: the stand-in for the mouse-brain dataset.

The anesthetized-mouse dataset of Brown et al. [10] is not available, so we
generate a volume with the properties the Fig 6 experiment depends on:

* a sparse, connected vascular tree carrying *flowing* blood (the Doppler
  signal of interest), grown as a random branching tree through the volume
  (networkx graph; biologically-flavoured midpoint-displacement branches);
* *stationary* tissue everywhere, tens of dB stronger than blood — this is
  what makes the paper's processing order essential ("the Doppler
  processing is done before extracting the sign. Otherwise, the Doppler
  signal will be lost in the dominant stationary signals").

Each blood voxel carries a flow speed (descending with branch generation);
frames advance the scatterer phases proportionally, producing a clean
Doppler signature the clutter filter can isolate.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.apps.ultrasound.array_geometry import VoxelGrid
from repro.util.rng import derive_seed, make_rng


@dataclass
class VascularPhantom:
    """A voxelized vessel tree inside a :class:`VoxelGrid`.

    Attributes
    ----------
    blood_amplitude:
        (V,) reflectivity of flowing blood per voxel (0 outside vessels).
    flow_speed:
        (V,) blood speed in m/s per voxel (0 outside vessels).
    tissue_amplitude:
        (V,) stationary tissue reflectivity (everywhere, ~30 dB above blood).
    graph:
        The vessel tree as a networkx DiGraph whose nodes carry 3D points.
    """

    grid: VoxelGrid
    blood_amplitude: np.ndarray
    flow_speed: np.ndarray
    tissue_amplitude: np.ndarray
    graph: nx.DiGraph

    @property
    def n_blood_voxels(self) -> int:
        return int(np.count_nonzero(self.blood_amplitude))

    def blood_mask_volume(self) -> np.ndarray:
        """(nz, ny, nx) boolean mask of vessel voxels."""
        return self.grid.to_volume(self.blood_amplitude > 0)


def grow_vessel_tree(
    grid: VoxelGrid,
    n_generations: int = 4,
    branches_per_node: int = 2,
    seed: int = 10,
) -> nx.DiGraph:
    """Grow a random branching vessel tree through the volume.

    The root enters the volume at the centre of the deep face; each branch
    extends in a randomized direction with shrinking length and radius.
    Nodes carry positions in *fractional grid units* (0..1 per axis).
    """
    rng = make_rng(derive_seed(seed, "vessel-tree"))
    g = nx.DiGraph()
    root = 0
    g.add_node(root, point=np.array([0.5, 0.5, 0.05]), radius=0.040, generation=0, speed=8e-3)
    frontier = [root]
    next_id = 1
    direction = {root: np.array([0.0, 0.0, 1.0])}
    for gen in range(1, n_generations + 1):
        new_frontier: list[int] = []
        for node in frontier:
            for _ in range(branches_per_node):
                parent_pt = g.nodes[node]["point"]
                parent_dir = direction[node]
                # Random deflection, biased to continue forward.
                deflect = rng.normal(scale=0.55, size=3)
                new_dir = parent_dir + deflect
                new_dir /= np.linalg.norm(new_dir)
                length = 0.32 / gen
                point = np.clip(parent_pt + new_dir * length, 0.03, 0.97)
                radius = g.nodes[node]["radius"] * 0.62
                speed = g.nodes[node]["speed"] * 0.6
                g.add_node(next_id, point=point, radius=radius, generation=gen, speed=speed)
                g.add_edge(node, next_id)
                direction[next_id] = new_dir
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return g


def _rasterize_segment(
    shape: tuple[int, int, int],
    p0: np.ndarray,
    p1: np.ndarray,
    radius_frac: float,
    speed: float,
    blood: np.ndarray,
    flow: np.ndarray,
) -> None:
    """Paint one vessel segment into the (nz, ny, nx) blood/flow volumes."""
    nx_, ny, nz = shape
    dims = np.array([nx_, ny, nz], dtype=float)
    n_steps = max(2, int(np.linalg.norm((p1 - p0) * dims) * 2))
    radius_vox = max(radius_frac * float(dims.max()), 0.6)
    r = int(np.ceil(radius_vox))
    for s in np.linspace(0.0, 1.0, n_steps):
        centre = (p0 + s * (p1 - p0)) * (dims - 1)
        cx, cy, cz = centre
        x0, x1 = max(0, int(cx) - r), min(nx_ - 1, int(cx) + r)
        y0, y1 = max(0, int(cy) - r), min(ny - 1, int(cy) + r)
        z0, z1 = max(0, int(cz) - r), min(nz - 1, int(cz) + r)
        xs = np.arange(x0, x1 + 1)
        ys = np.arange(y0, y1 + 1)
        zs = np.arange(z0, z1 + 1)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        inside = (gx - cx) ** 2 + (gy - cy) ** 2 + (gz - cz) ** 2 <= radius_vox**2
        blood[gz[inside], gy[inside], gx[inside]] = 1.0
        flow[gz[inside], gy[inside], gx[inside]] = speed


def make_phantom(
    grid: VoxelGrid,
    tissue_to_blood_db: float = 30.0,
    n_generations: int = 4,
    seed: int = 10,
) -> VascularPhantom:
    """Build the full phantom: vessel tree + stationary tissue background."""
    rng = make_rng(derive_seed(seed, "phantom-tissue"))
    nx_, ny, nz = grid.shape
    blood = np.zeros((nz, ny, nx_), dtype=np.float32)
    flow = np.zeros((nz, ny, nx_), dtype=np.float32)
    tree = grow_vessel_tree(grid, n_generations=n_generations, seed=seed)
    for u, v in tree.edges:
        _rasterize_segment(
            grid.shape,
            tree.nodes[u]["point"],
            tree.nodes[v]["point"],
            radius_frac=tree.nodes[v]["radius"],
            speed=tree.nodes[v]["speed"],
            blood=blood,
            flow=flow,
        )
    tissue_level = 10.0 ** (tissue_to_blood_db / 20.0)
    tissue = tissue_level * (0.7 + 0.3 * rng.random(size=(nz, ny, nx_)).astype(np.float32))
    return VascularPhantom(
        grid=grid,
        blood_amplitude=blood.ravel(),
        flow_speed=flow.ravel(),
        tissue_amplitude=tissue.astype(np.float32).ravel(),
        graph=tree,
    )
