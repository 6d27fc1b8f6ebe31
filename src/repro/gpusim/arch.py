"""GPU architecture capability tables.

Encodes the architecture-level facts the paper relies on:

* which WMMA fragment layouts exist per precision (paper §III-A): float16
  uses 16x16x16 everywhere; 1-bit uses 8x8x128 through WMMA and 16x8x256
  only through an inline-PTX extension;
* 1-bit matrix values exist on NVIDIA only (§II: "The only exception is
  1-bit precision, which is only supported on NVIDIA GPUs");
* the XOR 1-bit multiply op is deprecated as of Hopper and emulated in
  software with AND + boolean logic, which makes it up to ~5x slower
  (§III-A, §III-E);
* asynchronous global->shared copies exist on NVIDIA Ampere and later;
  AMD GPUs do not support them, so the number of pipeline buffers is
  forced to one there (§III-C);
* the WMMA interface reaches only ~65% of peak on Hopper; WGMMA would be
  required for full rate (§III-A, ref [5]).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import UnsupportedFragmentError, UnsupportedPrecisionError


class Vendor(enum.Enum):
    """GPU vendor; decides terminology (tensor cores vs matrix cores)."""

    NVIDIA = "nvidia"
    AMD = "amd"


class Architecture(enum.Enum):
    """GPU micro-architectures used in the paper's evaluation."""

    ADA = "ada"          # NVIDIA RTX 4000 Ada
    AMPERE = "ampere"    # NVIDIA A100
    HOPPER = "hopper"    # NVIDIA GH200 (H100 die)
    RDNA3 = "rdna3"      # AMD Radeon Pro W7700
    CDNA2 = "cdna2"      # AMD Instinct MI210
    CDNA3 = "cdna3"      # AMD Instinct MI300X / MI300A

    @property
    def vendor(self) -> Vendor:
        if self in (Architecture.ADA, Architecture.AMPERE, Architecture.HOPPER):
            return Vendor.NVIDIA
        return Vendor.AMD


class BitOp(enum.Enum):
    """Bitwise multiply op of the 1-bit tensor-core MMA (paper §III-D/E)."""

    XOR = "xor"
    AND = "and"


@dataclass(frozen=True)
class FragmentShape:
    """A WMMA matrix fragment layout m x n x k (paper Table I column 2)."""

    m: int
    n: int
    k: int

    def __str__(self) -> str:  # e.g. "16x16x16"
        return f"{self.m}x{self.n}x{self.k}"


#: float16 multiply / float32 accumulate fragment (all seven GPUs).
FRAG_FLOAT16_16x16x16 = FragmentShape(16, 16, 16)
#: 1-bit fragment reachable through the portable WMMA interface.
FRAG_INT1_8x8x128 = FragmentShape(8, 8, 128)
#: 1-bit fragment only reachable through inline PTX; ccglib and cudapeak
#: carry a WMMA extension for it (paper §III-A).
FRAG_INT1_16x8x256 = FragmentShape(16, 8, 256)


@dataclass(frozen=True)
class ArchCapabilities:
    """Static capability set for one architecture."""

    arch: Architecture
    warp_size: int
    #: supported fragment layouts per precision name ("float16" / "int1").
    fragments: dict[str, tuple[FragmentShape, ...]]
    #: relative MMA issue-rate of each fragment layout (1.0 = full rate).
    fragment_rate: dict[str, dict[FragmentShape, float]]
    #: throughput factor of the WMMA interface relative to the hardware
    #: maximum (0.65 on Hopper where only WGMMA reaches peak).
    wmma_interface_factor: float
    #: True if cp.async-style global->shared copies are available.
    async_copies: bool
    #: available 1-bit multiply ops; empty when int1 is unsupported.
    bit_ops: tuple[BitOp, ...]
    #: relative rate of XOR vs AND; on Hopper XOR is software-emulated.
    xor_rate_factor: float = 1.0
    #: max registers per thread usable before spilling (tuner restriction).
    max_registers_per_thread: int = 255
    #: 32-bit registers per SM/CU register file.
    registers_per_sm: int = 65536
    #: max resident warps per SM/CU (latency-hiding budget).
    max_warps_per_sm: int = 64
    #: resident warps needed per SM to hide pipeline latency.
    latency_warps: int = 8
    #: max threads per block.
    max_threads_per_block: int = 1024
    #: effective shared-memory (LDS) bytes readable per clock per SM/CU for
    #: fragment loads (below the raw bank width: ldmatrix issue + conflicts).
    smem_bytes_per_clock: int = 64
    notes: str = ""

    def supports_precision(self, precision: str) -> bool:
        return precision in self.fragments and bool(self.fragments[precision])

    def require_precision(self, precision: str) -> None:
        if not self.supports_precision(precision):
            raise UnsupportedPrecisionError(
                f"{self.arch.value} does not support {precision} matrix values"
                + (" (1-bit is NVIDIA-only)" if precision == "int1" else "")
            )

    def require_fragment(self, precision: str, frag: FragmentShape) -> None:
        self.require_precision(precision)
        if frag not in self.fragments[precision]:
            raise UnsupportedFragmentError(
                f"{self.arch.value} has no {frag} fragment for {precision}"
            )

    def rate_factor(self, precision: str, frag: FragmentShape, bit_op: BitOp | None) -> float:
        """Combined issue-rate factor for a fragment layout and bit op.

        Returns the fraction of the architecture's peak MMA rate obtained
        when issuing this fragment layout with this multiply op, reproducing
        the Table I structure (small 1-bit layout is half rate on Ampere,
        ~0.38x on Hopper; XOR costs ~4x on Hopper due to software emulation).
        """
        self.require_fragment(precision, frag)
        factor = self.fragment_rate[precision][frag]
        if precision == "int1":
            if bit_op is None:
                raise UnsupportedPrecisionError("int1 MMA requires a BitOp")
            if bit_op not in self.bit_ops:
                raise UnsupportedPrecisionError(
                    f"{self.arch.value} does not implement the {bit_op.value} bit op"
                )
            if bit_op is BitOp.XOR:
                factor *= self.xor_rate_factor
        return factor

    @property
    def preferred_bit_op(self) -> BitOp | None:
        """The bit op ccglib auto-selects (paper §III-E): AND on Hopper and
        newer (XOR is emulated there), XOR otherwise."""
        if not self.bit_ops:
            return None
        if self.xor_rate_factor < 1.0 and BitOp.AND in self.bit_ops:
            return BitOp.AND
        return BitOp.XOR if BitOp.XOR in self.bit_ops else self.bit_ops[0]


def _nvidia_caps(
    arch: Architecture,
    *,
    wmma_factor: float,
    small_b1_rate: float,
    xor_rate: float,
    smem_bpc: int = 64,
) -> ArchCapabilities:
    return ArchCapabilities(
        arch=arch,
        warp_size=32,
        fragments={
            "float16": (FRAG_FLOAT16_16x16x16,),
            "int1": (FRAG_INT1_8x8x128, FRAG_INT1_16x8x256),
        },
        fragment_rate={
            "float16": {FRAG_FLOAT16_16x16x16: 1.0},
            "int1": {
                FRAG_INT1_8x8x128: small_b1_rate,
                FRAG_INT1_16x8x256: 1.0,
            },
        },
        wmma_interface_factor=wmma_factor,
        async_copies=True,
        bit_ops=(BitOp.XOR, BitOp.AND),
        xor_rate_factor=xor_rate,
        smem_bytes_per_clock=smem_bpc,
    )


def _amd_caps(arch: Architecture, max_warps: int = 32) -> ArchCapabilities:
    return ArchCapabilities(
        arch=arch,
        warp_size=64,
        fragments={"float16": (FRAG_FLOAT16_16x16x16,)},
        fragment_rate={"float16": {FRAG_FLOAT16_16x16x16: 1.0}},
        wmma_interface_factor=1.0,
        async_copies=False,
        bit_ops=(),
        xor_rate_factor=1.0,
        max_registers_per_thread=512,
        registers_per_sm=131072,
        max_warps_per_sm=max_warps,
        latency_warps=6,
        smem_bytes_per_clock=64,
        notes="matrix cores; no 1-bit support; no async global->shared copies",
    )


#: Capability table keyed by architecture. The numeric rate factors are
#: derived from paper Table I: on Ampere the 8x8x128 layout runs at half the
#: 16x8x256 rate (2465 vs 4942 TOPs/s); on Ada both run at full rate (1847 vs
#: 1865); on Hopper the small layout reaches ~0.38x (3894 vs 10276) and XOR is
#: ~4.2x slower than AND because the instruction was removed from hardware.
CAPABILITIES: dict[Architecture, ArchCapabilities] = {
    Architecture.ADA: _nvidia_caps(
        Architecture.ADA, wmma_factor=1.0, small_b1_rate=0.99, xor_rate=1.0
    ),
    Architecture.AMPERE: _nvidia_caps(
        Architecture.AMPERE, wmma_factor=1.0, small_b1_rate=0.50, xor_rate=1.0
    ),
    Architecture.HOPPER: _nvidia_caps(
        Architecture.HOPPER, wmma_factor=0.65, small_b1_rate=0.379, xor_rate=0.2297
    ),
    Architecture.RDNA3: _amd_caps(Architecture.RDNA3),
    Architecture.CDNA2: _amd_caps(Architecture.CDNA2),
    Architecture.CDNA3: _amd_caps(Architecture.CDNA3, max_warps=32),
}


def capabilities(arch: Architecture) -> ArchCapabilities:
    """Look up the capability table of an architecture."""
    return CAPABILITIES[arch]
