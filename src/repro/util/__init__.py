"""Shared utilities: bit manipulation, units, formatting, RNG, validation."""

from repro.util.bits import (
    pack_bits,
    unpack_bits,
    popcount,
    sign_to_bits,
    bits_to_sign,
    PACK_WORD_BITS,
)
from repro.util.units import (
    tera,
    giga,
    mega,
    kilo,
    format_ops_rate,
    format_seconds,
)
from repro.util.rng import make_rng, derive_seed
from repro.util.validation import require_positive_int

__all__ = [
    "pack_bits",
    "unpack_bits",
    "popcount",
    "sign_to_bits",
    "bits_to_sign",
    "PACK_WORD_BITS",
    "tera",
    "giga",
    "mega",
    "kilo",
    "format_ops_rate",
    "format_seconds",
    "make_rng",
    "derive_seed",
    "require_positive_int",
]
