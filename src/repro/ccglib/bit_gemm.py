"""1-bit complex matrix multiplication in the packed domain.

Implements the arithmetic of paper §III-D and §III-E:

* values are ±1, encoded as binary 1 -> +1 / 0 -> -1 (Fig. 1); zero is not
  representable;
* a real-valued ±1 dot product of length K is ``K - 2 * popc(A ^ B)``
  (Eq. 4, worked example in Table II);
* a complex product needs 2K terms per component. The imaginary part of B
  is negated for the real-part accumulation — for ±1 values negation is a
  bitwise NOT, the 1-bit analogue of the float16 register negation;
* K is padded to the tensor-core fragment size with binary 0 (= -1). The
  padding self-cancels in the real part but adds ``Kpad * (-1) * (-1)``
  twice in the imaginary part, which must be subtracted (Eq. 5);
* on Hopper the XOR multiply op is software-emulated and slow, so the AND
  formulation ``2*(popc(A&B) + popc(~A&~B)) - K`` (Eq. 6) is used, costing
  twice the instructions but running ~4x faster than emulated XOR.

Operand convention: packed planar matrices ``A``: (..., 2, M, W) and
``B``: (..., 2, N, W) uint32 words, W = Kfull/32, K packed along the last
axis, with identical (possibly empty) leading batch dims. Note B rows are
indexed by N here (both operands are "K-major"): the transpose kernel
produces this layout from a (2, K, N) host matrix.

Each popcount sum is :func:`repro.util.bits.popcount_gemm`, the tensor
core's k-loop on the host: it walks the packed K words, combining one word
of every A row with one word of every B row into an (M, n_block) tile and
adding its popcounts into an int32 accumulator. All arithmetic is exact
integer work, so it runs unchanged — and bit-identically — on every
:class:`~repro.backend.ArrayBackend`.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import IMAG, REAL
from repro.errors import ShapeError
from repro.gpusim.arch import BitOp
from repro.util.bits import PACK_WORD_BITS, bits_to_sign, popcount, popcount_gemm

#: default N-block of the popcount accumulation; bounds each step's
#: (M, n_block) combine/count tile and its int32 accumulator.
DEFAULT_N_BLOCK = 128


def _validate_packed(a_words, b_words) -> tuple[int, int, int]:
    if a_words.ndim < 3 or a_words.shape[-3] != 2:
        raise ShapeError(f"packed A must be (..., 2, M, W), got {a_words.shape}")
    if b_words.ndim < 3 or b_words.shape[-3] != 2:
        raise ShapeError(f"packed B must be (..., 2, N, W), got {b_words.shape}")
    if np.dtype(a_words.dtype) != np.uint32 or np.dtype(b_words.dtype) != np.uint32:
        raise ShapeError("packed operands must be uint32")
    if a_words.shape[-1] != b_words.shape[-1]:
        raise ShapeError(
            f"packed word-count mismatch: A has W={a_words.shape[-1]}, B has W={b_words.shape[-1]}"
        )
    if a_words.shape[:-3] != b_words.shape[:-3]:
        raise ShapeError(
            f"batch mismatch: A has leading dims {a_words.shape[:-3]}, "
            f"B has {b_words.shape[:-3]}"
        )
    return a_words.shape[-2], b_words.shape[-2], a_words.shape[-1]


def complex_bit_gemm(
    a_words,
    b_words,
    k_valid: int,
    bit_op: BitOp = BitOp.XOR,
    n_block: int = DEFAULT_N_BLOCK,
    backend: ArrayBackend | None = None,
):
    """Complex 1-bit GEMM on packed operands.

    Parameters
    ----------
    a_words, b_words:
        Packed planar operands (..., 2, M, W) and (..., 2, N, W) with
        matching leading batch dims; padding bits (if any) must be binary 0
        (decimal -1).
    k_valid:
        The true K before padding; ``Kpad = 32*W - k_valid`` drives the
        imaginary-part correction of Eq. 5.
    bit_op:
        ``BitOp.XOR`` uses Eq. 5 directly; ``BitOp.AND`` uses the Hopper
        formulation of Eq. 6 (two AND-popc passes emulating each XOR-popc).
    n_block:
        N extent of each k-loop step's (M, n_block) tile; any value gives
        the same result.
    backend:
        Optional :class:`~repro.backend.ArrayBackend`; default NumPy.

    Returns
    -------
    (..., 2, M, N) int32 planar result, exact over the valid K region.
    """
    be = get_backend(backend)
    xp = be.xp
    a_words = be.asarray(a_words)
    b_words = be.asarray(b_words)
    _validate_packed(a_words, b_words)
    w = a_words.shape[-1]
    k_full = w * PACK_WORD_BITS
    if not 0 < k_valid <= k_full:
        raise ShapeError(f"k_valid {k_valid} outside (0, {k_full}]")
    k_pad = k_full - k_valid

    a_re, a_im = a_words[..., REAL, :, :], a_words[..., IMAG, :, :]
    b_re, b_im = b_words[..., REAL, :, :], b_words[..., IMAG, :, :]
    # Register-level negation of Im(B): bitwise NOT flips every ±1 sign,
    # including the padded region (pad bit 0 = -1 becomes +1 there, which is
    # exactly what makes the real-part padding self-cancel).
    b_im_neg = ~b_im

    if bit_op not in (BitOp.XOR, BitOp.AND):  # pragma: no cover - enum is exhaustive
        raise ShapeError(f"unknown bit op {bit_op}")

    def popc_xor(x, y):
        """popc(x ^ y) summed over K; on AND hardware via Eq. 6,
        popc(A^B) == K - (popc(A&B) + popc(~A&~B)), two AND-MMAs per term."""
        if bit_op is BitOp.XOR:
            return popcount_gemm(x, y, "xor", n_block, be)
        same = popcount_gemm(x, y, "and", n_block, be) + popcount_gemm(~x, ~y, "and", n_block, be)
        return k_full - same

    p_rr = popc_xor(a_re, b_re)
    p_ii = popc_xor(a_im, b_im_neg)
    p_ri = popc_xor(a_re, b_im)
    p_ir = popc_xor(a_im, b_re)

    # Eq. 5 of the paper (with p_ii computed against the negated Im(B)):
    real = 2 * (k_full - (p_rr + p_ii))
    imag = 2 * (k_full - k_pad - (p_ri + p_ir))
    return xp.stack([real, imag], axis=-3).astype(xp.int32)


def real_bit_dot(a_words: np.ndarray, b_words: np.ndarray, k: int) -> int:
    """Real-valued ±1 dot product, Eq. 4: ``K - 2*popc(A ^ B)``.

    This is the Table II primitive; ``k`` is the valid length (padding, if
    present, must be accounted for by the caller).
    """
    a_words = np.atleast_1d(np.asarray(a_words, dtype=np.uint32))
    b_words = np.atleast_1d(np.asarray(b_words, dtype=np.uint32))
    p = int(popcount(a_words ^ b_words).sum())
    return k - 2 * p


def bit_gemm_reference(a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
    """Unpacked ±1 complex reference GEMM for validation.

    ``a_bits``: (2, M, K) and ``b_bits``: (2, N, K) arrays of {0, 1}.
    Returns the exact (2, M, N) int64 planar complex product of the ±1
    interpretations. This is the ground truth the packed kernels must match
    on the valid K region. Deliberately NumPy-only: every backend's packed
    kernel is checked against this single host-side oracle.
    """
    a_sign = np.asarray(bits_to_sign(a_bits, dtype=np.int64))
    b_sign = np.asarray(bits_to_sign(b_bits, dtype=np.int64))
    a_re, a_im = a_sign[REAL], a_sign[IMAG]
    b_re, b_im = b_sign[REAL], b_sign[IMAG]
    real = a_re @ b_re.T - a_im @ b_im.T
    imag = a_re @ b_im.T + a_im @ b_re.T
    return np.stack([real, imag])
