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

The four XOR-popcount sums of Eq. 5 run as one k-loop: the planes are
concatenated along the packed K axis into ``A'' = [A_re | A_im]``
(..., M, 2W) and ``B''``, whose rows are ``[B_re | ~B_im]`` stacked on
``[B_im | B_re]`` (..., 2N, 2W). A single ``popc(A'' ^ B'')`` sum then
returns an (..., M, 2N) block whose halves are ``p_rr + p_ii`` and
``p_ri + p_ir``, and Eq. 5 reads straight off them; the AND form of Eq. 6
needs two sums instead of eight. That sum is
:func:`repro.util.bits.popcount_gemm`, the tensor core's k-loop on the
host: it walks the packed K words, combining one word of every A'' row with
one word of every B'' row and adding the tile's popcounts into an
accumulator; on NumPy it walks blocks of rows sized to stay in cache. All
arithmetic is exact integer work, so it runs unchanged — and
bit-identically — on every :class:`~repro.backend.ArrayBackend`.
"""

from __future__ import annotations

import numpy as np

from repro.backend import ArrayBackend, get_backend
from repro.ccglib.layouts import IMAG, REAL
from repro.errors import ShapeError
from repro.gpusim.arch import BitOp
from repro.util.bits import PACK_WORD_BITS, bits_to_sign, popcount, popcount_gemm


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
    _, n, w = _validate_packed(a_words, b_words)
    k_full = w * PACK_WORD_BITS
    if not 0 < k_valid <= k_full:
        raise ShapeError(f"k_valid {k_valid} outside (0, {k_full}]")
    k_pad = k_full - k_valid
    if bit_op not in (BitOp.XOR, BitOp.AND):  # pragma: no cover - enum is exhaustive
        raise ShapeError(f"unknown bit op {bit_op}")

    b_re, b_im = b_words[..., REAL, :, :], b_words[..., IMAG, :, :]
    # The four planes of Eq. 5 concatenated along packed K: row m of A'' is
    # [A_re | A_im]; row n of B'' is [B_re | ~B_im] (-> p_rr + p_ii) and row
    # N + n is [B_im | B_re] (-> p_ri + p_ir). ~B_im is the register-level
    # negation of Im(B): it flips every ±1 sign, including the padded region
    # (pad bit 0 = -1 becomes +1 there, which is exactly what makes the
    # real-part padding self-cancel).
    a2 = xp.concatenate([a_words[..., REAL, :, :], a_words[..., IMAG, :, :]], axis=-1)
    b_rows = [xp.concatenate(pair, axis=-1) for pair in ((b_re, ~b_im), (b_im, b_re))]
    b2 = xp.concatenate(b_rows, axis=-2)
    if bit_op is BitOp.XOR:
        p = popcount_gemm(a2, b2, "xor", be)
    else:
        # Eq. 6: popc(A^B) == K - (popc(A&B) + popc(~A&~B)), over both halves.
        p = 2 * k_full - (popcount_gemm(a2, b2, "and", be) + popcount_gemm(~a2, ~b2, "and", be))

    # Eq. 5 of the paper (p_ii computed against the negated Im(B)): the
    # (..., M, 2N) halves become the (..., 2, M, N) planes by a view.
    planes = xp.moveaxis(xp.reshape(p, p.shape[:-1] + (2, n)), -2, -3)
    offset = xp.asarray([k_full, k_full - k_pad], dtype=xp.int32)[:, None, None]
    return be.astype(2 * (offset - planes), xp.int32)


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
