"""Polyphase filterbank channelizer.

LOFAR station processing splits the digitized band into narrow channels
before beamforming (the paper's central beamformer batches over
"polarizations and channels"). A critically sampled polyphase filterbank
(PFB) is the standard instrument: a windowed-sinc prototype filter decomposed
over ``n_taps`` polyphase branches followed by an FFT. Compared to a plain
FFT filterbank it suppresses spectral leakage by tens of dB, which tests
verify directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import firwin

from repro.errors import ShapeError


@dataclass(frozen=True)
class PolyphaseFilterbank:
    """Critically sampled PFB with ``n_channels`` channels.

    The prototype lowpass is a Hamming-windowed sinc of length
    ``n_channels * n_taps`` with cutoff at the channel half-width.
    """

    n_channels: int
    n_taps: int = 8

    def prototype(self) -> np.ndarray:
        """The prototype filter coefficients, normalized to unit DC gain."""
        n = self.n_channels * self.n_taps
        h = firwin(n, cutoff=1.0 / self.n_channels, window="hamming")
        return (h / h.sum()).astype(np.float64)

    def channelize(self, x: np.ndarray) -> np.ndarray:
        """Split a complex time series into channels.

        ``x`` has shape (..., T) with T a multiple of
        ``n_channels * n_taps``; the output is (..., n_channels, T') with
        ``T' = T / n_channels - (n_taps - 1)`` spectra (valid-mode: only
        windows fully covered by input are produced).
        """
        x = np.asarray(x)
        c, p = self.n_channels, self.n_taps
        t = x.shape[-1]
        if t % c != 0 or t // c < p:
            raise ShapeError(
                f"time axis {t} must be a multiple of n_channels={c} and at "
                f"least n_channels*n_taps={c * p}"
            )
        n_blocks = t // c
        n_out = n_blocks - (p - 1)
        h = self.prototype().reshape(p, c)
        blocks = x.reshape(x.shape[:-1] + (n_blocks, c))
        # Weighted sum over taps: y[t'] = sum_p h[p] * block[t' + p]
        out = np.zeros(x.shape[:-1] + (n_out, c), dtype=np.complex128)
        for tap in range(p):
            out += h[tap] * blocks[..., tap : tap + n_out, :]
        spectra = np.fft.fft(out, axis=-1)
        # (..., T', C) -> (..., C, T')
        return np.moveaxis(spectra, -1, -2).astype(np.complex64)

    def channel_frequencies(self, f_centre_hz: float, bandwidth_hz: float) -> np.ndarray:
        """Sky frequency of each channel for a band centred on ``f_centre_hz``."""
        offsets = np.fft.fftfreq(self.n_channels) * bandwidth_hz
        return f_centre_hz + offsets


def fft_filterbank(x: np.ndarray, n_channels: int) -> np.ndarray:
    """Plain FFT filterbank (no prototype filter): the leakage baseline."""
    x = np.asarray(x)
    t = x.shape[-1]
    if t % n_channels != 0:
        raise ShapeError(f"time axis {t} not a multiple of {n_channels}")
    blocks = x.reshape(x.shape[:-1] + (t // n_channels, n_channels))
    return np.moveaxis(np.fft.fft(blocks, axis=-1), -1, -2).astype(np.complex64)

