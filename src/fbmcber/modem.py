"""Baseband mapping and multiplexing chains.

Gray PAM/QAM bit mapping and FBMC synthesis/analysis as two matrix
products with the bank of modulated prototypes; the cyclic-prefix OFDM
chain is part of `simulate.OfdmSystem`.  Bit groups are LSB-first; the
Gray codeword of ascending level index i is i ^ (i >> 1), identical for
PAM and each QAM dimension.
"""

from __future__ import annotations

import numpy as np

from .constellations import PamConstellation, QamConstellation
from .errors import RangeError, ShapeError
from .interference import FbmcGrid

__all__ = [
    "pam_map",
    "pam_demap",
    "qam_map",
    "qam_demap",
    "fbmc_synthesize",
    "fbmc_analyze_frame",
    "fbmc_signal_length",
    "PulseBank",
]

_I4 = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def _bits_matrix(bits, bits_per_symbol: int) -> np.ndarray:
    bits = np.asarray(bits)
    if bits.size % bits_per_symbol:
        raise ShapeError(
            f"bit count {bits.size} not divisible by {bits_per_symbol}"
        )
    return bits.reshape(-1, bits_per_symbol)


def _gray_inverse(pam: PamConstellation) -> np.ndarray:
    inv = np.empty(pam.order, dtype=np.int64)
    inv[pam.gray_codes] = np.arange(pam.order)
    return inv


def pam_map(bits, pam: PamConstellation) -> np.ndarray:
    """Gray-coded PAM levels from bits (LSB-first groups of N_b)."""
    groups = _bits_matrix(bits, pam.bits_per_symbol)
    codes = groups @ (1 << np.arange(pam.bits_per_symbol))
    return pam.levels[_gray_inverse(pam)[codes]]


def pam_demap(values, pam: PamConstellation) -> np.ndarray:
    """Minimum-distance slicing then Gray decode, LSB-first int8 bits."""
    values = np.asarray(values, dtype=np.float64).ravel()
    idx = np.clip(np.rint((values + pam.order - 1) / 2.0), 0, pam.order - 1)
    shifts = np.arange(pam.bits_per_symbol)
    table = ((pam.gray_codes[:, None] >> shifts) & 1).astype(np.int8)
    return table[idx.astype(np.intp)].ravel()


def qam_map(bits, qam: QamConstellation) -> np.ndarray:
    """Square QAM symbols; first N_b bits map in-phase, next N_b quadrature."""
    groups = _bits_matrix(bits, qam.bits_per_symbol)
    half = qam.pam.bits_per_symbol
    i_part = pam_map(groups[:, :half].ravel(), qam.pam)
    q_part = pam_map(groups[:, half:].ravel(), qam.pam)
    return i_part + 1j * q_part


def qam_demap(values, qam: QamConstellation) -> np.ndarray:
    values = np.asarray(values).ravel()
    i_bits = pam_demap(values.real, qam.pam).reshape(values.size, -1)
    q_bits = pam_demap(values.imag, qam.pam).reshape(values.size, -1)
    return np.concatenate([i_bits, q_bits], axis=1).ravel()


# ---------------------------------------------------------------------------
# FBMC

class PulseBank:
    """Modulated prototypes and per-slot phase factors of a grid.

    bank.q[m, j] = p[j] * exp(2j*pi*m*(j - (L_p-1)/2)/M); the pulse at
    slot (m, n) is chi[m, n] * q[m] placed at sample offset n*M/2 with
    chi[m, n] = i**(2*m*n + m + n).
    """

    def __init__(self, grid: FbmcGrid):
        self.grid = grid
        taps = grid.filter.coeffs
        lp = taps.size
        m = np.arange(grid.subcarriers)[:, None]
        jbar = np.arange(lp)[None, :] - (lp - 1) / 2.0
        self.q = taps[None, :] * np.exp(
            2j * np.pi * m * jbar / grid.subcarriers
        )

    def chi(self, n_symbols: int) -> np.ndarray:
        m = np.arange(self.grid.subcarriers)[:, None]
        n = np.arange(n_symbols)[None, :]
        return _I4[(2 * m * n + m + n) % 4]


def fbmc_signal_length(grid: FbmcGrid, n_symbols: int) -> int:
    return (n_symbols - 1) * grid.half_symbol + grid.filter.length


def fbmc_synthesize(symbols, grid: FbmcGrid, bank: PulseBank | None = None):
    """Superpose all pulses: s = sum_{m,n} a[m,n] p[m,n].

    symbols may be (M, N) for one frame or (B, M, N) for a batch; the
    returned signal is (L,) or (B, L) accordingly.
    """
    a = np.asarray(symbols)
    if np.iscomplexobj(a):
        raise ShapeError("FBMC symbols must be real-valued PAM amplitudes")
    single = a.ndim == 2
    if single:
        a = a[None]
    if a.ndim != 3 or a.shape[1] != grid.subcarriers:
        raise ShapeError(
            f"symbol array must be (M, N) or (B, M, N) with M={grid.subcarriers}, "
            f"got {np.asarray(symbols).shape}"
        )
    bank = bank or PulseBank(grid)
    n_symbols = a.shape[2]
    weighted = a * bank.chi(n_symbols)[None, :, :]
    per_slot = weighted.transpose(0, 2, 1) @ bank.q
    signal = np.zeros((a.shape[0], fbmc_signal_length(grid, n_symbols)),
                      dtype=np.complex128)
    lp = grid.filter.length
    for n in range(n_symbols):
        start = n * grid.half_symbol
        signal[:, start : start + lp] += per_slot[:, n, :]
    return signal[0] if single else signal


def fbmc_analyze_frame(signal, grid: FbmcGrid, n_symbols: int,
                       bank: PulseBank | None = None) -> np.ndarray:
    """Complex projections <x|p[m,n]> for all slots of a frame (pre-slicing).

    signal may be (L,) or (B, L); the result is (M, N) or (B, M, N).
    """
    x = np.asarray(signal, dtype=np.complex128)
    single = x.ndim == 1
    if single:
        x = x[None]
    if n_symbols < 0:
        raise RangeError(f"symbol count {n_symbols} is negative")
    needed = fbmc_signal_length(grid, n_symbols)
    if x.shape[1] < needed:
        raise RangeError(f"signal length {x.shape[1]} < required {needed}")
    bank = bank or PulseBank(grid)
    windows = np.lib.stride_tricks.sliding_window_view(
        x, grid.filter.length, axis=1)[:, :: grid.half_symbol][:, :n_symbols]
    out = (windows @ bank.q.conj().T).transpose(0, 2, 1)
    out *= bank.chi(n_symbols).conj()[None, :, :]
    return out[0] if single else out
