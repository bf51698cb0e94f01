"""Baseband mapping and multiplexing chains.

Gray PAM/QAM bit mapping, and FBMC synthesis and analysis as real
matrix products with two phase-folded banks of modulated prototypes:
real PAM amplitudes in, real decision statistics Re<x|p[m,n]> out.
The cyclic-prefix OFDM chain is part of `simulate.OfdmSystem`.  Bit
groups are LSB-first; the Gray codeword of ascending level index i is
i ^ (i >> 1), identical for PAM and each QAM dimension.
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
    codes = groups[:, 0].astype(np.intp)
    for b in range(1, pam.bits_per_symbol):
        codes |= np.left_shift(groups[:, b], b, dtype=np.intp)
    return np.take(pam.levels[_gray_inverse(pam)], codes)


def pam_demap(values, pam: PamConstellation) -> np.ndarray:
    """Minimum-distance slicing then Gray decode, LSB-first int8 bits."""
    values = np.asarray(values, dtype=np.float64).ravel()
    idx = np.clip(np.rint((values + pam.order - 1) / 2.0), 0, pam.order - 1)
    shifts = np.arange(pam.bits_per_symbol)
    table = ((pam.gray_codes[:, None] >> shifts) & 1).astype(np.int8)
    return np.take(table, idx.astype(np.intp), axis=0).ravel()


def qam_map(bits, qam: QamConstellation) -> np.ndarray:
    """Square QAM symbols; first N_b bits map in-phase, next N_b quadrature."""
    groups = _bits_matrix(bits, qam.bits_per_symbol)
    half = qam.pam.bits_per_symbol
    out = np.empty(groups.shape[0], dtype=np.complex128)
    out.real = pam_map(groups[:, :half].ravel(), qam.pam)
    out.imag = pam_map(groups[:, half:].ravel(), qam.pam)
    return out


def qam_demap(values, qam: QamConstellation) -> np.ndarray:
    values = np.asarray(values).ravel()
    out = np.empty((values.size, 2, qam.pam.bits_per_symbol), dtype=np.int8)
    out[:, 0] = pam_demap(values.real, qam.pam).reshape(values.size, -1)
    out[:, 1] = pam_demap(values.imag, qam.pam).reshape(values.size, -1)
    return out.ravel()


# ---------------------------------------------------------------------------
# FBMC
#
# The slot phase chi[m, n] = i**(2*m*n + m + n) obeys chi[m, n + 2] =
# -chi[m, n], so chi[m, n] = (-1)**(n // 2) * chi[m, n % 2] and two
# chi-folded banks, one per column parity, carry every pulse.  With real
# amplitudes and real decisions each product is a real matrix product
# with the banks seen as interleaved (re, im) float rows.

# Symbol columns (frames x N) per slice of a batch: keeps the operands of each
# product to a few MB, near the cache; a whole 521-frame M=16 batch ran 1.5x
# slower in one piece.
SLICE_COLUMNS = 4096
# Rows (symbol columns of one parity) per real product.  OpenBLAS spreads a
# product of about 1e6 multiply-adds or more over all cores; on 2 cores a
# 1560 x 16 x 130 product (a 65-frame M=16 slice) gained nothing from the
# second thread and its time varied several-fold from call to call.  256 rows
# keep M=16 on one thread and still reuse an M=256 bank over ten frames.
PRODUCT_ROWS = 256


class PulseBank:
    """Chi-folded modulated prototypes of a grid.

    With q[m, j] = p[j] * exp(2j*pi*m*(j - (L_p-1)/2)/M), the pulse at slot
    (m, n) is signs(N)[n] * fold[n % 2][m] placed at sample offset n*M/2,
    where fold[r][m] = chi[m, r] * q[m].  folded is the (2, M, 2*L_p)
    float64 view of fold: row m of folded[r] interleaves the real and
    imaginary parts of fold[r][m], so a real row vector times folded[r]
    is a real combination of the complex pulses.
    """

    def __init__(self, grid: FbmcGrid):
        self.grid = grid
        taps = grid.filter.coeffs
        m_sub, lp = grid.subcarriers, taps.size
        # fold[r][m, j] = taps[j] * exp(i*pi*k/M) with the integer
        # k = 2*m*j - m*(L_p-1) + (2*m*r + m + r)*M/2 (mod 2M), which has
        # period M in j: gather one period from the 2M-th roots of unity
        m = np.arange(m_sub)[:, None]
        j = np.arange(m_sub)[None, :]
        roots = np.exp(1j * np.pi / m_sub * np.arange(2 * m_sub))
        fold = np.empty((2, m_sub, lp), dtype=np.complex128)
        for r in (0, 1):
            k = 2 * m * j - m * (lp - 1) + (2 * m * r + m + r) * (m_sub // 2)
            period = roots[k % (2 * m_sub)]
            for lo in range(0, lp, m_sub):
                hi = min(lo + m_sub, lp)
                np.multiply(period[:, : hi - lo], taps[lo:hi], out=fold[r, :, lo:hi])
        self.folded = fold.view(np.float64).reshape(2, m_sub, 2 * lp)

    @staticmethod
    def signs(n_symbols: int) -> np.ndarray:
        """Column signs (-1)**(n // 2) for n < n_symbols."""
        return np.where(np.arange(n_symbols) // 2 % 2, -1.0, 1.0)


def _frame_slices(frames: int, n_symbols: int):
    """Equal slices of whole frames, each of at most SLICE_COLUMNS columns
    (a 130-frame M=16 batch ran faster as 65 + 65 frames than as 85 + 45)."""
    most = max(1, SLICE_COLUMNS // max(n_symbols, 1))
    step = max(1, -(-frames // max(1, -(-frames // most))))
    return [slice(lo, min(lo + step, frames)) for lo in range(0, frames, step)]


def _rows_product(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix in equal parts of at most PRODUCT_ROWS rows."""
    out = np.empty((rows.shape[0], matrix.shape[1]))
    parts = max(1, -(-rows.shape[0] // PRODUCT_ROWS))
    step = max(1, -(-rows.shape[0] // parts))
    for lo in range(0, rows.shape[0], step):
        np.matmul(rows[lo : lo + step], matrix, out=out[lo : lo + step])
    return out


def fbmc_signal_length(grid: FbmcGrid, n_symbols: int) -> int:
    return (n_symbols - 1) * grid.half_symbol + grid.filter.length


def fbmc_synthesize(symbols, grid: FbmcGrid, bank: PulseBank | None = None):
    """Superpose all pulses: s = sum_{m,n} a[m,n] p[m,n].

    symbols are real, (M, N) for one frame or (B, M, N) for a batch; the
    returned complex signal is (L,) or (B, L) accordingly.
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
    n_symbols = a.shape[2]
    if n_symbols < 1:
        raise RangeError("a frame needs at least one symbol column")
    bank = bank or PulseBank(grid)
    signs = bank.signs(n_symbols)
    m_sub, lp = grid.subcarriers, grid.filter.length
    signal = np.zeros((a.shape[0], fbmc_signal_length(grid, n_symbols)),
                      dtype=np.complex128)
    for sl in _frame_slices(a.shape[0], n_symbols):
        per_slot = []
        for r in (0, 1):
            cols = a[sl, :, r::2].transpose(0, 2, 1)
            rows = np.empty(cols.shape)
            np.multiply(cols, signs[r::2, None], out=rows)
            prod = _rows_product(rows.reshape(-1, m_sub), bank.folded[r])
            per_slot.append(prod.view(np.complex128).reshape(*cols.shape[:2], lp))
        for n in range(n_symbols):
            start = n * grid.half_symbol
            signal[sl, start : start + lp] += per_slot[n % 2][:, n // 2]
    return signal[0] if single else signal


def fbmc_analyze_frame(signal, grid: FbmcGrid, n_symbols: int,
                       bank: PulseBank | None = None) -> np.ndarray:
    """Real statistics Re<x|p[m,n]> for all slots of a frame (pre-slicing).

    signal may be (L,) or (B, L); the result is a float (M, N) or
    (B, M, N) array.
    """
    x = np.ascontiguousarray(signal, dtype=np.complex128)
    single = x.ndim == 1
    if single:
        x = x[None]
    if n_symbols < 1:
        raise RangeError(f"symbol count {n_symbols} is not positive")
    needed = fbmc_signal_length(grid, n_symbols)
    if x.shape[1] < needed:
        raise RangeError(f"signal length {x.shape[1]} < required {needed}")
    bank = bank or PulseBank(grid)
    m_sub, lp = grid.subcarriers, grid.filter.length
    signs = bank.signs(n_symbols)
    # column n starts at float offset 2 * n * M/2 = n * M of the (re, im) view
    windows = np.lib.stride_tricks.sliding_window_view(
        x.view(np.float64), 2 * lp, axis=1)
    out = np.empty((x.shape[0], m_sub, n_symbols))
    for sl in _frame_slices(x.shape[0], n_symbols):
        for r in (0, 1):
            n_r = (n_symbols - r + 1) // 2
            rows = np.ascontiguousarray(windows[sl, r * m_sub :: 2 * m_sub][:, :n_r])
            stats = _rows_product(rows.reshape(-1, 2 * lp), bank.folded[r].T)
            stats = stats.reshape(rows.shape[0], n_r, m_sub).transpose(0, 2, 1)
            np.multiply(stats, signs[r::2], out=out[sl, :, r::2])
    return out[0] if single else out
