"""Baseband mapping and multiplexing chains.

Gray PAM bit mapping, with square QAM as PAM over the interleaved
(re, im) parts of its symbols, and FBMC synthesis and analysis of frame
batches as real matrix products with a `PulseBank`'s two phase-folded
banks: real PAM amplitudes in, real decision statistics Re<x|p[m,n]>
out.  The cyclic-prefix OFDM chain is part of `simulate.OfdmSystem`.
Bit groups are LSB-first; the Gray codeword of ascending level index i
is i ^ (i >> 1), identical for PAM and each QAM dimension.
"""

from __future__ import annotations

import functools

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


def pam_map(bits, pam: PamConstellation) -> np.ndarray:
    """Gray-coded PAM levels from bits (LSB-first groups of N_b)."""
    groups = _bits_matrix(bits, pam.bits_per_symbol)
    # 0/1 bits as bytes; codewords in the narrowest unsigned type that holds
    # them (uint8 up to 256-PAM), so no index-sized temporaries
    if groups.dtype.itemsize == 1:
        groups = groups.view(np.uint8)
    else:
        groups = groups.astype(np.uint8)
    codes = groups[:, 0].astype(_code_type(pam))
    shifted = np.empty_like(codes)
    for b in range(1, pam.bits_per_symbol):
        np.left_shift(groups[:, b], b, out=shifted, dtype=codes.dtype)
        codes |= shifted
    return np.take(_gray_tables(pam)[0], codes)


def pam_demap(values, pam: PamConstellation) -> np.ndarray:
    """Minimum-distance slicing then Gray decode, LSB-first int8 bits.

    +-inf decide the end levels; NaN raises ValueError.
    """
    level = np.add(np.asarray(values, dtype=np.float64).ravel(), pam.order)
    level -= 1
    level *= 0.5
    np.rint(level, out=level)
    np.clip(level, 0, pam.order - 1, out=level)
    # max propagates NaN, which no clip or integer cast may turn into a level
    if level.size and np.isnan(level.max()):
        raise ValueError("pam_demap: NaN value has no nearest level")
    return np.take(_gray_tables(pam)[1], level.astype(_code_type(pam)),
                   axis=0).ravel()


def _code_type(pam: PamConstellation) -> np.dtype:
    """Narrowest unsigned integer type of a level index or codeword."""
    return np.min_scalar_type(pam.order - 1)


@functools.cache
def _gray_tables(pam: PamConstellation) -> tuple[np.ndarray, np.ndarray]:
    """Read-only lookup tables of pam: the level of each codeword (argsort
    of the Gray codes is their inverse), and the LSB-first int8 bits of
    each level."""
    codes = pam.gray_codes
    level_of_code = pam.levels[np.argsort(codes)]
    bit_table = ((codes[:, None] >> np.arange(pam.bits_per_symbol)) & 1).astype(np.int8)
    level_of_code.flags.writeable = bit_table.flags.writeable = False
    return level_of_code, bit_table


def qam_map(bits, qam: QamConstellation) -> np.ndarray:
    """Square QAM symbols; first N_b bits map in-phase, next N_b quadrature."""
    _bits_matrix(bits, qam.bits_per_symbol)
    return pam_map(bits, qam.pam).view(np.complex128)


def qam_demap(values, qam: QamConstellation) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.complex128)
    return pam_demap(values.view(np.float64), qam.pam)


# ---------------------------------------------------------------------------
# FBMC
#
# The slot phase chi[m, n] = i**(2*m*n + m + n) obeys chi[m, n + 2] =
# -chi[m, n], so chi[m, n] = (-1)**(n // 2) * chi[m, n % 2] and two
# chi-folded banks, one per column parity, carry every pulse.  With real
# amplitudes and real decisions each product is a real matrix product
# with the banks seen as interleaved (re, im) float rows.  Each call runs
# the whole batch it is given; the simulator keeps its batches near the
# cache by passing them in blocks.

# Rows (symbol columns of one parity) per real product.  OpenBLAS spreads a
# product of about 1e6 multiply-adds or more over all cores; on 2 cores a
# 1560 x 16 x 130 product (65 frames of 48 columns at M=16) gained nothing
# from the second thread and its time varied several-fold from call to call.
# 256 rows keep M=16 on one thread and still reuse an M=256 bank over ten
# frames.
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


def fbmc_synthesize(symbols, bank: PulseBank) -> np.ndarray:
    """Superpose all pulses of bank.grid: s[b] = sum_{m,n} a[b,m,n] p[m,n].

    symbols are a real (B, M, N) batch of frames; the result is the
    complex (B, L) batch of their signals.
    """
    a = np.asarray(symbols)
    grid = bank.grid
    if np.iscomplexobj(a) or a.ndim != 3 or a.shape[1] != grid.subcarriers:
        raise ShapeError(f"symbols must be a real (B, M, N) batch with "
                         f"M={grid.subcarriers}, got {a.dtype} {a.shape}")
    n_symbols = a.shape[2]
    if n_symbols < 1:
        raise RangeError("a frame needs at least one symbol column")
    signs = bank.signs(n_symbols)
    m_sub, lp = grid.subcarriers, grid.filter.length
    signal = np.zeros((a.shape[0], fbmc_signal_length(grid, n_symbols)),
                      dtype=np.complex128)
    per_slot = []
    for r in (0, 1):
        cols = a[:, :, r::2].transpose(0, 2, 1)
        rows = np.empty(cols.shape)
        np.multiply(cols, signs[r::2, None], out=rows)
        prod = _rows_product(rows.reshape(-1, m_sub), bank.folded[r])
        per_slot.append(prod.view(np.complex128).reshape(*cols.shape[:2], lp))
    for n in range(n_symbols):
        start = n * grid.half_symbol
        signal[:, start : start + lp] += per_slot[n % 2][:, n // 2]
    return signal


def fbmc_analyze_frame(signal, bank: PulseBank, n_symbols: int) -> np.ndarray:
    """Real statistics Re<x|p[m,n]> for all slots of bank.grid (pre-slicing).

    signal is a (B, L) batch of frames; the result is the float
    (B, M, N) batch of their statistics.
    """
    x = np.ascontiguousarray(signal, dtype=np.complex128)
    grid = bank.grid
    if x.ndim != 2:
        raise ShapeError(f"signal array must be (B, L), got {x.shape}")
    if n_symbols < 1:
        raise RangeError(f"symbol count {n_symbols} is not positive")
    needed = fbmc_signal_length(grid, n_symbols)
    if x.shape[1] < needed:
        raise RangeError(f"signal length {x.shape[1]} < required {needed}")
    m_sub, lp = grid.subcarriers, grid.filter.length
    signs = bank.signs(n_symbols)
    # column n starts at float offset 2 * n * M/2 = n * M of the (re, im) view
    windows = np.lib.stride_tricks.sliding_window_view(
        x.view(np.float64), 2 * lp, axis=1)
    out = np.empty((x.shape[0], m_sub, n_symbols))
    for r in (0, 1):
        n_r = (n_symbols - r + 1) // 2
        rows = np.ascontiguousarray(windows[:, r * m_sub :: 2 * m_sub][:, :n_r])
        stats = _rows_product(rows.reshape(-1, 2 * lp), bank.folded[r].T)
        stats = stats.reshape(rows.shape[0], n_r, m_sub).transpose(0, 2, 1)
        np.multiply(stats, signs[r::2], out=out[:, :, r::2])
    return out
