"""Baseband mapping and multiplexing chains.

Gray PAM bit mapping, with square QAM as PAM over the interleaved
(re, im) parts of its symbols, and FBMC synthesis and analysis of frame
batches in polyphase form, from a `PulseBank`'s two M x M root-of-unity
matrices and its chunks of M prototype taps.  One routine per
direction serves every M: each column parity of synthesis forms the
run of signal blocks that the sample range needs, from the zero-padded
columns they read, and adds it once; each parity of analysis sums the
chunks of one window view before its root-of-unity product.  Only
`PulseBank.blocks` and `PulseBank.project` know the form of that
product: up to M=32 a real matrix product, run in parts small enough to
stay on one OpenBLAS thread (synthesis folds the chunks into its
matrix), above a twisted length-M FFT.  Real PAM amplitudes in, real
decision statistics Re<x|p[m,n]> out.  OFDM has no modem: its unitary
FFT pair moves no noise statistic, so `simulate.OfdmSystem` skips it.
The mapping works on Gray codewords: `pam_codewords` packs LSB-first
groups of N_b bits into codewords, `pam_map` gives the level of each
codeword and `pam_demap` the codeword of the nearest level, so the bit
errors of a decision are the Hamming distance between the sent and the
decided codeword.  The Gray codeword of ascending level index i is
i ^ (i >> 1), identical for PAM and each QAM dimension; a QAM symbol is
an interleaved (in-phase, quadrature) pair of codewords.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .constellations import PamConstellation, QamConstellation
from .errors import RangeError, ShapeError
from .interference import FbmcGrid

__all__ = [
    "pam_codewords",
    "pam_map",
    "pam_demap",
    "qam_map",
    "qam_demap",
    "fbmc_synthesize",
    "fbmc_analyze_frame",
    "fbmc_signal_length",
    "PulseBank",
]


def pam_codewords(bits, pam: PamConstellation) -> np.ndarray:
    """Codewords of the LSB-first groups of N_b bits, in the narrowest
    unsigned type that holds them (uint8 up to 256-PAM)."""
    bits = np.asarray(bits)
    if bits.size % pam.bits_per_symbol:
        raise ShapeError(
            f"bit count {bits.size} not divisible by {pam.bits_per_symbol}"
        )
    groups = bits.reshape(-1, pam.bits_per_symbol)
    # 0/1 bits as bytes, so no index-sized temporaries
    if groups.dtype.itemsize == 1:
        groups = groups.view(np.uint8)
    else:
        groups = groups.astype(np.uint8)
    codes = groups[:, 0].astype(_code_type(pam))
    shifted = np.empty_like(codes)
    for b in range(1, pam.bits_per_symbol):
        np.left_shift(groups[:, b], b, out=shifted, dtype=codes.dtype)
        codes |= shifted
    return codes


def pam_map(codewords, pam: PamConstellation) -> np.ndarray:
    """Gray-coded PAM levels of codewords (as from pam_codewords).

    The level index of codeword g is the prefix XOR g ^ (g >> 1) ^
    (g >> 2) ^ ..., taken in log2(N_b) shift steps.
    """
    codewords = np.asarray(codewords)
    if codewords.dtype.kind not in "ui" or codewords.size and not (
            0 <= codewords.min() and codewords.max() < pam.order):
        raise RangeError(f"codewords of {pam.order}-PAM must be integers "
                         f"in [0, {pam.order})")
    index = codewords.astype(_code_type(pam)).ravel()
    shifted = np.empty_like(index)
    step = 1
    while step < pam.bits_per_symbol:
        np.right_shift(index, step, out=shifted)
        index ^= shifted
        step *= 2
    levels = np.multiply(index, 2.0)
    levels -= pam.order - 1
    return levels


def pam_demap(values, pam: PamConstellation) -> np.ndarray:
    """Gray codeword of the nearest level to each value (minimum-distance
    slicing), in pam_codewords' type.

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
    codes = level.astype(_code_type(pam))
    codes ^= codes >> 1
    return codes


def _code_type(pam: PamConstellation) -> np.dtype:
    """Narrowest unsigned integer type of a level index or codeword."""
    return np.min_scalar_type(pam.order - 1)


def qam_map(codewords, qam: QamConstellation) -> np.ndarray:
    """Square QAM symbols of interleaved in-phase and quadrature PAM
    codewords; pam_codewords(bits, qam.pam) maps each symbol's first N_b
    bits in-phase and the next N_b quadrature."""
    codewords = np.asarray(codewords)
    if codewords.size % 2:
        raise ShapeError(f"codeword count {codewords.size} is odd: QAM "
                         f"needs an in-phase and a quadrature codeword")
    return pam_map(codewords, qam.pam).view(np.complex128)


def qam_demap(values, qam: QamConstellation) -> np.ndarray:
    """Interleaved in-phase and quadrature codewords of the nearest
    symbols."""
    values = np.ascontiguousarray(values, dtype=np.complex128)
    return pam_demap(values.view(np.float64), qam.pam)


# ---------------------------------------------------------------------------
# FBMC
#
# The slot phase chi[m, n] = i**(2*m*n + m + n) obeys chi[m, n + 2] =
# -chi[m, n], so chi[m, n] = (-1)**(n // 2) * chi[m, n % 2] and two
# chi-folded banks, one per column parity, carry every pulse; `PulseBank`
# holds them in polyphase form.  With real amplitudes and real decisions
# each product is a real matrix product with the complex samples seen as
# interleaved (re, im) floats.  Each call runs the whole batch it is
# given; the simulator keeps its batches near the cache by passing them
# in blocks.

# OpenBLAS spreads a product of about 1e6 multiply-adds or more over all
# cores; on 2 cores a 1560 x 16 x 130 product (65 frames of 48 columns at
# M=16) gained nothing from the second thread and its time varied
# several-fold from call to call, and after each threaded product the worker
# spins on the other core for about 0.1 s, taking it from the noise helper
# and from whatever runs next.  So every product runs in parts of fewer
# multiply-adds.
_PART_MACS = 1_000_000


class PulseBank:
    """Chi-folded modulated prototypes of a grid, in polyphase form.

    With q[m, j] = p[j] * exp(2j*pi*m*(j - (L_p-1)/2)/M), the pulse at slot
    (m, n) is signs(N)[n] * fold[n % 2][m] placed at sample offset n*M/2,
    where fold[r][m] = chi[m, r] * q[m].  The phase of fold[r][m, j] has
    period M in j, so fold[r][m, j] = p[j] * period[r][m, j mod M]:

    period: the (2, M, 2M) float64 form of the two complex M x M root-of-
        unity matrices; row m of period[r] interleaves the real and
        imaginary parts, so a real row vector times period[r] is a real
        combination of the complex rows.
    twist: the (2, M) complex factors of period[r][m, j] = twist[r, m] *
        exp(2j*pi*m*j/M), so a product with period[r] is an inverse DFT of
        the rows times twist[r], and one with its adjoint a DFT times the
        conjugate twist.
    fft: whether the modem takes the FFT form (M > 32) rather than the
        matrix form (M <= 32).
    chunks: the (C, 2M) taps p[q*M + i], C = ceil(L_p / M), each repeated
        for the real and the imaginary part and zero past L_p.

    The matrix form folds the chunks into its synthesis matrices:
    `_synthesis[r]` stacks period[r] * chunks[C-1-c] for c < C, and a
    window of C consecutive parity-r columns times it is one 2M-float
    block of the signal.  The FFT form transforms the columns once and
    sums each block's chunk-weighted transforms, one chunk at a time over
    the whole run.  Both forms analyze a column as its chunk sums (its
    2*L_p signal floats in chunks of 2M, weighted by the chunks and
    summed) projected by `project`.  `blocks` and `project` are the only
    code that reads `fft`.  The matrices are built on first use: a bank of
    the FFT form never needs them (4 ms at M=256).
    OpenBLAS rounds a row's product with these row-major matrices the same
    in every product of two rows or more (a one-row product takes another
    kernel), so the window of a frame that the simulator synthesizes and
    analyzes gives the frame's samples and counted statistics bit for bit.
    The FFT transforms each row on its own, so either way a frame's
    statistics do not depend on the batch.
    """

    def __init__(self, grid: FbmcGrid):
        self.grid = grid
        taps = grid.filter.coeffs
        m_sub, lp = grid.subcarriers, taps.size
        # fold[r][m, j] = taps[j] * exp(i*pi*k/M) with the integer
        # k = 2*m*j + k0[r, m] (mod 2M), k0[r, m] = -m*(L_p-1) +
        # (2*m*r + m + r)*M/2, which has period M in j: gather one period
        # from the 2M-th roots of unity
        m = np.arange(m_sub)
        self._k0 = np.stack([-m * (lp - 1) + (2 * m * r + m + r) * (m_sub // 2)
                             for r in (0, 1)])
        self._roots = np.exp(1j * np.pi / m_sub * np.arange(2 * m_sub))
        self.twist = self._roots[self._k0 % (2 * m_sub)]
        # In the simulator's blocks the matrix form synthesized and
        # analyzed in about 0.65x the FFT form's time at M=16 and 0.9x at
        # M=32; the two tied at M=36 and M=40, and the FFT form won at M=44.
        self.fft = m_sub > 32
        padded = np.zeros(-(-lp // m_sub) * m_sub)
        padded[:lp] = taps
        self.chunks = np.repeat(padded, 2).reshape(-1, 2 * m_sub)

    @cached_property
    def _adjoint(self) -> np.ndarray:
        m_sub = self.grid.subcarriers
        mj = np.outer(np.arange(m_sub), np.arange(m_sub))
        adjoint = np.empty((2, 2 * m_sub, m_sub))
        for r in (0, 1):
            period_r = self._roots[(2 * mj + self._k0[r, :, None]) % (2 * m_sub)]
            adjoint[r, 0::2] = period_r.real.T
            adjoint[r, 1::2] = period_r.imag.T
        return adjoint

    @property
    def period(self) -> np.ndarray:
        return self._adjoint.transpose(0, 2, 1)

    @cached_property
    def _synthesis(self) -> np.ndarray:
        """(2, C*M, 2M): row block c of [r] is period[r] * chunks[C-1-c]."""
        n_chunks, width = self.chunks.shape
        blocks = self.period[:, None] * self.chunks[::-1, None, :]
        return blocks.reshape(2, n_chunks * self.grid.subcarriers, width)

    @staticmethod
    def signs(n_symbols: int) -> np.ndarray:
        """Column signs (-1)**(n // 2) for n < n_symbols."""
        return np.where(np.arange(n_symbols) // 2 % 2, -1.0, 1.0)

    def blocks(self, cols: np.ndarray, r: int) -> np.ndarray:
        """The (B, J, 2M) signal blocks of parity r's (B, J+C-1, M) signed
        columns: block j is sum_q chunks[q] * (cols[:, j+C-1-q] @
        period[r]), the window of C columns j .. j+C-1 times _synthesis[r]
        in the matrix form, and the chunk-weighted sum of the columns'
        twisted inverse DFTs in the FFT form."""
        frames, n_cols, m_sub = cols.shape
        n_chunks, width = self.chunks.shape
        n_blocks = n_cols - n_chunks + 1
        if not self.fft:
            windows = np.lib.stride_tricks.sliding_window_view(
                cols.reshape(frames, n_cols * m_sub), n_chunks * m_sub, axis=1)
            rows = np.ascontiguousarray(windows[:, ::m_sub])
            run = _rows_product(rows.reshape(-1, n_chunks * m_sub),
                                self._synthesis[r])
            return run.reshape(frames, n_blocks, width)
        # in place: one more complex temporary cost about 4% at M=256
        prod = cols * self.twist[r]
        np.fft.ifft(prod, axis=2, norm="forward", out=prod)
        prod = prod.view(np.float64)
        run = prod[:, n_chunks - 1 :] * self.chunks[0]
        term = np.empty_like(run)
        for q in range(1, n_chunks):
            at = n_chunks - 1 - q
            np.multiply(prod[:, at : at + n_blocks], self.chunks[q], out=term)
            run += term
        return run

    def project(self, rows: np.ndarray, r: int) -> np.ndarray:
        """rows @ period[r].T: the (R, M) real projections of the (R, 2M)
        interleaved rows onto parity r's complex rows, as a twisted DFT in
        the FFT form and one real matrix product in the matrix form."""
        if not self.fft:
            return _rows_product(rows, self._adjoint[r])
        spectra = np.fft.fft(rows.view(np.complex128), axis=1)
        spectra *= self.twist[r].conj()
        return spectra.real


def _equal_slices(n: int, most: int) -> list[slice]:
    """The fewest equal slices of range(n) of at most `most` (>= 1) items
    each; the last one may be shorter."""
    step = max(1, -(-n // max(1, -(-n // most))))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _rows_product(rows: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """rows @ matrix in equal parts of fewer than _PART_MACS multiply-adds."""
    out = np.empty((rows.shape[0], matrix.shape[1]))
    most = max(1, (_PART_MACS - 1) // matrix.size)
    for sl in _equal_slices(rows.shape[0], most):
        np.matmul(rows[sl], matrix, out=out[sl])
    return out


def fbmc_signal_length(grid: FbmcGrid, n_symbols: int) -> int:
    return (n_symbols - 1) * grid.half_symbol + grid.filter.length


def fbmc_synthesize(symbols, bank: PulseBank, start: int = 0,
                    stop: int | None = None) -> np.ndarray:
    """Superpose all pulses of bank.grid: s[b] = sum_{m,n} a[b,m,n] p[m,n].

    symbols are a real (B, M, N) batch of frames; the result is the
    complex (B, stop - start) batch of their signals' samples [start,
    stop), by default the whole signal of fbmc_signal_length(grid, N).
    """
    a = np.asarray(symbols)
    grid = bank.grid
    if np.iscomplexobj(a) or a.ndim != 3 or a.shape[1] != grid.subcarriers:
        raise ShapeError(f"symbols must be a real (B, M, N) batch with "
                         f"M={grid.subcarriers}, got {a.dtype} {a.shape}")
    n_symbols = a.shape[2]
    if n_symbols < 1:
        raise RangeError("a frame needs at least one symbol column")
    length = fbmc_signal_length(grid, n_symbols)
    stop = length if stop is None else stop
    if not 0 <= start <= stop <= length:
        raise RangeError(f"sample range [{start}, {stop}) is not within "
                         f"the signal's [0, {length})")
    signs = bank.signs(n_symbols)
    first = 2 * start
    signal = np.zeros((a.shape[0], 2 * stop - first))
    for r in (0, 1):
        cols = a[:, :, r::2].transpose(0, 2, 1)
        _add_parity(signal, cols, signs[r::2, None], bank, r, first)
    return signal.view(np.complex128)


def _add_parity(signal, cols, signs, bank, r, first):
    """Add the pulses of parity r's (B, J, M) columns cols * signs into the
    signal's floats [first, first + signal.shape[1]).

    Column j starts at float (r + 2j)*M and chunk q of its pulse 2q*M
    floats later, so output block b of the parity, the width = 2M floats
    from float (r + 2b)*M, sums chunk q of column b-q over q < C.  Only
    the blocks lo .. hi-1 that reach into the signal's floats are formed,
    as one run by bank.blocks from the columns lo-C+1 .. hi-1, which are
    zero outside 0 .. J-1, and the run is added once, clipped to the
    signal's floats.
    """
    frames, n_cols, m_sub = cols.shape
    n_chunks, width = bank.chunks.shape
    lo = max(0, (first - r * m_sub) // width)
    hi = min(n_cols + n_chunks - 1,
             -(-(first + signal.shape[1] - r * m_sub) // width))
    if lo >= hi:
        return
    j0 = lo - n_chunks + 1
    c0, c1 = max(j0, 0), min(hi, n_cols)
    padded = np.zeros((frames, hi - j0, m_sub))
    np.multiply(cols[:, c0:c1], signs[c0:c1], out=padded[:, c0 - j0 : c1 - j0])
    run = bank.blocks(padded, r).reshape(frames, (hi - lo) * width)
    at = (r + 2 * lo) * m_sub
    begin = max(at, first)
    end = min(at + run.shape[1], first + signal.shape[1])
    signal[:, begin - first : end - first] += run[:, begin - at : end - at]


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
    m_sub, lp, frames = grid.subcarriers, grid.filter.length, x.shape[0]
    signs = bank.signs(n_symbols)
    # column n reads the 2*L_p floats from float n*M of the (re, im) view:
    # one window view serves both parities, each summed over its chunks
    windows = np.lib.stride_tricks.sliding_window_view(
        x.view(np.float64), 2 * lp, axis=1)[:, ::m_sub][:, :n_symbols]
    out = np.empty((frames, m_sub, n_symbols))
    for r in (0, 1):
        sums = _chunk_sums(windows[:, r::2], bank)
        stats = bank.project(sums.reshape(-1, 2 * m_sub), r)
        stats = stats.reshape(sums.shape[:2] + (m_sub,)).transpose(0, 2, 1)
        np.multiply(stats, signs[r::2], out=out[:, :, r::2])
    return out


def _chunk_sums(windows, bank):
    """The (B, N, 2M) sums over q of the windows' chunks q times
    bank.chunks[q]; the last, partial chunk reads only as far as the taps
    reach."""
    frames, n_symbols, floats = windows.shape
    n_chunks, width = bank.chunks.shape
    full = (n_chunks - 1) * width
    whole = windows[..., :full].reshape(frames, n_symbols, n_chunks - 1, width)
    acc = np.einsum("bnqi,qi->bni", whole, bank.chunks[:-1])
    # the partial chunk as complex samples times their taps: a one-tap
    # chunk is then one run over the columns, not one per column
    tail = acc.view(np.complex128)[..., : (floats - full) // 2]
    tail += windows[..., full:].view(np.complex128) * bank.chunks[-1, : floats - full : 2]
    return acc
