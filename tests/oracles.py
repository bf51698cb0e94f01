"""Independent references that the tests check the package against.

They compute nothing through the code they check: the Q function is
plain erfc, eps[m, n] is the direct inner product of two modulated,
shifted pulses sampled on a common axis, not the folded cosine sums of
`fbmcber.interference.build_set`, the PAM levels and their Gray
codewords are tables, not the arithmetic of `fbmcber.modem.pam_map`
and `pam_demap`, and bit errors are counted on the bits shifted out of
each codeword, not on the Hamming distance of two codewords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from fbmcber.interference import FbmcGrid


def q_function(x):
    """Standard normal tail probability Q(x) = erfc(x / sqrt(2)) / 2."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


@dataclass(frozen=True)
class Pulse:
    """Complex pulse samples with their start index on the global axis."""

    start: int
    samples: np.ndarray

    def energy(self) -> float:
        return float(np.vdot(self.samples, self.samples).real)


def pulse(grid: FbmcGrid, m: int, n: int) -> Pulse:
    """Pulse p[m, n]: shifted by n*M/2, modulated to subcarrier m."""
    if not 0 <= m < grid.subcarriers:
        raise ValueError(f"subcarrier index {m} outside [0, {grid.subcarriers})")
    taps = grid.filter.coeffs
    lp = taps.size
    start = n * grid.half_symbol
    k = np.arange(lp) + start
    kbar = k - (lp - 1) / 2.0
    phase = 2.0 * np.pi * m * kbar / grid.subcarriers + 0.5 * np.pi * (m + n)
    return Pulse(start, taps * np.exp(1j * phase))


def inner_product(a: Pulse, b: Pulse) -> complex:
    """<a|b> = sum a[k] conj(b[k]) over the overlapping support."""
    lo = max(a.start, b.start)
    hi = min(a.start + a.samples.size, b.start + b.samples.size)
    if hi <= lo:
        return 0.0 + 0.0j
    return complex(
        np.vdot(b.samples[lo - b.start : hi - b.start],
                a.samples[lo - a.start : hi - a.start])
    )


def pam_levels(order: int) -> np.ndarray:
    """The PAM amplitude levels -N+1, -N+3, ..., N-1 in ascending order."""
    return np.arange(1 - order, order, 2, dtype=np.float64)


def gray_codes(order: int) -> np.ndarray:
    """Gray codeword carried by each level, in level order."""
    idx = np.arange(order)
    return idx ^ (idx >> 1)


def codeword_bits(codewords, bits_per_symbol: int) -> np.ndarray:
    """The LSB-first int8 bits of each codeword, shifted out one by one."""
    codes = np.asarray(codewords).astype(np.int64).ravel()
    bits = np.empty((codes.size, bits_per_symbol), dtype=np.int8)
    for b in range(bits_per_symbol):
        bits[:, b] = (codes >> b) & 1
    return bits.ravel()


def bit_errors(sent, decided, bits_per_symbol: int) -> np.ndarray:
    """Bit errors per frame of the (frames, ...) codewords sent and the
    codewords decided on them in the same order, bit by bit."""
    frames = len(sent)
    wrong = (codeword_bits(sent, bits_per_symbol)
             != codeword_bits(decided, bits_per_symbol))
    return np.count_nonzero(wrong.reshape(frames, -1), axis=1)
