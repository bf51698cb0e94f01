"""Independent references that the tests check the package against.

They compute nothing through the code they check: the Q function is
plain erfc, eps[m, n] is the direct inner product of two modulated,
shifted pulses sampled on a common axis, not the folded cosine sums of
`fbmcber.interference.build_set`, the PAM levels and their Gray
codewords are tables, not the arithmetic of `fbmcber.modem.pam_map`
and `pam_demap`, and bit errors are counted on the bits shifted out of
each codeword, not on the Hamming distance of two codewords.  The Gray
PAM BEP has two references besides `fbmcber.analytic`'s weights: Cho and
Yoon's closed-form coefficients (IEEE Trans. Commun. 50(7), 2002), and a
brute-force sum over every sent level and decision region.  OFDM's
reference runs the unitary IFFT/FFT pair that the simulator leaves out,
with the noise added between them; it decides with
`fbmcber.modem.qam_demap`, so it checks the channel path, not the slicer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from fbmcber.constellations import PamConstellation, QamConstellation
from fbmcber.interference import FbmcGrid
from fbmcber.modem import qam_demap


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


def ofdm_chain_errors(codes, qam: QamConstellation, fades, noise):
    """Bit errors per frame of cyclic-prefix OFDM through its FFT pair.

    codes holds each frame's interleaved (in-phase, quadrature) Gray
    codewords, (frames, 2 * M * N_sym).  Their QAM symbols, laid out as
    noise's (frames, M, N_sym), are scaled by fades (the same shape; None
    under AWGN), taken through the unitary IFFT over the M subcarriers,
    and noise, time-domain samples, is added.  The receiver takes the
    unitary FFT, divides by fades and decides with qam_demap.
    """
    order = qam.pam.order
    level = np.empty(order)
    level[gray_codes(order)] = pam_levels(order)
    x = level[np.asarray(codes).ravel()].view(np.complex128).reshape(noise.shape)
    if fades is not None:
        x = x * fades
    y = np.fft.fft(np.fft.ifft(x, axis=1, norm="ortho") + noise, axis=1,
                   norm="ortho")
    if fades is not None:
        y /= fades
    return bit_errors(codes, qam_demap(y, qam).reshape(len(codes), -1),
                      qam.pam.bits_per_symbol)


def cho_weight(i: int, k: int, order: int) -> int:
    """Signed weight w[i, k, N] of the exact Gray-coded PAM BEP sum."""
    pam = PamConstellation(order)
    if not 1 <= k <= pam.bits_per_symbol:
        raise IndexError(f"bit index k={k} outside [1, {pam.bits_per_symbol}]")
    imax = (order - (order >> k)) - 1
    if not 0 <= i <= imax:
        raise IndexError(f"term index i={i} outside [0, {imax}]")
    half = 1 << (k - 1)
    lead = (i * half) // order
    # floor(i*half/order + 1/2) without float rounding
    shifted = (2 * i * half + order) // (2 * order)
    return (-1) ** lead * (half - shifted)


def cho_weights(order: int):
    """All (i, k, weight) triples for the exact PAM BEP of this order."""
    pam = PamConstellation(order)
    out = []
    for k in range(1, pam.bits_per_symbol + 1):
        for i in range(order - (order >> k)):
            out.append((i, k, cho_weight(i, k, order)))
    return out


def collapsed_cho_weights(order: int):
    """Thresholds 2i+1 with their summed weights (zero sums dropped).

    The double (k, i) sum only enters through the threshold 2i+1, so
    merging equal thresholds cuts the kernel evaluations roughly 3x.
    """
    acc: dict[int, int] = {}
    for i, _, w in cho_weights(order):
        acc[2 * i + 1] = acc.get(2 * i + 1, 0) + w
    thetas = np.array(sorted(t for t, w in acc.items() if w != 0), dtype=np.float64)
    weights = np.array([acc[int(t)] for t in thetas], dtype=np.float64)
    return thetas, weights


def region_sum_bep(order: int, gammas, kind: str) -> np.ndarray:
    """Gray PAM BEP as 1/(N log2 N) sum_a sum_j d_H(a, j) P(decide j | a).

    Level a sits at 2a + 1 - N and decision region j spans [2j - N,
    2j + 2 - N], the end regions reaching to infinity.  P(decide j | a)
    is the tail beyond the region's near boundary minus the tail beyond
    its far one, both on the side away from a, so the small regions of
    a high SNR keep their digits.  Tails are q_function for AWGN and the
    textbook Rayleigh tail (1 - sqrt(x / (1 + x))) / 2, x = t^2 snr / 2,
    taken in its rationalized form; d_H counts the differing bits of the
    two Gray codewords one by one.
    """
    nb = int(math.log2(order))
    snr = 6.0 * nb / (order**2 - 1) * np.asarray(gammas, dtype=np.float64)

    def tail(t):
        """Probability that the noise exceeds t half level spacings."""
        if kind == "awgn":
            return q_function(t * np.sqrt(snr))
        x = 0.5 * t * t * snr
        return 0.5 / ((1.0 + x) * (1.0 + np.sqrt(x / (1.0 + x))))

    tails = [tail(t) for t in range(2 * order)]
    codes = gray_codes(order)
    total = np.zeros_like(snr)
    for a in range(order):
        for j in range(order):
            if j == a:
                continue
            near = 2 * abs(j - a) - 1
            far = 0.0 if j in (0, order - 1) else tails[near + 2]
            flips = bin(int(codes[a] ^ codes[j])).count("1")
            total += flips * (tails[near] - far)
    return total / (order * nb)
