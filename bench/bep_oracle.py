"""Independent bit error probability oracle for Gray-coded PAM links.

Uses numpy and scipy only, so it can check the package's analytic curves
without sharing any of their code.  The bit error probability is taken
from its definition: for every transmitted level and every decision
region, the probability that the received amplitude lands in that region,
weighted by the number of Gray-code bits the two levels differ in.  An
FBMC link adds the offset X = sum_j a_j * eps_j of the kept interference
elements; its exact distribution is built by grouping equal |eps| and
convolving the integer sums of PAM levels within each group.

Under flat Rayleigh fading with zero-forcing, the received amplitude is
level + X + N/h, so every Gaussian tail Q(z) is replaced by its average
over the fade power g ~ Exp(1),

    E_g[Q(z * sqrt(g))] = 1/2 / ((1 + s) * (1 + sqrt(s / (1 + s)))),  s = z^2 / 2,

which is the cancellation-free form of (1 - sqrt(s / (1 + s))) / 2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

__all__ = [
    "offset_distribution",
    "pam_bep",
    "ofdm_bep",
    "brute_force_bep",
    "block_fading_se",
    "self_check",
]

# Magnitudes closer than this relative distance are one group; mirrored
# table entries agree to the last few ulps only.
GROUP_RTOL = 1e-9
# Support points evaluated at once; bounds the oracle's memory.
CHUNK = 2048


def _levels(order: int) -> np.ndarray:
    return np.arange(1 - order, order, 2, dtype=np.float64)


def _bits_per_symbol(order: int) -> int:
    if order < 2 or order & (order - 1):
        raise ValueError(f"PAM order must be a power of two >= 2, got {order}")
    return order.bit_length() - 1


def _gray_distance(order: int) -> np.ndarray:
    """Hamming distance between the Gray words of level indices i and j."""
    idx = np.arange(order)
    gray = idx ^ (idx >> 1)
    diff = gray[:, None] ^ gray[None, :]
    return np.array([[bin(int(v)).count("1") for v in row] for row in diff],
                    dtype=np.float64)


def _group_magnitudes(eps) -> list[tuple[float, int]]:
    mags = np.sort(np.abs(np.asarray(eps, dtype=np.float64)))[::-1]
    groups: list[list[float]] = []
    for mag in mags:
        if groups and abs(groups[-1][0] - mag) <= GROUP_RTOL * groups[-1][0]:
            groups[-1].append(mag)
        else:
            groups.append([mag])
    return [(float(np.mean(g)), len(g)) for g in groups]


def offset_distribution(eps, order: int):
    """Support and probabilities of X = sum_j a_j eps_j, a_j uniform levels.

    The amplitudes are sign-symmetric, so X depends on |eps| only.  A
    group of c equal magnitudes e contributes e * S with S the sum of c
    levels, whose exact integer counts come from repeated convolution.
    """
    _bits_per_symbol(order)
    support = np.zeros(1)
    probs = np.ones(1)
    for mag, count in _group_magnitudes(eps):
        counts = np.ones(1, dtype=np.int64)
        for _ in range(count):
            counts = np.convolve(counts, np.ones(order, dtype=np.int64))
        sums = 2.0 * np.arange(counts.size) - count * (order - 1)
        group_p = counts / float(order) ** count
        support = (support[:, None] + mag * sums[None, :]).ravel()
        probs = (probs[:, None] * group_p[None, :]).ravel()
    return support, probs


def _awgn_tail(z):
    """P(Z > z) for a standard normal Z and z >= 0."""
    return ndtr(-z)


def _rayleigh_tail(z):
    """E_g[Q(z sqrt(g))] over g ~ Exp(1), for z >= 0 (z = inf gives 0)."""
    s = 0.5 * z * z
    with np.errstate(divide="ignore"):
        root = 1.0 / np.sqrt(1.0 + 1.0 / s)
    return 0.5 / ((1.0 + s) * (1.0 + root))


def _expected_bit_errors(offsets, order, sigma, tail):
    """Sum over levels i and regions j of hamming(i, j) * P(region j | i, x)."""
    levels = _levels(order)
    lo = np.concatenate([[-np.inf], levels[1:] - 1.0])
    hi = np.concatenate([levels[:-1] + 1.0, [np.inf]])
    mean = levels[None, :, None] + offsets[:, None, None]          # (S, i, 1)
    a = (lo[None, None, :] - mean) / sigma                         # (S, i, j)
    b = (hi[None, None, :] - mean) / sigma
    ta = tail(np.abs(a))
    tb = tail(np.abs(b))
    # Interval probabilities from the two tails without cancellation:
    # region above the mean, below it, or containing it.
    prob = np.where(a >= 0.0, ta - tb, np.where(b <= 0.0, tb - ta, 1.0 - ta - tb))
    return np.einsum("sij,ij->s", prob, _gray_distance(order))


def pam_bep(order: int, gamma_b, channel: str, eps=()):
    """Gray PAM bit error probability with an optional interference table.

    gamma_b is the linear bit-energy-to-noise-density ratio; channel is
    'awgn' or 'rayleigh'.  Levels are spaced by 2, so the noise standard
    deviation in level units is 1 / sqrt(6 log2(N) gamma_b / (N^2 - 1)).
    """
    bits = _bits_per_symbol(order)
    tail = {"awgn": _awgn_tail, "rayleigh": _rayleigh_tail}[channel]
    gammas = np.atleast_1d(np.asarray(gamma_b, dtype=np.float64))
    support, probs = offset_distribution(eps, order)
    out = np.empty(gammas.size)
    for gi, gamma in enumerate(gammas):
        sigma = 1.0 / math.sqrt(6.0 * bits * gamma / (order * order - 1))
        total = 0.0
        for start in range(0, support.size, CHUNK):
            stop = start + CHUNK
            per_offset = _expected_bit_errors(support[start:stop], order,
                                              sigma, tail)
            total += float(np.dot(probs[start:stop], per_offset))
        out[gi] = total / (order * bits)
    return out


def ofdm_bep(qam_order: int, subcarriers: int, n_cp: int, gamma_b, channel: str):
    """Square-QAM OFDM: sqrt(Q)-PAM per dimension at the prefix-reduced SNR."""
    root = math.isqrt(qam_order)
    if root * root != qam_order:
        raise ValueError(f"QAM order must be a perfect square, got {qam_order}")
    scale = subcarriers / (subcarriers + n_cp)
    return pam_bep(root, scale * np.asarray(gamma_b, dtype=np.float64), channel)


def brute_force_bep(order: int, gamma_b, channel: str, eps):
    """Reference for small tables: average over all N**k amplitude vectors."""
    eps = np.asarray(eps, dtype=np.float64)
    grids = np.meshgrid(*([_levels(order)] * eps.size), indexing="ij")
    offsets = sum(g.ravel() * e for g, e in zip(grids, eps)) if eps.size else np.zeros(1)
    bits = _bits_per_symbol(order)
    tail = {"awgn": _awgn_tail, "rayleigh": _rayleigh_tail}[channel]
    out = []
    for gamma in np.atleast_1d(np.asarray(gamma_b, dtype=np.float64)):
        sigma = 1.0 / math.sqrt(6.0 * bits * gamma / (order * order - 1))
        per_offset = _expected_bit_errors(np.asarray(offsets, dtype=np.float64),
                                          order, sigma, tail)
        out.append(float(np.mean(per_offset)) / (order * bits))
    return np.array(out)


def block_fading_se(order: int, gamma_b, eps, frame_bits: int, frames) -> np.ndarray:
    """Standard error of a BER measured over `frames` block-faded frames.

    Each frame sees one fade power g ~ Exp(1) and then has the AWGN bit
    error probability P(g) = pam_bep(order, g * gamma_b, 'awgn', eps).
    The variance of one frame's BER is Var_g[P(g)] + E_g[P(1 - P)] / n
    for n bits per frame.  The fade moments are integrated over ln(g)
    with the trapezoid rule on a shared grid of g * gamma_b, 25 nodes per
    decade, from g = 1e-12 to 50.
    """
    gammas = np.atleast_1d(np.asarray(gamma_b, dtype=np.float64))
    lo = math.log10(gammas.min()) - 12.0
    hi = math.log10(gammas.max() * 50.0)
    snr = np.logspace(lo, hi, int((hi - lo) * 25) + 1)
    p = pam_bep(order, snr, "awgn", eps)
    out = np.empty(gammas.size)
    for i, (gamma, count) in enumerate(zip(gammas, np.broadcast_to(frames, gammas.shape))):
        g = snr / gamma
        weight = np.exp(-g) * g
        m1 = np.trapezoid(weight * p, np.log(g))
        m2 = np.trapezoid(weight * p * p, np.log(g))
        out[i] = math.sqrt(max(m2 - m1 * m1 + (m1 - m2) / frame_bits, 0.0) / count)
    return out


def self_check() -> float:
    """Largest relative error of the oracle against the BPSK closed forms
    and against brute-force enumeration of a three-entry table."""
    gammas = 10.0 ** (np.arange(0.0, 41.0, 5.0) / 10.0)
    awgn = np.array([0.5 * math.erfc(math.sqrt(g)) for g in gammas])
    rayleigh = 0.5 / ((1.0 + gammas) * (1.0 + np.sqrt(gammas / (1.0 + gammas))))
    eps = [0.11, -0.05, 0.05]
    pairs = [
        (pam_bep(2, gammas[:4], "awgn"), awgn[:4]),
        (pam_bep(2, gammas, "rayleigh"), rayleigh),
        (pam_bep(8, gammas, "awgn", eps), brute_force_bep(8, gammas, "awgn", eps)),
        (pam_bep(8, gammas, "rayleigh", eps),
         brute_force_bep(8, gammas, "rayleigh", eps)),
    ]
    return max(float(np.max(np.abs(got / want - 1.0))) for got, want in pairs)
