"""Closed-form bit error probabilities.

One kernel gives every curve: the Gray-coded PAM BEP averaged over all
amplitude combinations of a truncated FBMC interference table, summed
exactly over the grouped offset support of `enumeration`.  The exact
forms weight each decision threshold by the change in the Hamming
distance of the Gray codewords on either side of it, the rule by which
the simulator counts bit errors; the approximate forms keep the
adjacent-symbol term only.  Single-carrier PAM is the empty table, and
square-QAM OFDM is the exact PAM form at the cyclic-prefix-reduced SNR.
Channels are AWGN and frequency-flat Rayleigh fading.

gamma_b is the normalized SNR (bit energy over noise density), linear
scale throughout; dB conversion happens at the CLI boundary.
"""

from __future__ import annotations

import logging

import numpy as np

from . import enumeration
from .constellations import PamConstellation, QamConstellation
from .errors import ConstellationError

__all__ = [
    "pam_awgn_approx",
    "pam_awgn_exact",
    "pam_rayleigh_approx",
    "pam_rayleigh_exact",
    "ofdm_awgn",
    "ofdm_rayleigh",
    "fbmc_awgn_approx",
    "fbmc_awgn_exact",
    "fbmc_rayleigh_approx",
    "fbmc_rayleigh_exact",
    "db_to_linear",
]

log = logging.getLogger(__name__)


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=np.float64) / 10.0)


def _snr_scale(order: int) -> float:
    """6 log2(N) / (N^2 - 1): squared Q argument per unit gamma_b."""
    pam = PamConstellation(order)
    return 6.0 * pam.bits_per_symbol / (order**2 - 1)


def _gray_weights(order: int):
    """Thresholds theta and weights w of the exact Gray PAM BEP.

    Sent level a crosses the decision boundary between levels k - 1 and
    k at theta = |2(k - a) - 1| half level spacings, and the bit errors
    then step by the change of the Hamming distance to a's Gray codeword,
    taken away from a.  The steps are summed per theta over every (a, k)
    and halved, zero sums dropped; the first entry, theta = 1 with
    w = N - 1, is the adjacent-symbol term.
    """
    index = np.arange(order)
    codes = index ^ (index >> 1)
    # bitwise_count gives uint8, whose differences would wrap around
    dist = np.bitwise_count(codes[:, None] ^ codes).astype(np.int64)
    a, k = index[:, None], index[None, 1:]
    steps = np.where(k > a, 1, -1) * (dist[:, 1:] - dist[:, :-1])
    sums = np.bincount(np.abs(2 * (k - a) - 1).ravel(), weights=steps.ravel())
    thetas = np.flatnonzero(sums)
    return thetas.astype(np.float64), sums[thetas] / 2.0


def _bep(order, eps, gamma_b, kind, form, budget=enumeration.DEFAULT_BUDGET):
    """Gray PAM BEP averaged over every offset of the table `eps`.

    2 / (N log2 N) times the offset mean of sum_theta w * K(scale *
    (theta - x)), with K the `kind` kernel of `enumeration` and (theta,
    w) all of `_gray_weights` ('exact') or its adjacent-symbol term
    ('approx').  An empty `eps` is single-carrier PAM.
    """
    pam = PamConstellation(order)
    gamma = np.atleast_1d(np.asarray(gamma_b, dtype=np.float64))
    if not np.all(gamma > 0):  # NaN fails too
        raise ValueError("gamma_b must be positive")
    thetas, weights = _gray_weights(order)
    if form != "exact":
        thetas, weights = thetas[:1], weights[:1]
    scales = np.sqrt(0.5 * _snr_scale(order) * gamma)
    means = enumeration.reduce_offsets(
        eps, order, scales, thetas, weights, kind, budget=budget,
    )
    probs = 2.0 / (order * pam.bits_per_symbol) * means
    clipped = np.clip(probs, 0.0, 1.0)
    if np.any(probs < -1e-12) or np.any(probs > 1.0 + 1e-12):
        log.warning("BEP outside [0, 1] clamped (max deviation %.3g)",
                    float(np.max(np.abs(probs - clipped))))
    if np.ndim(gamma_b) == 0:
        return float(clipped[0])
    return clipped


# ---------------------------------------------------------------------------
# Single-carrier PAM: the empty interference table

def pam_awgn_approx(order: int, gamma_b):
    """Adjacent-symbol approximation for Gray PAM over AWGN."""
    return _bep(order, (), gamma_b, "awgn", "approx")


def pam_awgn_exact(order: int, gamma_b):
    """Exact Gray PAM BEP over AWGN (weighted Q-function sum)."""
    return _bep(order, (), gamma_b, "awgn", "exact")


def pam_rayleigh_approx(order: int, gamma_b):
    """Adjacent-symbol approximation for Gray PAM over flat Rayleigh fading."""
    return _bep(order, (), gamma_b, "rayleigh", "approx")


def pam_rayleigh_exact(order: int, gamma_b):
    """Exact Gray PAM BEP over flat Rayleigh fading."""
    return _bep(order, (), gamma_b, "rayleigh", "exact")


# ---------------------------------------------------------------------------
# OFDM baseline (square QAM, per-dimension PAM, cyclic-prefix SNR penalty)

def _ofdm_args(qam_order: int, subcarriers: int, n_cp: int):
    qam = QamConstellation(qam_order)
    if subcarriers < 1:
        raise ConstellationError(f"need at least one subcarrier, got {subcarriers}")
    if n_cp < 0:
        raise ConstellationError(f"cyclic prefix length must be >= 0, got {n_cp}")
    return qam.pam, subcarriers / (subcarriers + n_cp)


def ofdm_awgn(qam_order: int, subcarriers: int, n_cp: int, gamma_b):
    """Exact QAM-over-OFDM BEP with the cyclic-prefix SNR reduction.

    Square QAM is two independent Gray PAM dimensions of order sqrt(Q),
    so this is the exact PAM form at the CP-reduced SNR.
    """
    pam, cp_factor = _ofdm_args(qam_order, subcarriers, n_cp)
    gamma = np.asarray(gamma_b, dtype=np.float64)
    return pam_awgn_exact(pam.order, cp_factor * gamma)


def ofdm_rayleigh(qam_order: int, subcarriers: int, n_cp: int, gamma_b):
    """Exact QAM-over-OFDM BEP for flat per-subcarrier Rayleigh fading."""
    pam, cp_factor = _ofdm_args(qam_order, subcarriers, n_cp)
    gamma = np.asarray(gamma_b, dtype=np.float64)
    return pam_rayleigh_exact(pam.order, cp_factor * gamma)


# ---------------------------------------------------------------------------
# FBMC: the PAM forms averaged over every offset of the truncated table

def fbmc_awgn_approx(order, table, gamma_b, *, budget=enumeration.DEFAULT_BUDGET):
    """Approximate FBMC BEP over AWGN for a truncated interference table."""
    return _bep(order, table.eps, gamma_b, "awgn", "approx", budget)


def fbmc_awgn_exact(order, table, gamma_b, *, budget=enumeration.DEFAULT_BUDGET):
    """Exact FBMC BEP over AWGN for a truncated interference table."""
    return _bep(order, table.eps, gamma_b, "awgn", "exact", budget)


def fbmc_rayleigh_approx(order, table, gamma_b, *, budget=enumeration.DEFAULT_BUDGET):
    """Approximate FBMC BEP over flat Rayleigh fading."""
    return _bep(order, table.eps, gamma_b, "rayleigh", "approx", budget)


def fbmc_rayleigh_exact(order, table, gamma_b, *, budget=enumeration.DEFAULT_BUDGET):
    """Exact FBMC BEP over flat Rayleigh fading."""
    return _bep(order, table.eps, gamma_b, "rayleigh", "exact", budget)

