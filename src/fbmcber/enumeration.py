"""Exact offset support of a truncated interference table.

An offset is X = sum_j a_j * eps_j with each PAM amplitude a_j uniform
over the alphabet, so a table with k entries has order**k equally likely
amplitude combinations.  The alphabet is sign-symmetric, so X depends on
the multiset of |eps| only: entries of equal magnitude e form a group,
a group of c entries adds e * S with S the sum of c levels, and the
integer counts of S come from repeated convolution.  The outer sum over
the groups gives support points with integer multiplicities that add up
to order**k, so an average over all offsets is a weighted sum over a
few hundred to a few tens of thousands of points.
"""

from __future__ import annotations

import math

import numpy as np

from .constellations import PamConstellation
from .errors import EnumerationBudgetExceeded

__all__ = ["DEFAULT_BUDGET", "offset_support", "reduce_offsets", "support_size"]

# Support points allowed per table: 8**8, the support of any top-8
# table at N_p = 8, even one without two equal magnitudes.
DEFAULT_BUDGET = 2**24
# Magnitudes closer than this relative distance form one group; mirrored
# table entries agree to the last few ulps only.
GROUP_RTOL = 1e-9
# Kernel arguments (thresholds x support points) per block of the support,
# which keeps the kernel's temporaries in cache: the support is cut into
# the whole number of equal blocks nearest to this size each.
BLOCK_ARGS = 1 << 14


def _groups(eps) -> list[tuple[float, int]]:
    """(mean magnitude, entry count) of each |eps| group, largest first."""
    mags = np.sort(np.abs(np.asarray(eps, dtype=np.float64)))[::-1]
    cuts = np.flatnonzero(mags[:-1] - mags[1:] > GROUP_RTOL * mags[:-1]) + 1
    return [(float(g.mean()), g.size) for g in np.split(mags, cuts) if g.size]


def support_size(eps, order: int) -> int:
    """Support points of the offsets of `eps`: prod over groups of c*(order-1)+1."""
    return math.prod(count * (order - 1) + 1 for _, count in _groups(eps))


def offset_support(eps, order: int, budget: int = DEFAULT_BUDGET):
    """Support values and multiplicities of the order**k offsets of `eps`.

    The multiplicities are integer-valued float64 (exact while order**k
    stays below 2**53) and sum to order**k.  The support is symmetric
    about zero, and it does not depend on the order or signs of `eps`.
    """
    order = PamConstellation(int(order)).order
    size = support_size(eps, order)
    if size > budget:
        raise EnumerationBudgetExceeded(size, budget)
    values = np.zeros(1)
    mults = np.ones(1)
    for mag, count in _groups(eps):
        counts = np.ones(1)
        for _ in range(count):
            counts = np.convolve(counts, np.ones(order))
        sums = 2.0 * np.arange(counts.size) - count * (order - 1)
        values = (values[:, None] + mag * sums).ravel()
        mults = (mults[:, None] * counts).ravel()
    return values, mults


def _kernel(t, kind):
    """K at scaled arguments t.

    awgn kernel      K(t) = 0.5 * erfc(t)
    rayleigh kernel  K(t) = 0.5 * (1 - t / sqrt(t^2 + 1))
    """
    if kind == "awgn":
        # Imported here: scipy.special costs a cold run about 0.3 s, and
        # only AWGN curves need it.
        from scipy.special import erfc

        return 0.5 * erfc(t)
    # Rationalized Rayleigh form: 1/(2 s (s + t)) for t > 0 keeps full
    # precision where the BEP flattens into a floor.  It takes |t|, equal
    # where it is selected, so the discarded t <= 0 lanes never divide by
    # s + t = 0, which they round to from about 300 dB on.  s rounds to |t|
    # from |t| = 2**27 on: clamping |t| there before squaring keeps t <= 0
    # lanes off inf/inf; an overflowing t > 0 denominator gives 0.
    a = np.abs(t)
    s = np.maximum(np.sqrt(np.minimum(a, 2.0**27) ** 2 + 1.0), a)
    with np.errstate(over="ignore"):
        return np.where(t > 0.0, 0.5 / (s * (s + a)), 0.5 * (s - t) / s)


def reduce_offsets(eps, order, scales, thetas, weights, kind,
                   budget=DEFAULT_BUDGET):
    """Per-scale mean over all offsets x of sum_theta weight * K(scale * (theta - x)).

    `scales` holds the kernel scale sqrt(u * gamma / 2) per SNR point and
    `kind` is 'awgn' or 'rayleigh'.  The mean is the multiplicity-weighted
    sum over offset_support(eps, order), taken block by block in a fixed
    order with exact (fsum) accumulation of the partial sums, divided by
    the offset count order**k.  That count is the sum of the
    multiplicities, an exact power of two: it equals their fsum bit for
    bit while order**k <= 2**53, and is the exact count beyond, where
    the float multiplicities themselves round.
    """
    if kind not in ("awgn", "rayleigh"):
        raise ValueError(f"unknown channel kind {kind!r}: use 'awgn' or 'rayleigh'")
    values, mults = offset_support(eps, order, budget)
    scales = np.atleast_1d(np.asarray(scales, dtype=np.float64))
    thetas = np.asarray(thetas, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    parts = [[] for _ in scales]
    blocks = max(1, round(values.size * thetas.size / BLOCK_ARGS))
    step = -(-values.size // blocks)
    for start in range(0, values.size, step):
        diff = thetas[:, None] - values[None, start:start + step]
        mult = mults[start:start + step]
        for part, scale in zip(parts, scales):
            part.extend(weights * (_kernel(scale * diff, kind) * mult).sum(axis=1))
    total = float(order) ** len(eps)
    return np.array([math.fsum(part) / total for part in parts])
