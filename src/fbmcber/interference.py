"""Intrinsic interference of an FBMC grid.

The element eps[m, n] is the real projection of the pulse at subcarrier
offset m and half-symbol time offset n onto the reference pulse.  With
the quarter-turn phase map phi[m, n] = (pi/2)(m + n) it reduces to

    eps[m, n] = cos(phi[m, n]) * sum_k p[k] * p[k - n*M/2] * cos(pi*m*d_k/M)

with the integer d_k = 2k - (L_p - 1).  Each n folds its overlap into 2M
bins f[r] by d_k mod 2M, and sum_r f[r] cos(pi*r*m/M) for m < M is the real
part of the row's length-2M DFT: one real FFT gives every element of the set.
cos(phi) is one of {1, 0, -1}, applied exactly: odd m + n give exact zeros.
eps[0, 0], the pulse energy, is the single dot product of the taps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .filters import PrototypeFilter

__all__ = [
    "FbmcGrid",
    "InterferenceTable",
    "build_set",
    "set_size",
    "truncate",
    "sir",
    "ordered_magnitudes",
    "export_table_csv",
]

NULL_THRESHOLD = 1e-15

_COS_QUARTER = (1.0, 0.0, -1.0, 0.0)


@dataclass(frozen=True)
class FbmcGrid:
    """Subcarrier/half-symbol lattice with phase map phi = (pi/2)(m + n)."""

    subcarriers: int
    filter: PrototypeFilter

    def __post_init__(self):
        if self.subcarriers < 2 or self.subcarriers % 2:
            raise ValueError(
                f"subcarrier count must be even and >= 2, got {self.subcarriers}"
            )
        k, m = self.filter.overlap, self.subcarriers
        if self.filter.length not in (k * m - 1, k * m, k * m + 1):
            raise ValueError(
                f"filter length {self.filter.length} incompatible with "
                f"K={k}, M={m} (expected K*M-1, K*M or K*M+1)"
            )
        energy = self.filter.energy()
        if abs(energy - 1.0) > 1e-9:
            raise ValueError(f"filter taps need unit energy, got {energy!r} "
                             f"(see filters.normalize_energy)")

    @property
    def half_symbol(self) -> int:
        return self.subcarriers // 2

    @property
    def time_span(self) -> int:
        """Largest |n| of the set, ceil((L_p - 1)/(M/2)) - 1, per the count.

        When M/2 divides L_p - 1, the pulses at |n| = 2(L_p - 1)/M still
        overlap the reference in one sample, p[0] * p[L_p - 1]; the set
        leaves those elements out (1/L_p for rect, 5e-8 for EGF alpha=1 at
        K=4, M=16, zero for Martin).
        """
        return -(-(self.filter.length - 1) // self.half_symbol) - 1


@dataclass(frozen=True)
class InterferenceTable:
    """Interference elements of a grid, as the set-size formula counts them.

    Entries cover 0 <= m < M, |n| <= time span, m + n even, excluding
    (0, 0); the one-sample overlaps just past the span are not included
    (see FbmcGrid.time_span).  Entries whose magnitude falls below
    NULL_THRESHOLD are kept but flagged through null_mask().
    """

    m: np.ndarray
    n: np.ndarray
    eps: np.ndarray
    eps00: float
    grid: FbmcGrid

    def __post_init__(self):
        for name in ("m", "n", "eps"):
            arr = getattr(self, name)
            arr = np.asarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.eps.size

    def null_mask(self) -> np.ndarray:
        return np.abs(self.eps) < NULL_THRESHOLD

    def interference_energy(self) -> float:
        return float(np.dot(self.eps, self.eps))


def build_set(grid: FbmcGrid) -> InterferenceTable:
    """All interference elements allowed by support and parity, n outer."""
    taps, m_sub = grid.filter.coeffs, grid.subcarriers
    span, lp, bins = grid.time_span, taps.size, 2 * m_sub
    residue = (2 * np.arange(lp) - (lp - 1)) % bins
    folds = np.empty((2 * span + 1, bins))
    for row, n in enumerate(range(-span, span + 1)):
        shift = n * grid.half_symbol
        lo, hi = max(0, shift), min(lp, lp + shift)
        overlap = taps[lo:hi] * taps[lo - shift : hi - shift]
        folds[row] = np.bincount(residue[lo:hi], overlap, minlength=bins)
    sums = np.fft.rfft(folds, axis=1).real[:, :m_sub]
    n, m = np.mgrid[-span : span + 1, 0:m_sub]
    keep = ((m + n) % 2 == 0) & ((m != 0) | (n != 0))
    cos_phi = np.array(_COS_QUARTER)[(m + n) % 4]
    return InterferenceTable(m[keep], n[keep], (cos_phi * sums)[keep],
                             grid.filter.energy(), grid)


def set_size(M: int, L_p: int) -> int:
    """Element count M*(ceil((L_p-1)/(M/2)) - 1/2) - 1; degenerate -> 0."""
    if M < 2 or M % 2:
        raise ValueError(f"subcarrier count must be even and >= 2, got {M}")
    if L_p <= M // 2:
        raise ValueError(f"filter length {L_p} must exceed M/2 = {M // 2}")
    span_blocks = -(-(L_p - 1) // (M // 2))
    count = M * span_blocks - M // 2 - 1
    if count <= 0:
        warnings.warn(
            f"degenerate geometry (M={M}, L_p={L_p}): no interference elements",
            stacklevel=2,
        )
        return 0
    return count


def truncate(table: InterferenceTable, kmax: int) -> InterferenceTable:
    """Keep the kmax largest-|eps| entries (numerical nulls dropped).

    Bit-equal |eps| go by (|n|, m, n) ascending, mirrors equal only to
    rounding by their rounded values; the BEP needs only the multiset of |eps|.
    """
    if not 0 <= kmax <= len(table):
        raise ValueError(f"kmax={kmax} outside [0, {len(table)}]")
    live = ~table.null_mask()
    mags = np.abs(table.eps)
    order = np.lexsort((table.n[live], table.m[live],
                        np.abs(table.n[live]), -mags[live]))
    keep = order[:kmax]
    return InterferenceTable(
        table.m[live][keep], table.n[live][keep], table.eps[live][keep],
        table.eps00, table.grid,
    )


def sir(table: InterferenceTable) -> float:
    """Self-interference ratio 10*log10(eps00^2 / sum eps^2) in dB."""
    energy = table.interference_energy()
    if energy == 0.0:
        return math.inf
    return 10.0 * math.log10(table.eps00**2 / energy)


def ordered_magnitudes(table: InterferenceTable) -> np.ndarray:
    """|eps| sorted descending (the decay profile of the table)."""
    return np.sort(np.abs(table.eps))[::-1]


def export_table_csv(table: InterferenceTable, path):
    """CSV with columns m, n, epsilon (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write("m,n,epsilon\n")
        for m, n, e in zip(table.m, table.n, table.eps):
            fh.write(f"{m},{n},{e:.17e}\n")
