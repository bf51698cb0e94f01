"""Prototype filter construction and normalization.

All constructors return unit-energy, even-symmetric filters of length
K*M + 1 sampled at M points per symbol period.  The time axis used
throughout the package is t = (k - (L_p-1)/2) / M in symbol periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFilter, UnsupportedFilterOrder, UnsupportedSpreading

__all__ = [
    "PrototypeFilter",
    "make_martin",
    "make_egf",
    "make_rect",
    "martin_gains",
    "normalize_energy",
    "save_taps",
    "load_taps",
]

# EGF spreading factors with vetted self-interference behaviour.
EGF_ALPHA_MIN = 0.25
EGF_ALPHA_MAX = 2.0


@dataclass(frozen=True)
class PrototypeFilter:
    """Real prototype filter with overlap factor K.

    coeffs   -- real, finite taps, length L_p
    overlap  -- overlap factor K (symbol periods spanned is about K)
    family   -- 'martin', 'egf', 'rect' or 'custom'
    alpha    -- EGF spreading factor (None for other families)
    """

    coeffs: np.ndarray
    overlap: int
    family: str
    alpha: float | None = None

    def __post_init__(self):
        taps = np.asarray(self.coeffs, dtype=np.float64).copy()
        if not np.isfinite(taps).all():
            raise DegenerateFilter("filter taps must be finite (no NaN or inf)")
        taps.setflags(write=False)
        object.__setattr__(self, "coeffs", taps)

    @property
    def length(self) -> int:
        return self.coeffs.size

    @property
    def label(self) -> str:
        if self.family == "egf":
            return f"egf-a{self.alpha:g}"
        if self.family == "martin":
            return f"martin-k{self.overlap}"
        return self.family

    def energy(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))


def normalize_energy(filt: PrototypeFilter) -> PrototypeFilter:
    """Return a copy scaled to unit pulse energy."""
    energy = filt.energy()
    if energy == 0.0:
        raise DegenerateFilter("cannot normalize an all-zero filter")
    if energy == 1.0:
        return filt
    return PrototypeFilter(
        filt.coeffs / math.sqrt(energy), filt.overlap, filt.family, filt.alpha
    )


def martin_gains(K: int) -> dict[int, float]:
    """Frequency-sampling gains H_i, i = 1..K-1, for the Martin design.

    The gains satisfy the power-complementarity pairs H_i^2 + H_{K-i}^2 = 1
    and the edge-null condition 1 + 2*sum_i (-1)^i H_i = 0.
    """
    if K == 3:
        # H1 - H2 = 1/2 combined with H1^2 + H2^2 = 1.
        h2 = (math.sqrt(7.0) - 1.0) / 4.0
        return {1: h2 + 0.5, 2: h2}
    if K == 4:
        h2 = 1.0 / math.sqrt(2.0)
        s = 0.5 + h2  # H1 + H3
        prod = (s * s - 1.0) / 2.0
        disc = math.sqrt(s * s - 4.0 * prod)
        return {1: (s + disc) / 2.0, 2: h2, 3: (s - disc) / 2.0}
    raise UnsupportedFilterOrder(f"no Martin gain solution tabulated for K={K}")


def _check_grid_args(K: int, M: int):
    if M < 2 or M % 2:
        raise ValueError(f"subcarrier count must be even and >= 2, got {M}")
    if K < 1:
        raise ValueError(f"overlap factor must be positive, got {K}")


def make_martin(K: int, M: int) -> PrototypeFilter:
    """Mirabbasi-Martin (frequency-sampling) filter of length K*M + 1."""
    _check_grid_args(K, M)
    gains = martin_gains(K)
    k = np.arange(K * M + 1)
    taps = np.ones(K * M + 1)
    for i, h in gains.items():
        taps += 2.0 * (-1) ** i * h * np.cos(2.0 * np.pi * i * k / (K * M))
    filt = PrototypeFilter(taps, K, "martin")
    return normalize_energy(filt)


def make_rect(M: int, K: int = 1) -> PrototypeFilter:
    """Rectangular filter (all-ones) of length K*M + 1."""
    _check_grid_args(K, M)
    taps = np.ones(K * M + 1)
    return normalize_energy(PrototypeFilter(taps, K, "rect"))


def _gauss(t: np.ndarray, alpha: float) -> np.ndarray:
    return (2.0 * alpha) ** 0.25 * np.exp(-np.pi * alpha * t * t)


def _periodized(u: np.ndarray, width: float, period: float) -> np.ndarray:
    """period * sum_j sqrt(2*width) * exp(-2*pi*width*(u - j*period)^2).

    The shifts run until the Gaussian underflows.
    """
    jmax = int(math.ceil(math.sqrt(400.0 / (2.0 * np.pi * width)) / period)) + 2
    shifts = np.arange(-jmax, jmax + 1) * period
    return period * math.sqrt(2.0 * width) * np.exp(
        -2.0 * np.pi * width * (u[:, None] - shifts[None, :]) ** 2
    ).sum(axis=1)


def _orth_cos_coeffs(width: float, period: float, tol: float = 1e-18) -> np.ndarray:
    """Cosine-series coefficients of 1/sqrt(periodized squared Gaussian).

    P(u) is `_periodized(u, width, period)`.  Returns d_k such that
    1/sqrt(P(u)) = d_0 + sum_{k>=1} d_k cos(2*pi*k*u/period), with the
    trailing coefficients below tol * max|d_k| dropped; the default tol
    is below the FFT's rounding floor, so nearly all of them are kept.

    A 512-point grid resolves the series.  By Poisson summation
    P(u) = 1 + 2 * sum_{k>=1} exp(-pi * k^2 / (2 * width * period^2))
    * cos(2*pi*k*u/period), which for the EGF lattice (width = 1/alpha,
    period^2 = 1/2) is 1 + 2 * sum_k exp(-pi*alpha*k^2) cos(2*pi*k*u/T).
    1/sqrt(P) is analytic, and its d_k fall about as exp(-pi*alpha*k):
    at alpha = 0.25 they reach the rounding floor near k = 50, so the
    aliases of the 256 harmonics of the grid lie below 1e-80.  A grid of
    16384 points changes no d_k by more than 2e-16.
    """
    n_grid = 512
    u = np.arange(n_grid) * (period / n_grid)
    spectrum = np.fft.rfft(1.0 / np.sqrt(_periodized(u, width, period))) / n_grid
    coeffs = spectrum.real.copy()
    coeffs[1:] *= 2.0
    mags = np.abs(coeffs)
    keep = np.nonzero(mags > tol * mags.max())[0]
    return coeffs[: keep[-1] + 1]


def _egf_samples(alpha: float, t: np.ndarray) -> np.ndarray:
    """Extended Gaussian function sampled at times t (symbol periods).

    The spreading factor is quoted on the isotropic lattice nu0 = tau0 =
    1/sqrt(2), so the half-symbol time shift T/2 maps to tau0 via
    u = sqrt(2) * t.  Frequency-direction orthogonalization enters
    through the shifted-Gaussian expansion (coefficients from the
    spectral periodization of g_alpha); the time-direction factor
    divides by the square root of the time periodization of g_alpha.
    """
    lat = 1.0 / math.sqrt(2.0)  # nu0 = tau0
    u = t * math.sqrt(2.0)
    d = _orth_cos_coeffs(1.0 / alpha, lat)
    z = d[0] * _gauss(u, alpha)
    for k in range(1, d.size):
        pair = _gauss(u + k / lat, alpha) + _gauss(u - k / lat, alpha)
        if not pair.any():
            break  # later shifts lie farther out and underflow as well
        z += 0.5 * d[k] * pair
    return z / np.sqrt(_periodized(u, alpha, lat))


def make_egf(alpha: float, K: int, M: int, length: int | None = None) -> PrototypeFilter:
    """Extended Gaussian filter, truncated to `length` taps.

    Default length is K*M + 1.  K*M and K*M - 1 are also accepted; the
    K*M grid places taps at half-sample offsets, which is the sampling
    used by reference SIR tabulations of this family.
    """
    if alpha <= 0:
        raise ValueError(f"spreading factor must be positive, got {alpha}")
    if not EGF_ALPHA_MIN <= alpha <= EGF_ALPHA_MAX:
        raise UnsupportedSpreading(
            f"alpha={alpha} outside supported range "
            f"[{EGF_ALPHA_MIN}, {EGF_ALPHA_MAX}]"
        )
    if K < 3:
        raise ValueError(f"EGF construction needs K >= 3, got {K}")
    _check_grid_args(K, M)
    if length is None:
        length = K * M + 1
    if length not in (K * M - 1, K * M, K * M + 1):
        raise ValueError(
            f"length {length} must be one of K*M-1, K*M, K*M+1 = "
            f"{K * M - 1}, {K * M}, {K * M + 1}"
        )
    t = (np.arange(length) - (length - 1) / 2.0) / M
    taps = _egf_samples(alpha, t)
    return normalize_energy(PrototypeFilter(taps, K, "egf", alpha))


def save_taps(filt: PrototypeFilter, path):
    """Write taps one per line with 17 significant digits."""
    with open(path, "w") as fh:
        for tap in filt.coeffs:
            fh.write(f"{tap:.17g}\n")


def load_taps(path, overlap: int) -> PrototypeFilter:
    """Read a one-tap-per-line filter file, scaled to unit energy;
    family is 'custom'."""
    return normalize_energy(PrototypeFilter(_read_taps(path), overlap, "custom"))


def _read_taps(path) -> np.ndarray:
    """The taps of a filter file as written; '#' lines and blank lines
    are skipped."""
    taps = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                taps.append(float(line))
    if not taps:
        raise DegenerateFilter(f"no taps found in {path}")
    return np.array(taps)
