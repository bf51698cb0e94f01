"""Gray-coded PAM and square-QAM constellations."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstellationError

__all__ = ["PamConstellation", "QamConstellation"]


def _is_pow2(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class PamConstellation:
    """Amplitude levels {-N+1, -N+3, ..., N-1} with binary-reflected Gray bits."""

    order: int

    def __post_init__(self):
        if not _is_pow2(self.order):
            raise ConstellationError(
                f"PAM order must be a power of two >= 2, got {self.order}"
            )

    @property
    def bits_per_symbol(self) -> int:
        return self.order.bit_length() - 1

    @property
    def symbol_energy(self) -> float:
        return (self.order**2 - 1) / 3.0

    def noise_density(self, gamma_b: float) -> float:
        """N0 such that gamma_b = E_s / (N_b * N0); gamma_b linear."""
        if not gamma_b > 0:
            raise ValueError(f"gamma_b must be positive, got {gamma_b}")
        return self.symbol_energy / (self.bits_per_symbol * gamma_b)


@dataclass(frozen=True)
class QamConstellation:
    """Square QAM: one PAM constellation per quadrature dimension."""

    order: int

    def __post_init__(self):
        root = math.isqrt(self.order)
        if root * root != self.order or not _is_pow2(root):
            raise ConstellationError(
                f"QAM order must be the square of a power of two, got {self.order}"
            )

    @property
    def pam(self) -> PamConstellation:
        return PamConstellation(math.isqrt(self.order))

    @property
    def bits_per_symbol(self) -> int:
        return 2 * self.pam.bits_per_symbol

    @property
    def symbol_energy(self) -> float:
        return 2.0 * self.pam.symbol_energy
