import numpy as np
import pytest

from fbmcber.filters import make_egf, make_martin
from fbmcber.interference import FbmcGrid, build_set, truncate

M = 16
K = 4


@pytest.fixture(scope="session")
def martin16():
    return make_martin(K, M)


@pytest.fixture(scope="session")
def martin_grid(martin16):
    return FbmcGrid(M, martin16)


@pytest.fixture(scope="session")
def martin_table(martin_grid):
    return build_set(martin_grid)


@pytest.fixture(scope="session")
def martin_top8(martin_table):
    return truncate(martin_table, 8)


@pytest.fixture(scope="session")
def egf_filters():
    return {alpha: make_egf(alpha, K, M) for alpha in (0.25, 1.0)}


def table_eps(table, m, n):
    """Element eps[m, n] of a build_set table; 0.0 for a slot the table
    leaves out: (0, 0), odd m + n, or |n| past the grid's time span."""
    hit = np.flatnonzero((table.m == m) & (table.n == n))
    return float(table.eps[hit[0]]) if hit.size else 0.0


def random_symmetric_filter(rng, m, k=3):
    """Random unit-energy even-symmetric filter of length k*m + 1."""
    length = k * m + 1
    half = rng.normal(size=(length + 1) // 2)
    taps = np.concatenate([half, half[:-1][::-1]])
    taps /= np.sqrt(np.dot(taps, taps))
    from fbmcber.filters import PrototypeFilter

    return PrototypeFilter(taps, k, "custom")


def frame_blocks(system, frames):
    """The blocks of whole frames that system.simulate_frames runs a batch
    of `frames` in: at most simulate._BLOCK_REALS noise reals each, the
    noise of a frame being one real per PAM symbol, an (in-phase,
    quadrature) pair per OFDM symbol and subcarrier, or an (re, im) pair
    per sample that its counted FBMC columns read, the window that the
    analysis takes from column first = 2K."""
    from fbmcber import simulate
    from fbmcber.modem import fbmc_signal_length

    if isinstance(system, simulate.FbmcSystem):
        reals = 2 * fbmc_signal_length(system.grid, system.data_columns)
    else:
        reals = system.frame_symbols
        if isinstance(system, simulate.OfdmSystem):
            reals *= 2 * system.subcarriers
    return simulate._frame_slices(frames, reals, simulate._BLOCK_REALS)
