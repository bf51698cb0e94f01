import math

import numpy as np
import pytest

from fbmcber import filters
from fbmcber.errors import DegenerateFilter, UnsupportedFilterOrder, UnsupportedSpreading
from fbmcber.filters import (
    PrototypeFilter,
    _gauss,
    _orth_cos_coeffs,
    _periodized,
    load_taps,
    make_egf,
    make_martin,
    make_rect,
    martin_gains,
    normalize_energy,
    save_taps,
)


def solve_martin_gains_numerically(K):
    """Independent solver for the frequency-sampling gain constraints.

    Scans H1 on a fine grid for the root of the edge-null condition with
    H_{K-i} tied to H_i by power complementarity.
    """
    if K == 3:
        def edge(h1):
            return 1.0 - 2.0 * h1 + 2.0 * math.sqrt(1.0 - h1 * h1)
    elif K == 4:
        def edge(h1):
            return (1.0 - 2.0 * h1 + 2.0 / math.sqrt(2.0)
                    - 2.0 * math.sqrt(1.0 - h1 * h1))
    else:
        raise ValueError(K)
    lo, hi = 0.5, 1.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if edge(lo) * edge(mid) <= 0:
            hi = mid
        else:
            lo = mid
    h1 = 0.5 * (lo + hi)
    if K == 3:
        return {1: h1, 2: math.sqrt(1 - h1 * h1)}
    return {1: h1, 2: 1 / math.sqrt(2), 3: math.sqrt(1 - h1 * h1)}


def orth_cos_coeffs_on_grid(n_grid, width, period, tol=1e-18):
    """Cosine coefficients of 1/sqrt(P) from an n_grid-point FFT, with the
    trailing ones below tol * max dropped (tol=0 keeps them all)."""
    u = np.arange(n_grid) * (period / n_grid)
    spectrum = np.fft.rfft(1.0 / np.sqrt(_periodized(u, width, period))) / n_grid
    coeffs = spectrum.real.copy()
    coeffs[1:] *= 2.0
    mags = np.abs(coeffs)
    return coeffs[: np.nonzero(mags > tol * mags.max())[0][-1] + 1]


class TestMartin:
    def test_gain_constraints_k4(self):
        g = martin_gains(4)
        assert g[1] ** 2 + g[3] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert g[2] ** 2 == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("k", [3, 4])
    def test_gains_match_independent_solver(self, k):
        direct = martin_gains(k)
        solved = solve_martin_gains_numerically(k)
        for i in direct:
            assert direct[i] == pytest.approx(solved[i], abs=1e-10)

    def test_published_k4_values(self):
        g = martin_gains(4)
        assert g[1] == pytest.approx(0.971960, abs=5e-7)
        assert g[2] == pytest.approx(0.707107, abs=5e-7)
        assert g[3] == pytest.approx(0.235147, abs=5e-7)

    def test_length_and_energy(self, martin16):
        assert martin16.length == 4 * 16 + 1
        assert martin16.energy() == pytest.approx(1.0, abs=1e-12)

    def test_even_symmetry(self, martin16):
        taps = martin16.coeffs
        assert np.max(np.abs(taps - taps[::-1])) < 1e-12

    def test_edge_taps_null(self, martin16):
        assert abs(martin16.coeffs[0]) < 1e-12
        assert abs(martin16.coeffs[-1]) < 1e-12

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedFilterOrder):
            make_martin(5, 16)

    @pytest.mark.parametrize("m", [0, 1, 15])
    def test_bad_subcarrier_count(self, m):
        with pytest.raises(ValueError):
            make_martin(4, m)


class TestEgf:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_unit_energy_and_symmetry(self, alpha):
        filt = make_egf(alpha, 4, 16)
        assert filt.length == 65
        assert filt.energy() == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(filt.coeffs - filt.coeffs[::-1])) < 1e-12

    @pytest.mark.parametrize("length", [63, 64, 65])
    def test_footnote_lengths(self, length):
        filt = make_egf(1.0, 4, 16, length=length)
        assert filt.length == length
        assert np.max(np.abs(filt.coeffs - filt.coeffs[::-1])) < 1e-12

    def test_bad_length(self):
        with pytest.raises(ValueError):
            make_egf(1.0, 4, 16, length=60)

    @pytest.mark.parametrize("alpha, m", [(0.25, 16), (1.0, 64), (2.0, 256)])
    def test_taps_match_full_series(self, alpha, m):
        """Stopping the shifted-Gaussian series early changes no tap."""
        length = 4 * m + 1
        u = math.sqrt(2.0) * (np.arange(length) - (length - 1) / 2.0) / m
        lat = 1.0 / math.sqrt(2.0)
        d = _orth_cos_coeffs(1.0 / alpha, lat)
        z = d[0] * _gauss(u, alpha)
        for k in range(1, d.size):
            z += 0.5 * d[k] * (_gauss(u + k / lat, alpha) + _gauss(u - k / lat, alpha))
        jmax = int(math.ceil(math.sqrt(400.0 / (2.0 * np.pi * alpha)) / lat)) + 2
        shifts = np.arange(-jmax, jmax + 1) * lat
        p_time = lat * math.sqrt(2.0 * alpha) * np.exp(
            -2.0 * np.pi * alpha * (u[:, None] - shifts[None, :]) ** 2
        ).sum(axis=1)
        full = normalize_energy(PrototypeFilter(z / np.sqrt(p_time), 4, "egf", alpha))
        assert np.array_equal(make_egf(alpha, 4, m).coeffs, full.coeffs)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_orth_coeffs_match_fine_grid(self, alpha):
        """The 512-point series agrees with a 16384-point one, and the
        harmonics it leaves out are at the rounding floor."""
        lat = 1.0 / math.sqrt(2.0)
        d = _orth_cos_coeffs(1.0 / alpha, lat)
        fine = orth_cos_coeffs_on_grid(16384, 1.0 / alpha, lat, tol=0.0)
        assert np.max(np.abs(d - fine[: d.size])) <= 2e-16
        assert np.max(np.abs(fine[d.size:])) <= 2e-16

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [16, 64])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_taps_match_8192_point_design(self, alpha, m, extra, monkeypatch):
        length = 4 * m + extra
        taps = make_egf(alpha, 4, m, length=length).coeffs
        monkeypatch.setattr(
            filters, "_orth_cos_coeffs",
            lambda width, period: orth_cos_coeffs_on_grid(8192, width, period),
        )
        reference = make_egf(alpha, 4, m, length=length).coeffs
        assert np.max(np.abs(taps - reference)) <= 1e-17

    @pytest.mark.parametrize("alpha", [0.1, 2.5, 10.0])
    def test_unsupported_spreading(self, alpha):
        with pytest.raises(UnsupportedSpreading):
            make_egf(alpha, 4, 16)

    def test_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            make_egf(-1.0, 4, 16)

    def test_small_overlap_rejected(self):
        with pytest.raises(ValueError):
            make_egf(1.0, 2, 16)


class TestRect:
    def test_shape(self):
        filt = make_rect(16)
        assert filt.length == 17
        assert filt.energy() == pytest.approx(1.0, abs=1e-12)
        assert np.ptp(filt.coeffs) == 0.0


class TestNormalize:
    def test_all_ones(self):
        filt = PrototypeFilter(np.ones(4), 1, "custom")
        out = normalize_energy(filt)
        assert np.allclose(out.coeffs, 0.5, atol=1e-15)

    def test_idempotent(self, martin16):
        again = normalize_energy(martin16)
        assert np.max(np.abs(again.coeffs - martin16.coeffs)) < 1e-15

    def test_random_vector(self):
        rng = np.random.default_rng(0)
        filt = PrototypeFilter(rng.normal(size=33), 2, "custom")
        assert normalize_energy(filt).energy() == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector(self):
        with pytest.raises(DegenerateFilter):
            normalize_energy(PrototypeFilter(np.zeros(8), 1, "custom"))


class TestTapsIo:
    def test_round_trip(self, tmp_path, martin16):
        path = tmp_path / "taps.txt"
        save_taps(martin16, path)
        back = load_taps(path, overlap=martin16.overlap)
        assert back.family == "custom"
        assert np.max(np.abs(back.coeffs - martin16.coeffs)) < 1e-15

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(DegenerateFilter):
            load_taps(path, overlap=4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_taps_rejected(self, tmp_path, martin16, bad):
        taps = martin16.coeffs.copy()
        taps[7] = bad
        with pytest.raises(DegenerateFilter):
            PrototypeFilter(taps, 4, "custom")
        path = tmp_path / "taps.txt"
        path.write_text("".join(f"{t}\n" for t in taps))
        with pytest.raises(DegenerateFilter):
            load_taps(path, overlap=4)

    def test_immutable_taps(self, martin16):
        with pytest.raises(ValueError):
            martin16.coeffs[0] = 1.0
