import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symmetric_filter, table_eps
from oracles import inner_product, pulse
from fbmcber.filters import PrototypeFilter, make_egf, make_martin, make_rect
from fbmcber.interference import (
    NULL_THRESHOLD,
    FbmcGrid,
    build_set,
    export_table_csv,
    ordered_magnitudes,
    set_size,
    sir,
    truncate,
)


def _reference_sums(grid, precision):
    """Direct sums S[n + span, m] = sum_k p[k] p[k - nM/2] cos(pi*j/M) with the
    exactly reduced index j = (m*(2k - L_p + 1)) mod 2M, each element on its
    own, in long double or in 40-digit mpmath."""
    taps, lp = grid.filter.coeffs, grid.filter.length
    m_sub, span = grid.subcarriers, grid.time_span
    d = 2 * np.arange(lp) - (lp - 1)
    rows = []
    for n in range(-span, span + 1):
        shift = n * grid.half_symbol
        k = np.arange(max(0, shift), min(lp, lp + shift))
        index = np.outer(np.arange(m_sub), d[k]) % (2 * m_sub)
        if precision == "longdouble":
            pi = np.arccos(np.longdouble(-1.0))
            wide = taps.astype(np.longdouble)
            weights = wide[k] * wide[k - shift]
            rows.append((np.cos(index * (pi / m_sub)) * weights).sum(axis=1))
        else:
            import mpmath

            with mpmath.workdps(40):
                cos = [mpmath.cos(mpmath.pi * j / m_sub)
                       for j in range(2 * m_sub)]
                weights = [mpmath.mpf(taps[i]) * mpmath.mpf(taps[i - shift])
                           for i in k]
                rows.append([mpmath.fsum(w * cos[j]
                                         for w, j in zip(weights, row))
                             for row in index])
    return np.array([[float(v) for v in row] for row in rows])


_EXTENDED = "longdouble" if np.finfo(np.longdouble).eps < 1e-18 else "mpmath"


def _random_asymmetric_filter(m_sub, k=4, seed=20):
    """Unit-energy random taps of length k*m_sub + 1 with no symmetry, as
    only a file: filter can bring them."""
    taps = np.random.default_rng(seed).normal(size=k * m_sub + 1)
    return PrototypeFilter(taps / np.sqrt(np.dot(taps, taps)), k, "custom")


_ORACLE_FILTERS = {
    "martin-m16": (16, lambda: make_martin(4, 16)),
    "rect-k4-m16": (16, lambda: make_rect(16, 4)),
    **{f"egf1-m256-L{lp}": (256, lambda lp=lp: make_egf(1.0, 4, 256, lp))
       for lp in (1023, 1024, 1025)},
    **{f"asym-m{m}": (m, lambda m=m: _random_asymmetric_filter(m))
       for m in (16, 64)},
}


class TestAgainstExtendedPrecision:
    """Every element within 5e-16 of a direct extended-precision sum, and
    the numerical nulls exactly those of the reference."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_FILTERS))
    def test_every_element(self, name):
        m_sub, make = _ORACLE_FILTERS[name]
        self._check(FbmcGrid(m_sub, make()), _EXTENDED)

    @pytest.mark.parametrize("name", ["martin-m16", "rect-k4-m16"])
    def test_every_element_mpmath(self, name):
        m_sub, make = _ORACLE_FILTERS[name]
        self._check(FbmcGrid(m_sub, make()), "mpmath")

    @pytest.mark.parametrize("m_sub,make", [
        (64, lambda: make_rect(64, 4)),
        (64, lambda: make_rect(64, 1)),
        (64, lambda: make_egf(2.0, 4, 64, 255)),
        (256, lambda: make_egf(1.0, 4, 256)),
    ], ids=["rect-k4-m64", "rect-k1-m64", "egf2-m64-L255", "egf1-m256"])
    def test_pulse_energy(self, m_sub, make):
        grid = FbmcGrid(m_sub, make())
        taps = grid.filter.coeffs
        if _EXTENDED == "longdouble":
            wide = taps.astype(np.longdouble)
            ref = float((wide * wide).sum())
        else:
            import mpmath

            with mpmath.workdps(40):
                ref = float(mpmath.fsum(mpmath.mpf(t) ** 2 for t in taps))
        eps00 = build_set(grid).eps00
        assert abs(eps00 - ref) <= 2.2e-16
        assert abs(eps00 - pulse(grid, 0, 0).energy()) <= 2.2e-16

    @staticmethod
    def _check(grid, precision):
        table = build_set(grid)
        ref_sums = _reference_sums(grid, precision)
        sign = np.array([1.0, 0.0, -1.0, 0.0])[(table.m + table.n) % 4]
        ref = sign * ref_sums[table.n + grid.time_span, table.m]
        assert np.max(np.abs(table.eps - ref)) <= 5e-16
        assert abs(table.eps00 - ref_sums[grid.time_span, 0]) <= 5e-16
        assert np.array_equal(table.null_mask(), np.abs(ref) < NULL_THRESHOLD)


class TestSetSize:
    def test_table_one_values(self):
        assert set_size(16, 65) == 119
        assert set_size(16, 64) == 119

    def test_degenerate_warns(self):
        with pytest.warns(UserWarning):
            assert set_size(2, 2) == 0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            set_size(15, 65)
        with pytest.raises(ValueError):
            set_size(16, 8)

    def test_matches_enumeration(self, martin_grid, martin_table):
        assert len(martin_table) == set_size(16, martin_grid.filter.length)

    def test_rect_grid_count(self):
        grid = FbmcGrid(16, make_rect(16))
        assert len(build_set(grid)) == set_size(16, 17)


class TestEpsilon:
    def test_reference_energy(self, martin_table):
        assert martin_table.eps00 == pytest.approx(1.0, abs=1e-12)

    def test_odd_parity_exact_zero(self, martin_grid, martin_table):
        slots = set(zip(martin_table.m.tolist(), martin_table.n.tolist()))
        ref = pulse(martin_grid, 0, 0)
        for m, n in [(1, 0), (0, 1), (2, 1), (3, 4), (5, -2)]:
            assert (m, n) not in slots
            assert abs(inner_product(pulse(martin_grid, m, n), ref).real) < 1e-12

    def test_support_bound(self, martin_grid):
        """One step past the time span the pulses overlap the reference in
        one sample, p[0] * p[L_p - 1]: Martin's end taps make it vanish,
        rect K=4 at M=16 gives 1/65, and the set leaves it out."""
        span = martin_grid.time_span
        ref = pulse(martin_grid, 0, 0)
        for m in range(16):
            for n in (span + 1, -(span + 1)):
                direct = inner_product(pulse(martin_grid, m, n), ref).real
                assert abs(direct) < 1e-15
        rect = FbmcGrid(16, make_rect(16, 4))
        past = rect.time_span + 1
        assert past * rect.half_symbol == rect.filter.length - 1
        ref = pulse(rect, 0, 0)
        for n in (past, -past):
            direct = inner_product(pulse(rect, 0, n), ref).real
            assert direct == pytest.approx(1 / 65, rel=1e-12)
        assert np.max(np.abs(build_set(rect).n)) == rect.time_span

    def test_oracle_equivalence_full_table(self, martin_grid):
        # Martin at M=16, then EGF 1.0 at M=64 with every allowed length;
        # the even length gives half-integer kbar.
        grids = [martin_grid] + [FbmcGrid(64, make_egf(1.0, 4, 64, length))
                                 for length in (255, 256, 257)]
        for grid in grids:
            table = build_set(grid)
            ref = pulse(grid, 0, 0)
            for m, n, eps in zip(table.m, table.n, table.eps):
                direct = inner_product(pulse(grid, int(m), int(n)), ref).real
                assert abs(direct - eps) < 1e-12

    def test_subcarrier_range(self, martin_grid, martin_table):
        assert set(martin_table.m.tolist()) == set(range(16))
        for m in (-1, 16):
            with pytest.raises(ValueError):
                pulse(martin_grid, m, 0)

    def test_adjacent_pulse_real_projection_is_zero(self, martin_grid,
                                                    martin_table):
        # m + n odd: the real projection vanishes for symmetric filters.
        direct = inner_product(pulse(martin_grid, 1, 0), pulse(martin_grid, 0, 0))
        assert abs(direct.real) < 1e-12
        assert table_eps(martin_table, 1, 0) == 0.0

    def test_pulse_energy(self, martin_grid):
        for m, n in [(0, 0), (3, 2), (15, -5)]:
            assert pulse(martin_grid, m, n).energy() == pytest.approx(1.0, abs=1e-12)

    def test_pulse_subcarrier_range(self, martin_grid):
        with pytest.raises(ValueError):
            pulse(martin_grid, 16, 0)


@st.composite
def grids(draw):
    """Rect (K 1-6), Martin (K 3, 4) or EGF (alpha 0.25, 1, 2; K 3-6; each
    allowed length) on an even M from 2 to 32."""
    m_sub = 2 * draw(st.integers(1, 16))
    family = draw(st.sampled_from(["rect", "martin", "egf"]))
    if family == "rect":
        filt = make_rect(m_sub, draw(st.integers(1, 6)))
    elif family == "martin":
        filt = make_martin(draw(st.sampled_from([3, 4])), m_sub)
    else:
        k = draw(st.integers(3, 6))
        filt = make_egf(draw(st.sampled_from([0.25, 1.0, 2.0])), k, m_sub,
                        k * m_sub + draw(st.integers(-1, 1)))
    return FbmcGrid(m_sub, filt)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(grids())
def test_build_set_matches_pulse_oracle(grid):
    table = build_set(grid)
    ref = pulse(grid, 0, 0)
    for m, n, eps in zip(table.m, table.n, table.eps):
        direct = inner_product(pulse(grid, int(m), int(n)), ref).real
        assert abs(direct - eps) < 1e-12


class TestSymmetryProperties:
    """Interference element symmetries over randomly drawn filters.

    The circular symmetry in m carries the sign (-1)^(M/2 + n); the
    plain antisymmetric form often quoted for it holds exactly on the
    subset where M/2 + n is odd (all nonzero odd-n elements when M is
    divisible by 4).
    """

    @pytest.mark.parametrize("trial", range(20))
    def test_random_filter_symmetries(self, trial):
        rng = np.random.default_rng(1000 + trial)
        m_sub = 8
        filt = random_symmetric_filter(rng, m_sub, k=3)
        grid = FbmcGrid(m_sub, filt)
        table = build_set(grid)
        slots = set(zip(table.m.tolist(), table.n.tolist()))
        ref = pulse(grid, 0, 0)
        span = grid.time_span
        for n in range(-span, span + 1):
            sign = (-1) ** (m_sub // 2 + n)
            for m in range(m_sub):
                val = table_eps(table, m, n)
                if (m + n) % 2:  # odd m + n parity null
                    assert (m, n) not in slots
                    direct = inner_product(pulse(grid, m, n), ref).real
                    assert abs(direct) < 1e-12
                assert val == pytest.approx(table_eps(table, m, -n), abs=1e-12)
                if 1 <= m <= m_sub // 2:
                    mirror = table_eps(table, m_sub - m, n)
                    assert mirror == pytest.approx(sign * val, abs=1e-12)
                    if sign == -1:
                        assert val + mirror == pytest.approx(0.0, abs=1e-12)

    def test_table_invariants_martin(self, martin_table):
        by_key = {
            (int(m), int(n)): e
            for m, n, e in zip(martin_table.m, martin_table.n, martin_table.eps)
        }
        for (m, n), e in by_key.items():
            assert by_key[(m, -n)] == pytest.approx(e, abs=1e-12)
            if 1 <= m <= 8:
                sign = (-1) ** (8 + n)
                assert by_key[(16 - m, n)] == pytest.approx(sign * e, abs=1e-12)
                if n % 2:  # printed antisymmetric form on its valid subset
                    assert by_key[(16 - m, n)] == pytest.approx(-e, abs=1e-12)
            assert (m + n) % 2 == 0
        assert (0, 0) not in by_key


class TestTruncate:
    def test_empty(self, martin_table):
        assert len(truncate(martin_table, 0)) == 0

    def test_identity_keeps_live_entries(self, martin_table):
        full = truncate(martin_table, len(martin_table))
        live = int((~martin_table.null_mask()).sum())
        assert len(full) == live
        assert np.all(np.abs(full.eps) >= 1e-15)

    def test_top8_matches_sort_oracle(self, martin_table):
        top = truncate(martin_table, 8)
        expected = np.sort(np.abs(martin_table.eps))[::-1][:8]
        assert np.allclose(np.sort(np.abs(top.eps))[::-1], expected, atol=0)

    def test_deterministic(self, martin_table):
        a = truncate(martin_table, 8)
        b = truncate(martin_table, 8)
        assert np.array_equal(a.m, b.m) and np.array_equal(a.n, b.n)

    def test_out_of_range(self, martin_table):
        with pytest.raises(ValueError):
            truncate(martin_table, len(martin_table) + 1)


class TestSir:
    def test_single_entry(self, martin_grid):
        from fbmcber.interference import InterferenceTable

        table = InterferenceTable(
            np.array([1]), np.array([1]), np.array([0.1]), 1.0, martin_grid
        )
        assert sir(table) == pytest.approx(20.0, abs=1e-12)

    def test_zero_interference(self, martin_table):
        assert sir(truncate(martin_table, 0)) == math.inf

    def test_martin_regression(self, martin_table):
        assert sir(martin_table) == pytest.approx(65.204, abs=0.01)


class TestOrderedMagnitudes:
    def test_empty(self, martin_table):
        assert ordered_magnitudes(truncate(martin_table, 0)).size == 0

    def test_non_increasing(self, martin_table):
        mags = ordered_magnitudes(martin_table)
        assert np.all(np.diff(mags) <= 0)

    def test_rapid_decay(self, martin_table):
        mags = ordered_magnitudes(martin_table)
        assert mags[7] > 5.0 * mags[19]


class TestCsvExport:
    def test_round_trip(self, tmp_path, martin_table):
        path = tmp_path / "table.csv"
        export_table_csv(martin_table, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,epsilon"
        assert len(lines) == len(martin_table) + 1
        m, n, e = lines[1].split(",")
        assert int(m) == martin_table.m[0]
        assert int(n) == martin_table.n[0]
        assert float(e) == pytest.approx(martin_table.eps[0], rel=1e-15)


class TestGridValidation:
    def test_odd_m(self, martin16):
        with pytest.raises(ValueError):
            FbmcGrid(15, martin16)

    def test_filter_length_mismatch(self, martin16):
        with pytest.raises(ValueError):
            FbmcGrid(32, martin16)

    @pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8])
    def test_taps_need_unit_energy(self, martin16, scale):
        """Every BEP form and the demapper assume eps[0, 0] = 1."""
        filt = PrototypeFilter(scale * martin16.coeffs, 4, "custom")
        with pytest.raises(ValueError, match="unit energy"):
            FbmcGrid(16, filt)
