import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmcber import analytic as an
from fbmcber import enumeration
from fbmcber.errors import ConstellationError
from fbmcber.interference import InterferenceTable, truncate
from oracles import (
    cho_weight,
    cho_weights,
    collapsed_cho_weights,
    q_function,
    region_sum_bep,
)

# High-precision reference values (mpmath, 40 digits).
Q_ORACLE = {
    0.5: 0.30853753872598689636,
    1.0: 0.15865525393145705141,
    2.0: 0.0227501319481792072,
    3.1622776601683795: 7.827011290012743259e-4,
    5.0: 2.8665157187919391167e-7,
    10.0: 7.619853024160526066e-24,
    20.0: 2.7536241186062336951e-89,
    30.0: 4.9067139271481870595e-198,
    37.0: 5.7255712225245768227e-300,
}
Q_SQRT20 = 3.8721082155220418188e-6
BPSK_RAY_10 = 0.023268705377203842277

GAMMA_GRID = an.db_to_linear(np.arange(-5.0, 40.5, 0.5))


def cho_yoon_reference(order, gammas, kind, form="exact"):
    """Gray PAM BEP as the plain, uncollapsed Cho-Yoon double sum.

    Independent of the package kernel: every (i, k) term of cho_weights
    is evaluated on its own, with q_function for AWGN and the textbook
    1 - sqrt(x / (1 + x)) for Rayleigh.  form 'approx' keeps the
    adjacent-symbol term (i = 0) with weight N - 1.
    """
    nb = int(math.log2(order))
    gammas = np.asarray(gammas, dtype=np.float64)
    snr = 6.0 * nb / (order**2 - 1) * gammas
    terms = (cho_weights(order) if form == "exact"
             else [(0, 1, order - 1)])
    total = np.zeros_like(gammas)
    for i, _, w in terms:
        if kind == "awgn":
            total += 2.0 * w * q_function((2 * i + 1) * np.sqrt(snr))
        else:
            x = 0.5 * (2 * i + 1) ** 2 * snr
            total += w * (1.0 - np.sqrt(x / (1.0 + x)))
    return total / (order * nb)


def tiny_table(grid, eps_values, ns=None):
    """Interference table with hand-picked entries (for unit tests)."""
    eps = np.asarray(eps_values, dtype=np.float64)
    ns = np.asarray(ns if ns is not None else np.full(eps.size, 2), dtype=np.int64)
    return InterferenceTable(np.zeros(eps.size, dtype=np.int64), ns, eps, 1.0, grid)


class TestQFunction:
    def test_midpoint(self):
        assert q_function(0.0) == 0.5

    def test_limits(self):
        assert q_function(np.inf) == 0.0
        assert q_function(-np.inf) == 1.0

    @pytest.mark.parametrize("x,expected", sorted(Q_ORACLE.items()))
    def test_against_high_precision(self, x, expected):
        assert q_function(x) == pytest.approx(expected, rel=1e-12)

    def test_sqrt20(self):
        assert q_function(math.sqrt(20.0)) == pytest.approx(Q_SQRT20, rel=1e-12)

    def test_symmetry(self):
        x = np.linspace(0.0, 8.0, 33)
        total = q_function(x) + q_function(-x)
        assert np.allclose(total, 1.0, atol=1e-15)


class TestChoWeights:
    def test_bpsk(self):
        assert cho_weight(0, 1, 2) == 1
        assert cho_weights(2) == [(0, 1, 1)]

    def test_pam4(self):
        w = {(i, k): v for i, k, v in cho_weights(4)}
        assert [w[(i, 1)] for i in range(2)] == [1, 1]
        assert [w[(i, 2)] for i in range(3)] == [2, 1, -1]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            cho_weight(0, 0, 4)
        with pytest.raises(IndexError):
            cho_weight(0, 3, 4)
        with pytest.raises(IndexError):
            cho_weight(2, 1, 4)

    def test_collapsed_preserves_totals(self):
        # The collapsed (threshold, weight) pairs must reproduce the raw
        # double sum for an arbitrary smooth kernel.
        for order in (2, 4, 8, 16):
            thetas, weights = collapsed_cho_weights(order)
            for c in (0.3, 1.7):
                raw = sum(v * math.exp(-c * (2 * i + 1))
                          for i, _, v in cho_weights(order))
                merged = sum(w * math.exp(-c * t) for t, w in zip(thetas, weights))
                assert merged == pytest.approx(raw, rel=1e-14)


class TestGrayWeights:
    """The package's weights against the two Gray PAM references."""

    @pytest.mark.parametrize("order", [2 ** b for b in range(1, 8)])
    def test_equal_collapsed_cho_weights(self, order):
        thetas, weights = an._gray_weights(order)
        want_thetas, want_weights = collapsed_cho_weights(order)
        assert np.array_equal(thetas, want_thetas)
        assert np.array_equal(weights, want_weights)

    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    @pytest.mark.parametrize("order", [2 ** b for b in range(1, 7)])
    def test_pam_exact_equals_region_sum(self, order, kind):
        fn = an.pam_awgn_exact if kind == "awgn" else an.pam_rayleigh_exact
        want = region_sum_bep(order, GAMMA_GRID, kind)
        np.testing.assert_allclose(fn(order, GAMMA_GRID), want, rtol=1e-12, atol=0)


class TestPamClosedForms:
    def test_bpsk_awgn_identity(self):
        probs = an.pam_awgn_exact(2, GAMMA_GRID)
        direct = q_function(np.sqrt(2.0 * GAMMA_GRID))
        assert np.max(np.abs(probs - direct)) < 1e-12
        assert np.max(np.abs(an.pam_awgn_approx(2, GAMMA_GRID) - direct)) < 1e-12

    def test_bpsk_awgn_at_10(self):
        assert an.pam_awgn_exact(2, 10.0) == pytest.approx(Q_SQRT20, rel=1e-12)

    def test_bpsk_rayleigh_identity(self):
        probs = an.pam_rayleigh_exact(2, GAMMA_GRID)
        direct = 0.5 * (1.0 - np.sqrt(GAMMA_GRID / (GAMMA_GRID + 1.0)))
        assert np.max(np.abs(probs - direct)) < 1e-12

    def test_bpsk_rayleigh_at_10(self):
        assert an.pam_rayleigh_exact(2, 10.0) == pytest.approx(BPSK_RAY_10, rel=1e-12)
        assert an.pam_rayleigh_approx(2, 10.0) == pytest.approx(BPSK_RAY_10, rel=1e-12)

    def test_approx_tracks_exact_pam8(self):
        # Both share the same leading Q term, so from gamma >= 10 they
        # agree to a few 1e-6 relative (the exact form sits a hair above
        # through its positive 2i+1 = 3 weight, not below).
        gammas = an.db_to_linear(np.arange(10.0, 31.0, 1.0))
        approx = an.pam_awgn_approx(8, gammas)
        exact = an.pam_awgn_exact(8, gammas)
        assert np.all(approx >= exact - 1e-6)
        assert np.max(np.abs(approx - exact) / exact) < 1e-4
        high = an.db_to_linear(30.0)
        assert an.pam_awgn_approx(8, high) == pytest.approx(
            an.pam_awgn_exact(8, high), rel=0.05
        )

    def test_rayleigh_approx_asymptote(self):
        # Series expansion of the fading average: (N-1)(N^2-1)/(6 N Nb^2 gamma).
        for order in (2, 4, 8):
            nb = int(math.log2(order))
            gamma = 1e4
            asymptote = (order - 1) * (order**2 - 1) / (6 * order * nb**2 * gamma)
            assert an.pam_rayleigh_approx(order, gamma) == pytest.approx(
                asymptote, rel=0.05
            )

    def test_rayleigh_floor_precision(self):
        # The rationalized form must keep shrinking at extreme SNR instead
        # of flattening from cancellation.
        p1 = an.pam_rayleigh_exact(8, 1e12)
        p2 = an.pam_rayleigh_exact(8, 1e13)
        assert p2 == pytest.approx(p1 / 10.0, rel=1e-3)


class TestPamAgainstChoYoonSum:
    """The kernel at an empty table against the uncollapsed double sum."""

    @pytest.mark.parametrize("form", ["exact", "approx"])
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_awgn(self, order, form):
        fn = an.pam_awgn_exact if form == "exact" else an.pam_awgn_approx
        want = cho_yoon_reference(order, GAMMA_GRID, "awgn", form)
        got = fn(order, GAMMA_GRID)
        mask = want > 1e-15
        assert mask.sum() > 20
        assert np.max(np.abs(got[mask] - want[mask]) / want[mask]) < 1e-12

    @pytest.mark.parametrize("form", ["exact", "approx"])
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_rayleigh(self, order, form):
        fn = an.pam_rayleigh_exact if form == "exact" else an.pam_rayleigh_approx
        want = cho_yoon_reference(order, GAMMA_GRID, "rayleigh", form)
        assert np.max(np.abs(fn(order, GAMMA_GRID) - want)) < 1e-12

    def test_scalar_input_gives_float(self):
        assert isinstance(an.pam_awgn_exact(4, 10.0), float)
        assert isinstance(an.ofdm_rayleigh(16, 16, 2, 10.0), float)

    @pytest.mark.parametrize("fn", [
        lambda g: an.pam_awgn_exact(4, g),
        lambda g: an.pam_rayleigh_approx(4, g),
        lambda g: an.ofdm_awgn(16, 16, 2, g),
    ], ids=["pam-awgn", "pam-rayleigh", "ofdm"])
    def test_gamma_validation(self, fn):
        for gamma in (0.0, np.nan, np.array([1.0, -1.0]), np.array([1.0, np.nan])):
            with pytest.raises(ValueError):
                fn(gamma)


class TestOfdm:
    def test_qpsk_reduces_to_bpsk(self):
        probs = an.ofdm_awgn(4, 16, 0, GAMMA_GRID)
        assert np.max(np.abs(probs - q_function(np.sqrt(2 * GAMMA_GRID)))) < 1e-12
        ray = an.ofdm_rayleigh(4, 16, 0, GAMMA_GRID)
        direct = 0.5 * (1 - np.sqrt(GAMMA_GRID / (GAMMA_GRID + 1)))
        assert np.max(np.abs(ray - direct)) < 1e-12

    def test_matches_per_dimension_pam(self):
        gammas = an.db_to_linear(np.arange(0.0, 41.0, 2.0))
        scaled = gammas * 16.0 / 18.0
        assert np.max(np.abs(
            an.ofdm_awgn(64, 16, 2, gammas) - an.pam_awgn_exact(8, scaled)
        )) < 1e-15
        assert np.max(np.abs(
            an.ofdm_rayleigh(64, 16, 2, gammas) - an.pam_rayleigh_exact(8, scaled)
        )) < 1e-15

    def test_cp_penalty_is_snr_shift(self):
        gammas = an.db_to_linear(np.arange(0.0, 30.0, 3.0))
        with_cp = an.ofdm_awgn(64, 16, 2, gammas)
        shifted = an.ofdm_awgn(64, 16, 0, gammas * 16.0 / 18.0)
        assert np.max(np.abs(with_cp - shifted)) < 1e-15
        assert 10 * math.log10(18 / 16) == pytest.approx(0.5115, abs=5e-4)

    def test_non_square_order(self):
        with pytest.raises(ConstellationError):
            an.ofdm_awgn(32, 16, 2, 10.0)


class TestFbmcReductions:
    @pytest.mark.parametrize("fb,sc", [
        (an.fbmc_awgn_approx, an.pam_awgn_approx),
        (an.fbmc_awgn_exact, an.pam_awgn_exact),
        (an.fbmc_rayleigh_approx, an.pam_rayleigh_approx),
        (an.fbmc_rayleigh_exact, an.pam_rayleigh_exact),
    ])
    @pytest.mark.parametrize("order", [2, 8])
    def test_empty_table_equals_single_carrier(self, fb, sc, order, martin_table):
        empty = truncate(martin_table, 0)
        assert np.max(np.abs(fb(order, empty, GAMMA_GRID) - sc(order, GAMMA_GRID))) \
            < 1e-12

    def test_bpsk_single_entry_awgn(self, martin_grid):
        table = tiny_table(martin_grid, [0.1])
        gammas = an.db_to_linear(np.arange(0.0, 13.0, 1.0))
        expected = 0.5 * (
            q_function(np.sqrt(2 * gammas) * 0.9)
            + q_function(np.sqrt(2 * gammas) * 1.1)
        )
        assert np.max(np.abs(an.fbmc_awgn_approx(2, table, gammas) - expected)) < 1e-12
        assert np.max(np.abs(an.fbmc_awgn_exact(2, table, gammas) - expected)) < 1e-12

    def test_bpsk_single_entry_rayleigh(self, martin_grid):
        # Hand reduction consistent with the BPSK closed form: F = gamma.
        eps = 0.2
        table = tiny_table(martin_grid, [eps])
        gammas = an.db_to_linear(np.arange(0.0, 31.0, 5.0))
        expected = np.zeros_like(gammas)
        for s in (-1.0, 1.0):
            lam = 1.0 - s * eps
            expected += 0.25 * (
                1.0 - lam * np.sqrt(gammas / (lam**2 * gammas + 1.0))
            )
        assert np.max(np.abs(an.fbmc_rayleigh_exact(2, table, gammas) - expected)) \
            < 1e-12


class TestFbmcBruteForce:
    """Independent enumeration oracle for small instances (BPSK, k <= 3)."""

    @pytest.mark.parametrize("eps_values", [
        (0.3,), (0.25, -0.1), (0.2, 0.1, -0.05),
    ])
    def test_awgn_exact_matches_hand_enumeration(self, martin_grid, eps_values):
        table = tiny_table(martin_grid, eps_values)
        for gamma_db in (0.0, 6.0, 12.0):
            gamma = 10 ** (gamma_db / 10)
            acc = []
            for pattern in itertools.product((-1.0, 1.0), repeat=len(eps_values)):
                delta = sum(a * e for a, e in zip(pattern, eps_values))
                for a in (-1.0, 1.0):
                    arg = (1.0 + a * delta) * math.sqrt(2.0 * gamma)
                    acc.append(0.5 * math.erfc(arg / math.sqrt(2.0)))
            expected = sum(acc) / len(acc)
            got = an.fbmc_awgn_exact(2, table, gamma)
            assert got == pytest.approx(expected, abs=1e-12)


class TestFbmcInvariants:
    def test_sign_flip_invariance(self, martin_top8):
        gammas = an.db_to_linear(np.array([0.0, 6.0, 12.0]))
        small = truncate(martin_top8, 4)
        flipped_small = InterferenceTable(
            small.m, small.n, -np.asarray(small.eps), small.eps00, small.grid
        )
        a = an.fbmc_awgn_exact(8, small, gammas)
        b = an.fbmc_awgn_exact(8, flipped_small, gammas)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_monotonic_small_tables(self, martin_table):
        small = truncate(martin_table, 3)
        for fn in (an.fbmc_awgn_approx, an.fbmc_awgn_exact,
                   an.fbmc_rayleigh_approx, an.fbmc_rayleigh_exact):
            probs = fn(8, small, GAMMA_GRID)
            assert np.all(np.diff(probs) <= probs[:-1] * 1e-12 + 1e-300)

    def test_range_small_tables(self, martin_table):
        small = truncate(martin_table, 3)
        for fn in (an.fbmc_awgn_exact, an.fbmc_rayleigh_exact):
            probs = fn(8, small, GAMMA_GRID)
            assert np.all(probs >= 0.0)
            assert np.all(probs <= 0.5 + 1e-12)

    def test_saturating_offset_rayleigh(self, martin_grid):
        # An offset reaching the decision threshold pins the error rate
        # near 1/2 regardless of SNR.
        table = tiny_table(martin_grid, [1.0])
        probs = an.fbmc_rayleigh_approx(2, table, an.db_to_linear(50.0))
        assert probs == pytest.approx(0.25, abs=1e-3)

    def test_gamma_validation(self, martin_top8):
        for gamma in (0.0, np.nan, np.array([2.0, np.nan])):
            with pytest.raises(ValueError):
                an.fbmc_awgn_exact(8, martin_top8, gamma)


# ---------------------------------------------------------------------------
# Numerics at the edges of the SNR range

FBMC_FORMS = {
    ("awgn", "exact"): an.fbmc_awgn_exact,
    ("awgn", "approx"): an.fbmc_awgn_approx,
    ("rayleigh", "exact"): an.fbmc_rayleigh_exact,
    ("rayleigh", "approx"): an.fbmc_rayleigh_approx,
}


@st.composite
def edge_curves(draw):
    """A PAM order, a table of up to three entries of |eps| <= 1 and SNR
    points from -300 to 3000 dB."""
    order = draw(st.sampled_from([2, 4, 8, 16]))
    eps = draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    db = draw(st.lists(st.floats(-300.0, 3000.0), min_size=1, max_size=4))
    return order, eps, np.array(db)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(edge_curves())
def test_bep_is_a_probability_at_any_snr(martin_grid, case):
    """Finite and in [0, 1] on both channels in both forms, and no
    floating-point warning on the way."""
    order, eps, db = case
    table = tiny_table(martin_grid, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in FBMC_FORMS.values():
            probs = fn(order, table, an.db_to_linear(db))
            assert np.all(np.isfinite(probs))
            assert np.all((probs >= 0.0) & (probs <= 1.0))


def offset_floor(order, eps, form):
    """The BEP at infinite SNR: the Gray-weighted share of the offsets
    past each decision threshold, an offset exactly at one counting half."""
    thetas, weights = collapsed_cho_weights(order)
    if form == "approx":
        thetas, weights = thetas[:1], weights[:1]
    values, mults = enumeration.offset_support(eps, order)
    past = (values > thetas[:, None]) + 0.5 * (values == thetas[:, None])
    share = (past * mults).sum(axis=1) / float(order) ** len(eps)
    return 2.0 / (order * math.log2(order)) * float(np.dot(weights, share))


class TestInfiniteSnrFloor:
    @pytest.mark.parametrize("kind,form", list(FBMC_FORMS))
    @pytest.mark.parametrize("order,eps", [
        (2, [1.0]),
        (4, [0.25, 0.25]),
        (8, [0.5, -0.25, 0.125]),
        (16, [0.3, -0.2]),
        (8, []),
    ], ids=["bpsk-at-threshold", "pam4-at-threshold", "pam8-at-thresholds",
            "pam16-past", "pam8-empty"])
    def test_3000_db_is_the_offset_floor(self, martin_grid, kind, form,
                                         order, eps):
        probs = FBMC_FORMS[kind, form](order, tiny_table(martin_grid, eps),
                                       an.db_to_linear(3000.0))
        assert probs == pytest.approx(offset_floor(order, eps, form),
                                      rel=0, abs=1e-12)

    def test_martin_top8_floor(self, martin_top8):
        """No offset of Martin's top-8 table reaches a threshold of 8-PAM."""
        for fn in FBMC_FORMS.values():
            assert fn(8, martin_top8, an.db_to_linear(3000.0)) < 1e-12

    def test_floor_of_an_offset_at_the_threshold(self):
        """BPSK with offsets +-1: half of the sent +-1 meet the threshold
        0, each decided wrong with probability 1/2."""
        assert offset_floor(2, [1.0], "exact") == 0.25

    @pytest.mark.parametrize("gamma", [math.inf, np.array([1.0, math.inf])])
    def test_infinite_gamma_is_rejected(self, martin_top8, gamma):
        for fn in FBMC_FORMS.values():
            with pytest.raises(ValueError, match="gamma_b must be finite"):
                fn(8, martin_top8, gamma)
