import itertools
import math

import numpy as np
import pytest

from oracles import collapsed_cho_weights, pam_levels
from fbmcber.constellations import PamConstellation, QamConstellation
from fbmcber import enumeration
from fbmcber.enumeration import offset_support, reduce_offsets, support_size
from fbmcber.errors import ConstellationError, EnumerationBudgetExceeded
from fbmcber.interference import FbmcGrid, build_set, truncate


class TestConstellations:
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_pam_levels(self, order):
        pam = PamConstellation(order)
        levels = pam_levels(order)
        assert levels.size == order
        assert np.all(np.diff(levels) == 2)
        assert levels.mean() == 0.0
        assert np.mean(levels**2) == pytest.approx(pam.symbol_energy, rel=1e-15)

    @pytest.mark.parametrize("order", [0, 1, 3, 6])
    def test_bad_pam_order(self, order):
        with pytest.raises(ConstellationError):
            PamConstellation(order)

    def test_qam(self):
        qam = QamConstellation(64)
        assert qam.pam.order == 8
        assert qam.bits_per_symbol == 6
        assert qam.symbol_energy == pytest.approx(42.0)

    @pytest.mark.parametrize("order", [8, 32, 2, 36])
    def test_bad_qam_order(self, order):
        with pytest.raises(ConstellationError):
            QamConstellation(order)

    def test_snr_point(self):
        # N0 = (Np^2 - 1) / (3 Nb gamma)
        pam = PamConstellation(8)
        assert pam.noise_density(10.0) == pytest.approx(63.0 / (3 * 3 * 10.0))
        for gamma_b in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                pam.noise_density(gamma_b)


class TestOffsetStream:
    """The offsets of a table, as offset_support gives them."""

    def test_empty_table(self, martin_table):
        values, mults = offset_support(truncate(martin_table, 0).eps, 8)
        assert values.tolist() == [0.0]
        assert mults.tolist() == [1.0]

    def test_single_entry_bpsk(self):
        values, mults = offset_support([0.1], 2)
        assert np.allclose(sorted(values), [-0.1, 0.1])
        assert mults.tolist() == [1.0, 1.0]

    def test_count_for_top8(self, martin_top8):
        values, mults = offset_support(martin_top8.eps, 8)
        assert mults.sum() == 8**8 == 16_777_216
        # |eps| groups [4, 4]: (4 * 7 + 1) ** 2 points.
        assert values.size == support_size(martin_top8.eps, 8) == 841
        # Exactly symmetric about zero, so K(theta - x) needs no mirror fold.
        assert np.array_equal(np.sort(values), np.sort(-values))

    def test_budget_guard(self, martin_top8):
        with pytest.raises(EnumerationBudgetExceeded) as info:
            offset_support(martin_top8.eps, 8, budget=800)
        assert info.value.required == 841

    def test_budget_guard_through_bep(self, martin_top8):
        from fbmcber import analytic as an

        with pytest.raises(EnumerationBudgetExceeded):
            an.fbmc_awgn_exact(8, martin_top8, 10.0, budget=800)


class TestGroupedReduction:
    # Ties (one only to the last ulps), mixed signs and a singleton.
    EPS = [0.2, -0.2 * (1.0 + 4e-16), 0.07, -0.07, 0.013]
    ORDER = 4

    @pytest.mark.parametrize("form", ["approx", "exact"])
    @pytest.mark.parametrize("kind", ["awgn", "rayleigh"])
    def test_matches_brute_force(self, kind, form, monkeypatch):
        # 7 * 7 * 4 = 196 support points, summed in blocks of about 50
        # kernel arguments: 12 blocks of 17 points at the exact form's three
        # thresholds, 4 of 49 at the approximation's one.
        monkeypatch.setattr(enumeration, "BLOCK_ARGS", 50)

        thetas, weights = collapsed_cho_weights(self.ORDER)
        if form == "approx":  # the adjacent-symbol term
            thetas, weights = thetas[:1], weights[:1]
        levels = pam_levels(self.ORDER)
        offsets = np.array([
            np.dot(amps, self.EPS)
            for amps in itertools.product(levels, repeat=len(self.EPS))
        ])
        assert offsets.size == self.ORDER ** len(self.EPS)
        scales = np.array([0.3, 1.0, 2.5, 8.0])
        got = reduce_offsets(self.EPS, self.ORDER, scales, thetas, weights, kind)
        for scale, value in zip(scales, got):
            t = scale * (thetas[:, None] - offsets[None, :])
            if kind == "awgn":
                kernel = np.array([[0.5 * math.erfc(x) for x in row] for row in t])
            else:
                # 0.5 * (1 - t / sqrt(1 + t^2)), with the t > 0 half taken
                # as 0.5 / ((1 + t^2) * (1 + t / sqrt(1 + t^2))).
                root = t / np.sqrt(1.0 + t * t)
                kernel = np.where(t > 0.0, 0.5 / ((1.0 + t * t) * (1.0 + root)),
                                  0.5 * (1.0 - root))
            expected = math.fsum(weights * kernel.mean(axis=1))
            assert value == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("kind", ["AWGN", "rician", ""])
    def test_unknown_kind_is_rejected(self, kind):
        # A budget of one point would fail the support build: the kind is
        # checked first.
        with pytest.raises(ValueError, match=f"kind {kind!r}"):
            reduce_offsets([1.0], 2, [1.0], [1.0], [1.0], kind, budget=1)


class TestOffsetCount:
    """reduce_offsets divides by order**k, the sum of the multiplicities."""

    @pytest.mark.parametrize("name", ["martin", 0.25, 1.0])
    def test_acceptance_tables(self, name, martin_top8, egf_filters):
        table = (martin_top8 if name == "martin"
                 else truncate(build_set(FbmcGrid(16, egf_filters[name])), 8))
        _, mults = offset_support(table.eps, 8)
        assert 8.0 ** len(table.eps) == math.fsum(mults)

    def test_random_grouped_tables(self):
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 200:
            order = int(rng.choice([2, 4, 8, 16]))
            counts = rng.integers(1, 8, size=rng.integers(1, 6))
            k = int(counts.sum())
            if order**k > 2**53 or math.prod(c * (order - 1) + 1 for c in counts) > 2**16:
                continue
            mags = rng.uniform(0.01, 0.5, size=counts.size)
            eps = np.repeat(mags, counts) * rng.choice([-1.0, 1.0], size=k)
            _, mults = offset_support(eps, order)
            assert float(order) ** k == math.fsum(mults)
            checked += 1
