import logging
import math
import multiprocessing
import resource
import threading
import time
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import frame_blocks
from oracles import codeword_bits, ofdm_chain_errors
from fbmcber import analytic as an
from fbmcber import simulate
from fbmcber.constellations import PamConstellation
from fbmcber.errors import ConstellationError
from fbmcber.filters import make_egf, make_martin
from fbmcber.interference import FbmcGrid, build_set
from fbmcber.modem import (
    PulseBank,
    fbmc_analyze_frame,
    fbmc_signal_length,
    fbmc_synthesize,
    pam_codewords,
    pam_demap,
    pam_map,
    qam_demap,
    qam_map,
)
from fbmcber.simulate import (
    ChannelModel,
    FbmcSystem,
    OfdmSystem,
    PamSystem,
    SimResult,
    StopRule,
    run_ber,
    z_scores,
)

AWGN = ChannelModel("awgn")
RAYLEIGH = ChannelModel("rayleigh")


def _batch_draws(system, channel, gamma_b, frames, rng):
    """A batch's bits, fades (None under AWGN) and noise, drawn whole in
    the documented order: the bits, the fades (held for the coherence),
    then one standard_normal draw for all the noise, returned unscaled as
    (*noise_shape, 1 or 2) reals: one real per PAM symbol, and one complex
    value per OFDM subcarrier and symbol or per sample that the counted
    FBMC columns read."""
    if isinstance(system, FbmcSystem):
        m, nsym, lo = system.grid.subcarriers, system.frame_symbols, system.edge_columns
        n_bits = frames * m * nsym * system.constellation.bits_per_symbol
        fade_shape = (frames,)
        noise_shape = (frames, fbmc_signal_length(system.grid, nsym - 2 * lo))
    elif isinstance(system, OfdmSystem):
        n_bits = frames * system.frame_bits
        fade_shape = noise_shape = (frames, system.subcarriers, system.frame_symbols)
    else:
        n_bits = frames * system.frame_bits
        fade_shape = noise_shape = (frames * system.frame_symbols,)
    bits = np.unpackbits(np.frombuffer(rng.bytes(-(-n_bits // 8)), np.uint8),
                         count=n_bits).view(np.int8)
    amp = None
    if channel.kind == "rayleigh":
        *lead, units = fade_shape
        amp = np.sqrt(rng.standard_exponential((*lead, -(-units // channel.coherence))))
        amp = np.repeat(amp, channel.coherence, axis=-1)[..., :units]
    dims = 1 if isinstance(system, PamSystem) else 2
    return bits, amp, rng.standard_normal((*noise_shape, dims))


def _whole_batch(system, channel, gamma_b, frames, rng):
    """Per-frame bit errors of a batch drawn whole by _batch_draws.  PAM
    and OFDM add the noise, scaled by sigma / |h|, to the mapped symbols.
    The FBMC reference synthesizes and analyzes whole frames and adds
    the noise to the window of them that the counted columns read."""
    bits, amp, z = _batch_draws(system, channel, gamma_b, frames, rng)
    sigma = math.sqrt(system.noise_density(gamma_b) / 2)
    z *= sigma if amp is None else (sigma / amp).reshape(
        amp.shape + (1,) * (z.ndim - amp.ndim))
    z = (z.view(np.complex128) if z.shape[-1] == 2 else z)[..., 0]
    sent = bits
    pam = system.constellation
    if isinstance(system, PamSystem):
        decided = pam_demap(z + pam_map(pam_codewords(bits, pam), pam), pam)
    elif isinstance(system, OfdmSystem):
        qam, pam = pam, pam.pam
        y = z.ravel() + qam_map(pam_codewords(bits, pam), qam)
        decided = qam_demap(y, qam)
    else:
        m, nsym, lo = system.grid.subcarriers, system.frame_symbols, system.edge_columns
        a = pam_map(pam_codewords(bits, pam), pam).reshape(frames, m, nsym)
        x = fbmc_synthesize(a, system.bank)
        start = lo * system.grid.half_symbol
        x[:, start : start + z.shape[1]] += z
        stats_ = fbmc_analyze_frame(x, system.bank, nsym)
        decided = pam_demap(stats_[:, :, lo:nsym - lo].ravel(), pam)
        sent = bits.reshape(frames, m, nsym, -1)[:, :, lo:nsym - lo]
    decided = codeword_bits(decided, pam.bits_per_symbol)
    wrong = sent.reshape(frames, -1) != decided.reshape(frames, -1)
    return np.count_nonzero(wrong, axis=1)


class TestChannel:
    def test_zero_noise_density_adds_nothing(self):
        rng = np.random.default_rng(0)
        for dtype in (np.float64, np.complex128):
            assert not simulate._noise(rng, simulate._noise_scale(0.0), (8,),
                                       dtype).any()

    def test_noise_variance_calibrated(self):
        """N0/2 per real dimension, for real (PAM) and complex noise."""
        rng = np.random.default_rng(2)
        n0 = 0.37
        for dims, dtype in ((1, np.float64), (2, np.complex128)):
            noise = simulate._noise(rng, simulate._noise_scale(n0), (1000, 1000),
                                    dtype)
            assert noise.shape == (1000, 1000) and noise.dtype == dtype
            assert np.mean(np.abs(noise) ** 2) == pytest.approx(dims * n0 / 2,
                                                                rel=0.01)
            assert np.var(noise.real) == pytest.approx(n0 / 2, rel=0.01)
        assert np.var(noise.imag) == pytest.approx(n0 / 2, rel=0.01)
        assert abs(np.mean(noise.real * noise.imag)) < 0.005 * n0

    def test_zero_forced_noise_scales_by_fade(self):
        """One amplitude per index of the leading fades.ndim axes, which
        may be all of them: OFDM has one fade per value of its
        (frames, M, N_sym) noise."""
        ofdm_fades = np.random.default_rng(6).uniform(1e-3, 2.0, (2, 3, 5))
        for shape, fades, per_value in (
                ((3, 5), np.array([1.0, 0.5, 0.1]), (1,)),
                ((2, 3, 5), np.array([[1.0, 0.5, 0.1], [2.0, 0.3, 1e-3]]), (1,)),
                ((2, 3, 5), ofdm_fades, ())):
            plain = simulate._noise(np.random.default_rng(4),
                                    simulate._noise_scale(0.2), shape,
                                    np.complex128)
            forced = simulate._noise(np.random.default_rng(4),
                                     simulate._noise_scale(0.2, fades), shape,
                                     np.complex128)
            assert np.allclose(forced, plain / fades.reshape(fades.shape + per_value),
                               rtol=1e-15, atol=0)

    def test_noise_fills_out(self):
        """With out, the draw lands in out and is the draw without it."""
        scale = simulate._noise_scale(0.2, np.array([1.0, 0.5, 0.1]))
        for dtype, dims in ((np.float64, 1), (np.complex128, 2)):
            out = np.empty(dims * 15)
            got = simulate._noise(np.random.default_rng(4), scale, (3, 5), dtype,
                                  out)
            assert np.shares_memory(got, out)
            assert np.array_equal(got, simulate._noise(
                np.random.default_rng(4), scale, (3, 5), dtype))

    def test_fades_have_unit_power_and_hold_for_coherence(self):
        rng = np.random.default_rng(1)
        gains = simulate._fades(rng, ChannelModel("rayleigh", 3), (599_999,))
        assert gains.size == 599_999 and gains.dtype == np.float64
        assert np.array_equal(gains[0:3], np.full(3, gains[0]))
        assert np.mean(np.abs(gains) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_fade_power_is_exponential(self):
        rng = np.random.default_rng(5)
        gains = simulate._fades(rng, ChannelModel("rayleigh", 4), (7, 3, 400_002))
        assert gains.shape == (7, 3, 400_002)
        held = gains[..., :400_000].reshape(21, -1, 4)
        assert np.all(held == held[:, :, :1])
        assert np.all(gains[..., -1] == gains[..., -2])  # a cut last block
        power = held[:, :, 0].ravel() ** 2
        assert stats.kstest(power, "expon").pvalue > 0.01
        assert simulate._fades(rng, AWGN, (5,)) is None
        # coherence 1: one amplitude per unit, straight from the draw
        amp = simulate._fades(np.random.default_rng(9), RAYLEIGH, (4, 5))
        expected = np.sqrt(np.random.default_rng(9).standard_exponential((4, 5)))
        assert np.array_equal(amp, expected)

    def test_bits_are_uniform(self):
        bits = simulate._bits(np.random.default_rng(6), 1_000_003)
        assert bits.dtype == np.int8 and bits.size == 1_000_003
        assert set(np.unique(bits)) == {0, 1}
        assert bits.mean() == pytest.approx(0.5, abs=0.002)

    def test_draws_in_documented_order(self):
        """A PAM batch is the bits, then the fades, then the noise."""
        system = PamSystem(4, frame_symbols=64)
        got = system.simulate_frames(RAYLEIGH, 2.0, 3, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        bits = np.unpackbits(np.frombuffer(rng.bytes(48), np.uint8)).astype(np.int8)
        amp = np.sqrt(rng.standard_exponential(192))
        y = rng.standard_normal(192) * math.sqrt(system.noise_density(2.0) / 2)
        pam = system.constellation
        y = y / amp + pam_map(pam_codewords(bits, pam), pam)
        wrong = bits != codeword_bits(pam_demap(y, pam), 2)
        assert np.array_equal(got, wrong.reshape(3, -1).sum(axis=1))

    def test_ofdm_draws_noise_for_the_body_only(self):
        """An OFDM batch draws the bits, then one complex noise value per
        subcarrier and OFDM symbol, added to its QAM symbol; the dropped
        cyclic prefix draws none."""
        system = OfdmSystem(16, 16, 2, frame_symbols=4)
        qam, shape = system.constellation, (3, 16, 4)
        got = system.simulate_frames(AWGN, 2.0, 3, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        bits = np.unpackbits(np.frombuffer(rng.bytes(96), np.uint8)).astype(np.int8)
        noise = rng.standard_normal(2 * math.prod(shape))
        noise *= math.sqrt(system.noise_density(2.0) / 2)
        y = noise.view(np.complex128) + qam_map(pam_codewords(bits, qam.pam), qam)
        wrong = bits != codeword_bits(qam_demap(y, qam), 2)
        assert np.array_equal(got, wrong.reshape(3, -1).sum(axis=1))

    @pytest.mark.parametrize("qam_order", [4, 16, 64])
    @pytest.mark.parametrize("n_cp", [0, 2])
    @pytest.mark.parametrize("channel", [AWGN, ChannelModel("rayleigh", 3)],
                             ids=["awgn", "rayleigh"])
    def test_ofdm_counts_what_the_fft_chain_counts(self, channel, n_cp, qam_order):
        """Fed its draws, with the noise n that it adds per subcarrier
        given to the IFFT/FFT chain as time-domain noise ifft(n), OFDM
        counts per frame exactly what that chain counts: FFT(IFFT(h x) +
        IFFT(n)) / h = x + n / h."""
        system, frames = OfdmSystem(qam_order, 16, n_cp, frame_symbols=4), 601
        assert len(frame_blocks(system, frames)) >= 3
        got = system.simulate_frames(channel, 2.0, frames, np.random.default_rng(12))
        bits, amp, z = _batch_draws(system, channel, 2.0, frames,
                                    np.random.default_rng(12))
        z *= math.sqrt(system.noise_density(2.0) / 2)
        noise = np.fft.ifft(z.view(np.complex128)[..., 0], axis=1, norm="ortho")
        qam = system.constellation
        codes = pam_codewords(bits, qam.pam).reshape(frames, -1)
        expected = ofdm_chain_errors(codes, qam, amp, noise)
        assert got.sum() > 0 and np.array_equal(got, expected)

    def test_frame_slices_cover_whole_frames(self):
        """Contiguous slices of whole frames cover 0..frames in order, each
        of at most max(1, budget // per_frame) frames, as few as that
        allows, all but the last of one length."""
        for frames in (0, 1, 7, 42, 89, 130, 601):
            for per_frame in (1, 3, 24, 5000):
                for budget in (0, 100, 1024, 2**15):
                    most = max(1, budget // per_frame)
                    slices = simulate._frame_slices(frames, per_frame, budget)
                    bounds = [(sl.start, sl.stop, sl.step) for sl in slices]
                    assert [lo for lo, _, _ in bounds] + [frames] == [0] + [
                        hi for _, hi, _ in bounds]
                    assert all(step is None for _, _, step in bounds)
                    sizes = [hi - lo for lo, hi, _ in bounds]
                    assert all(0 < size <= most for size in sizes)
                    assert len(slices) == math.ceil(frames / most)
                    assert len(set(sizes[:-1])) <= 1

    @pytest.mark.parametrize("system,frames,channel", [
        (PamSystem(4, frame_symbols=5000), 19, AWGN),
        (PamSystem(4, frame_symbols=5000), 19, ChannelModel("rayleigh", 7)),
        (OfdmSystem(16, 16, 2, frame_symbols=4), 601, AWGN),
        (OfdmSystem(16, 16, 2, frame_symbols=4), 601, ChannelModel("rayleigh", 3)),
        (FbmcSystem(8, FbmcGrid(16, make_martin(4, 16))), 106, AWGN),
        (FbmcSystem(8, FbmcGrid(16, make_martin(4, 16))), 106,
         ChannelModel("rayleigh", 7)),
        (FbmcSystem(8, FbmcGrid(16, make_martin(3, 16))), 106, AWGN),
        (FbmcSystem(8, FbmcGrid(256, make_egf(1.0, 4, 256))), 89,
         ChannelModel("rayleigh", 7)),
    ], ids=["pam-awgn", "pam-rayleigh", "ofdm-awgn", "ofdm-rayleigh",
            "fbmc-martin16-awgn", "fbmc-martin16-rayleigh", "fbmc-martin16-k3-awgn",
            "fbmc-egf1-256-rayleigh"])
    def test_blocks_continue_one_draw(self, system, frames, channel):
        """A batch of three or more blocks, the last one short, counts what
        one whole-batch draw of the bits, the fades and the noise gives;
        PAM and FBMC fades are held across block boundaries, and every
        block's OFDM fades are its frames' slice, fades[sl], of the
        batch's fades."""
        blocks = frame_blocks(system, frames)
        assert len(blocks) >= 3 and blocks[-1].stop - blocks[-1].start < (
            blocks[0].stop - blocks[0].start)
        got = system.simulate_frames(channel, 2.0, frames, np.random.default_rng(11))
        expected = _whole_batch(system, channel, 2.0, frames,
                                np.random.default_rng(11))
        assert got.sum() > 0 and np.array_equal(got, expected)

    @pytest.mark.parametrize("system", [
        PamSystem(8, frame_symbols=512), OfdmSystem(16, 16, 2, frame_symbols=4),
        FbmcSystem(8, FbmcGrid(16, make_martin(4, 16)), frame_symbols=20),
    ], ids=["pam", "ofdm", "fbmc"])
    def test_draws_reproduce_per_seed(self, system):
        channel = ChannelModel("rayleigh", 2)
        runs = [system.simulate_frames(channel, 3.0, 5, np.random.default_rng(s))
                for s in (8, 8, 9)]
        assert np.array_equal(runs[0], runs[1])
        assert not np.array_equal(runs[0], runs[2])

    @pytest.mark.parametrize("system", [
        PamSystem(8), FbmcSystem(8, FbmcGrid(16, make_martin(4, 16))),
        FbmcSystem(8, FbmcGrid(16, make_martin(3, 16))), OfdmSystem(64, 16, 2),
    ], ids=["pam", "fbmc", "fbmc-k3", "ofdm"])
    def test_zero_forcing_round_trip(self, system):
        res = run_ber(system, RAYLEIGH, [120.0], StopRule(1, 100_000), seed=3)
        assert res.points[0].errors == 0

    def test_bad_channel_kind(self):
        with pytest.raises(ValueError):
            ChannelModel("fading")
        with pytest.raises(ValueError):
            ChannelModel("rayleigh", coherence=0)

    def test_stop_rule_limits(self):
        StopRule(0, 1, 0, None)  # the loosest rule that still stops
        StopRule(10**15, 1, target_rel_se=1e-9)
        for bad in ({"min_errors": -1}, {"max_bits": 0}, {"min_frames": -1},
                    {"target_rel_se": 0.0}, {"target_rel_se": -0.5},
                    {"target_rel_se": math.nan}, {"target_rel_se": math.inf}):
            with pytest.raises(ValueError):
                StopRule(**bad)

    def test_target_rel_se_needs_two_frames(self):
        """A first batch of one frame has no frame-replicate SE, so the rule
        waits for the second frame (and std(ddof=1) warns of nothing)."""
        system = PamSystem(8, frame_symbols=100_000)
        assert simulate._batch_frames(0, system.frame_bits) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_ber(system, AWGN, [4.0],
                          StopRule(1, 10**8, target_rel_se=0.1), seed=1)
        point = res.points[0]
        assert (point.frames, point.batches, point.stop) == (2, 2, "target_rel_se")

    def test_ofdm_system_limits(self):
        OfdmSystem(16, 1, 0)
        for subcarriers, n_cp in ((0, 2), (-1, 2), (16, -1)):
            with pytest.raises(ConstellationError):
                OfdmSystem(16, subcarriers, n_cp)
        OfdmSystem(16, 16, 2, frame_symbols=1)
        PamSystem(4, frame_symbols=1)
        for frame_symbols in (0, -3):
            with pytest.raises(ValueError, match="frame_symbols"):
                OfdmSystem(16, 16, 2, frame_symbols=frame_symbols)
            with pytest.raises(ValueError, match="frame_symbols"):
                PamSystem(4, frame_symbols=frame_symbols)


def _hooks(monkeypatch, system, frames):
    """The codewords of one AWGN batch of system, each frame's on a row,
    and its pam and hooks (transmit, statistics, counted) as its
    simulate_frames passes them to _block_errors, which is not run."""
    seen = {}

    def record(rng, n0, bits, pam, shape, dtype, fades, *hooks):
        codes = pam_codewords(bits, pam).reshape(len(bits), -1)
        seen.update(pam=pam, codes=codes, hooks=hooks)
        return np.zeros(len(bits), dtype=np.intp)

    monkeypatch.setattr(simulate, "_block_errors", record)
    system.simulate_frames(AWGN, 2.0, frames, np.random.default_rng(5))
    return seen["pam"], seen["codes"], *seen["hooks"]


def _table_prediction(levels, table, lo, hi):
    """Noise-free statistics of the columns lo..hi-1 of one FBMC frame of
    PAM levels (M, N): each slot's level plus the sum over the frame's
    other slots of a[m, n] (-1)**((m - m0) n0) eps[m - m0, n - n0]."""
    m_sub, nsym = levels.shape
    cols = np.arange(lo, hi)
    out = levels[:, lo:hi].copy()
    for dm, dn, eps in zip(table.m, table.n, table.eps):
        n = cols + dn
        inside = (n >= 0) & (n < nsym)
        rows = np.roll(levels, -dm, axis=0)  # row m0 holds m = m0 + dm
        sign = (-1.0) ** (dm * cols[inside])
        out[:, inside] += eps * sign * rows[:, n[inside]]
    return out


class TestDecisionPath:
    """_block_errors demaps statistics(y) and counts the decisions against
    counted(codes) for every system; without noise the statistics are the
    sent levels, plus the interference that the table predicts for FBMC."""

    def test_pam_statistics_are_the_levels(self, monkeypatch):
        pam, codes, transmit, statistics, counted = _hooks(
            monkeypatch, PamSystem(8, frame_symbols=300), 3)
        assert np.array_equal(statistics(transmit(codes)).ravel(),
                              pam_map(codes, pam))
        assert np.array_equal(counted(codes), codes)

    def test_ofdm_statistics_are_the_levels(self, monkeypatch):
        pam, codes, transmit, statistics, counted = _hooks(
            monkeypatch, OfdmSystem(64, 16, 2, frame_symbols=4), 3)
        stats = statistics(transmit(codes))
        assert stats.dtype == np.float64
        assert np.array_equal(stats.ravel(), pam_map(codes, pam))
        assert np.array_equal(counted(codes), codes)

    @pytest.mark.parametrize("overlap", [3, 4])
    def test_fbmc_statistics_follow_the_table(self, monkeypatch, overlap):
        """Odd K flips the sign of the window's statistics back."""
        grid = FbmcGrid(16, make_martin(overlap, 16))
        system = FbmcSystem(8, grid)
        pam, codes, transmit, statistics, _ = _hooks(monkeypatch, system, 2)
        lo, hi = system.edge_columns, system.frame_symbols - system.edge_columns
        stats = statistics(transmit(codes))
        levels = pam_map(codes, pam).reshape(2, 16, -1)
        table = build_set(grid)
        for frame in range(2):
            predicted = _table_prediction(levels[frame], table, lo, hi)
            assert np.max(np.abs(stats[frame] - predicted)) < 1e-12

    @pytest.mark.parametrize("overlap", [3, 4])
    def test_martin_noise_free_decisions_are_right(self, monkeypatch, overlap):
        """No bit errors without noise; counting the wrong columns, or
        (odd K) dropping the sign flip, does give errors."""
        system = FbmcSystem(8, FbmcGrid(16, make_martin(overlap, 16)))
        pam, codes, transmit, statistics, counted = _hooks(monkeypatch,
                                                           system, 3)
        lo, hi = system.edge_columns, system.frame_symbols - system.edge_columns
        stats = statistics(transmit(codes))

        def errors(sent, values):
            return simulate._frame_errors(sent, pam_demap(values, pam)).sum()

        assert errors(counted(codes), stats) == 0
        shifted = codes.reshape(3, 16, -1)[:, :, lo + 1:hi + 1]
        assert errors(shifted, stats) > 0
        if overlap % 2:
            assert errors(counted(codes), -stats) > 0


class TestProjectionCalibration:
    def test_null_frame_statistic_variance(self, martin_grid):
        """Projection of pure time-domain noise has variance N0/2."""
        rng = np.random.default_rng(3)
        n0 = 0.8
        n_cols, frames = 24, 60
        length = fbmc_signal_length(martin_grid, n_cols)
        noise = math.sqrt(n0 / 2) * (
            rng.standard_normal((frames, length))
            + 1j * rng.standard_normal((frames, length))
        )
        stats = fbmc_analyze_frame(noise, PulseBank(martin_grid), n_cols).real
        assert np.var(stats) == pytest.approx(n0 / 2, rel=0.02)


class TestReproducibility:
    def test_same_seed_bit_for_bit(self):
        stop = StopRule(100, 500_000)
        a = run_ber(PamSystem(4), AWGN, [4.0, 8.0], stop, seed=42)
        b = run_ber(PamSystem(4), AWGN, [4.0, 8.0], stop, seed=42)
        assert a.points == b.points
        assert a.config == b.config

    def test_different_seed_differs(self):
        stop = StopRule(100, 500_000)
        a = run_ber(PamSystem(4), AWGN, [4.0], stop, seed=1)
        b = run_ber(PamSystem(4), AWGN, [4.0], stop, seed=2)
        assert a.points != b.points


def _run_ber_matches(points):
    """Exit status 0 when this process's run_ber repeats points."""
    stop = StopRule(100, 500_000)
    assert run_ber(PamSystem(4), AWGN, [4.0, 8.0], stop, seed=42).points == points


class TestNoiseThread:
    """Each simulate_frames call draws its noise on one helper thread of
    its own, which is gone when the call returns."""

    def test_helper_thread_draws_all_noise_and_is_joined(self, monkeypatch):
        drawn, mapped = [], []
        noise, pam_map_ = simulate._noise, simulate.pam_map

        def record_noise(*args, **kwargs):
            drawn.append(threading.get_ident())
            return noise(*args, **kwargs)

        def record_map(*args, **kwargs):
            mapped.append(threading.get_ident())
            return pam_map_(*args, **kwargs)

        monkeypatch.setattr(simulate, "_noise", record_noise)
        monkeypatch.setattr(simulate, "pam_map", record_map)
        before = threading.active_count()
        PamSystem(4, frame_symbols=5000).simulate_frames(RAYLEIGH, 2.0, 19,
                                                          np.random.default_rng(1))
        assert threading.active_count() == before
        assert len(drawn) == len(mapped) >= 3
        assert set(mapped) == {threading.get_ident()}
        assert len(set(drawn)) == 1 and drawn[0] != mapped[0]

    def test_caller_allocates_the_zero_forcing_scale(self, monkeypatch):
        """The helper only fills and scales arrays that the calling thread
        allocated: memory the helper allocated would stay in a malloc
        arena of its own."""
        scaled, scale_ = [], simulate._noise_scale

        def record_scale(*args, **kwargs):
            scaled.append(threading.get_ident())
            return scale_(*args, **kwargs)

        monkeypatch.setattr(simulate, "_noise_scale", record_scale)
        system = OfdmSystem(64, 16, 2)
        system.simulate_frames(RAYLEIGH, 2.0, 700, np.random.default_rng(1))
        assert len(scaled) == len(frame_blocks(system, 700)) >= 2
        assert set(scaled) == {threading.get_ident()}

    @pytest.mark.parametrize("m", [16, 256])
    def test_fbmc_draws_on_the_helper(self, monkeypatch, m):
        """At every M, with either form of the modem's products."""
        drawn, noise = [], simulate._noise

        def record_noise(*args, **kwargs):
            drawn.append(threading.get_ident())
            return noise(*args, **kwargs)

        monkeypatch.setattr(simulate, "_noise", record_noise)
        system = FbmcSystem(8, FbmcGrid(m, make_egf(1.0, 4, m)))
        system.simulate_frames(AWGN, 2.0, 5, np.random.default_rng(1))
        assert len(drawn) == len(frame_blocks(system, 5))
        assert len(set(drawn)) == 1 and drawn[0] != threading.get_ident()

    @pytest.mark.parametrize("call, m, frames", [
        ("build_set", 256, None), ("simulate_frames", 256, 2),
        ("simulate_frames", 16, 120), ("simulate_frames", 32, 60),
    ], ids=["build_set", "simulate_frames", "simulate_frames-m16",
            "simulate_frames-m32"])
    def test_no_openblas_worker_spins_after(self, call, m, frames):
        """OpenBLAS spreads a product of about 1e6 multiply-adds or more
        over all cores, and then its idle worker spins on another core for
        about 0.1 s, taking it from the noise helper and from whatever runs
        next.  After the calls the process uses next to no CPU while it
        sleeps: at M=256 (the FFT form of the modem), and at M=16 and M=32,
        the largest M of the matrix form, with blocks whose products would
        each cross the threshold if they were not run in parts."""
        grid = FbmcGrid(m, make_egf(1.0, 4, m))
        run = {"build_set": lambda: build_set(grid),
               "simulate_frames": lambda: FbmcSystem(8, grid).simulate_frames(
                   AWGN, 2.0, frames, np.random.default_rng(1))}[call]

        def cpu_s():
            usage = resource.getrusage(resource.RUSAGE_SELF)
            return usage.ru_utime + usage.ru_stime

        time.sleep(0.3)  # for a worker that an earlier test left spinning
        run()
        before = cpu_s()
        time.sleep(0.3)
        assert cpu_s() - before < 0.03

    def test_forked_child_runs_after_the_parent(self):
        """A child forked after the parent ran run_ber runs it too."""
        stop = StopRule(100, 500_000)
        points = run_ber(PamSystem(4), AWGN, [4.0, 8.0], stop, seed=42).points
        child = multiprocessing.get_context("fork").Process(
            target=_run_ber_matches, args=(points,))
        child.start()
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0


class TestProgressLog:
    def test_batches_and_stop_reasons_are_logged_at_debug(self, caplog):
        stop = StopRule(300, 2_000_000)
        with caplog.at_level(logging.DEBUG, logger="fbmcber.simulate"):
            res = run_ber(PamSystem(4), AWGN, [4.0, 14.0], stop, seed=42)
        assert {r.levelno for r in caplog.records} == {logging.DEBUG}
        messages = [r.getMessage() for r in caplog.records]
        for idx, point in enumerate(res.points):
            mine = [m for m in messages if m.startswith(f"point {idx} ")]
            assert len(mine) == point.batches + 1
            assert mine[-2].endswith(f"; {point.frames} frames, {point.errors} "
                                     f"errors in {point.bits} bits so far")
            assert mine[-1].endswith(f"stopped by {point.stop} after "
                                     f"{point.batches} batches")
        assert [p.stop for p in res.points] == ["min_errors", "max_bits"]

    def test_nothing_is_logged_by_default(self, caplog):
        with caplog.at_level(logging.INFO):
            run_ber(PamSystem(4), AWGN, [4.0], StopRule(100, 500_000), seed=42)
        assert not caplog.records


class TestAgainstClosedForms:
    def test_bpsk_awgn_at_10db(self):
        res = run_ber(PamSystem(2), AWGN, [10.0],
                      StopRule(300, 200_000_000), seed=31)
        point = res.points[0]
        assert point.errors >= 300
        z = z_scores(res, [an.pam_awgn_exact(2, 10.0)])[0]
        assert abs(z) <= 3.0

    def test_pam4_awgn_sweep(self):
        db = np.arange(0.0, 13.0, 2.0)
        res = run_ber(PamSystem(4), AWGN, db, StopRule(400, 50_000_000), seed=32)
        zs = z_scores(res, an.pam_awgn_exact(4, an.db_to_linear(db)))
        assert np.max(np.abs(zs)) <= 3.0

    def test_pam8_rayleigh_sweep(self):
        db = np.array([0.0, 10.0, 20.0, 30.0])
        res = run_ber(PamSystem(8), RAYLEIGH, db, StopRule(500, 50_000_000), seed=33)
        zs = z_scores(res, an.pam_rayleigh_exact(8, an.db_to_linear(db)))
        assert np.max(np.abs(zs)) <= 3.0

    def test_ofdm_awgn_and_rayleigh(self):
        system = OfdmSystem(64, 16, 2)
        res = run_ber(system, AWGN, [10.0, 16.0], StopRule(400, 50_000_000), seed=34)
        zs = z_scores(res, an.ofdm_awgn(64, 16, 2, an.db_to_linear([10.0, 16.0])))
        assert np.max(np.abs(zs)) <= 3.0
        res = run_ber(system, RAYLEIGH, [15.0], StopRule(400, 50_000_000), seed=35)
        zs = z_scores(res, an.ofdm_rayleigh(64, 16, 2, an.db_to_linear(15.0)))
        assert np.max(np.abs(zs)) <= 3.0

    def test_fbmc_awgn_martin_point(self, martin_grid, martin_top8):
        res = run_ber(FbmcSystem(8, martin_grid), AWGN, [8.0],
                      StopRule(500, 50_000_000), seed=36)
        z = z_scores(res, [an.fbmc_awgn_exact(8, martin_top8, an.db_to_linear(8.0))])
        assert abs(z[0]) <= 3.0

    def test_pam8_rayleigh_high_snr(self):
        # Per-symbol fades: the zero-forced amplitude path down to the
        # deep-fade tail that sets the BER at high SNR.
        db = np.array([30.0, 40.0, 50.0])
        res = run_ber(PamSystem(8), RAYLEIGH, db, StopRule(400, 50_000_000), seed=43)
        zs = z_scores(res, an.pam_rayleigh_exact(8, an.db_to_linear(db)))
        assert min(p.errors for p in res.points) >= 400
        assert np.max(np.abs(zs)) <= 3.0

    def test_zf_no_floor_without_interference(self):
        # Interference-free Rayleigh link: BER keeps falling at high SNR.
        res = run_ber(PamSystem(2), RAYLEIGH, [30.0, 40.0],
                      StopRule(300, 50_000_000), seed=37)
        expected = 0.5 * (1 - np.sqrt(np.array([1e3, 1e4]) / np.array([1001.0, 10001.0])))
        zs = z_scores(res, expected)
        assert np.max(np.abs(zs)) <= 3.0
        assert res.points[1].ber < res.points[0].ber / 5.0


class TestResultContainer:
    def test_ci95_matches_binomial_formula(self):
        res = run_ber(PamSystem(2), AWGN, [4.0], StopRule(200, 1_000_000), seed=38)
        p = res.points[0]
        assert p.ci95 == pytest.approx(
            1.96 * math.sqrt(p.ber * (1 - p.ber) / p.bits), rel=1e-12
        )
        assert p.errors <= p.bits

    def test_upper_bound_flag(self):
        res = run_ber(PamSystem(2), AWGN, [25.0], StopRule(300, 100_000), seed=39)
        p = res.points[0]
        assert p.errors == 0
        assert p.upper_bound_only

    def test_csv_export(self, tmp_path):
        res = run_ber(PamSystem(2), AWGN, [4.0, 6.0], StopRule(100, 500_000), seed=40)
        path = tmp_path / "sim.csv"
        res.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "ebn0_db,bits,errors,ber,ci95,se_block"
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert float(fields[0]) == 4.0
        assert int(fields[1]) == res.points[0].bits
        assert SimResult.from_csv(path).points == res.points

    @pytest.mark.parametrize("errors", [501, -1])
    def test_from_csv_rejects_impossible_counts(self, tmp_path, errors):
        path = tmp_path / "sim.csv"
        path.write_text(f"ebn0_db,bits,errors\n4,500,{errors}\n")
        with pytest.raises(ValueError, match="error count"):
            SimResult.from_csv(path)

    def test_min_frames_extends_run(self):
        quick = run_ber(FbmcSystem(8, FbmcGrid(16, _martin()), frame_symbols=48),
                        RAYLEIGH, [0.0], StopRule(50, 10_000_000, min_frames=1),
                        seed=41)
        long = run_ber(FbmcSystem(8, FbmcGrid(16, _martin()), frame_symbols=48),
                       RAYLEIGH, [0.0], StopRule(50, 10_000_000, min_frames=500),
                       seed=41)
        assert long.points[0].bits > quick.points[0].bits
        assert long.points[0].bits >= 500 * 1536

    def test_z_scores_shape_guard(self):
        res = run_ber(PamSystem(2), AWGN, [4.0], StopRule(100, 500_000), seed=42)
        with pytest.raises(ValueError):
            z_scores(res, [0.1, 0.2])


def _martin():
    return make_martin(4, 16)


class TestEnergyPerBitConvention:
    def test_fbmc_noise_density_matches_constellation(self):
        system = FbmcSystem(8, FbmcGrid(16, _martin()))
        pam = PamConstellation(8)
        gamma = 7.3
        assert system.noise_density(gamma) == pytest.approx(
            pam.symbol_energy / (pam.bits_per_symbol * gamma)
        )

    def test_ofdm_noise_density_includes_cp_penalty(self):
        system = OfdmSystem(64, 16, 2)
        gamma = 5.0
        base = OfdmSystem(64, 16, 0).noise_density(gamma)
        assert system.noise_density(gamma) == pytest.approx(base * 18.0 / 16.0)

    @pytest.mark.parametrize("gamma", [0.0, math.nan, -1.0])
    def test_ofdm_noise_density_rejects_non_positive_snr(self, gamma):
        with pytest.raises(ValueError, match="gamma_b must be positive"):
            OfdmSystem(64, 16, 2).noise_density(gamma)
