import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_eps
from oracles import bit_errors, codeword_bits, gray_codes, pam_levels, pulse
from fbmcber import modem, simulate
from fbmcber.constellations import PamConstellation, QamConstellation
from fbmcber.errors import RangeError, ShapeError
from fbmcber.filters import make_egf, make_martin
from fbmcber.interference import FbmcGrid
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
from fbmcber.simulate import ChannelModel, OfdmSystem


@pytest.fixture(scope="module")
def martin_bank(martin_grid):
    return PulseBank(martin_grid)


class TestGrayMapping:
    def test_bpsk_convention(self):
        pam = PamConstellation(2)
        assert np.array_equal(pam_map(pam_codewords(np.array([0, 1]), pam), pam),
                              [-1.0, 1.0])

    def test_pam_round_trip(self):
        rng = np.random.default_rng(5)
        pam = PamConstellation(8)
        bits = rng.integers(0, 2, 30000)
        codes = pam_codewords(bits, pam)
        assert np.array_equal(codeword_bits(pam_demap(pam_map(codes, pam), pam), 3),
                              bits)

    def test_qam_round_trip(self):
        rng = np.random.default_rng(6)
        qam = QamConstellation(64)
        bits = rng.integers(0, 2, 6 * 5000)
        codes = pam_codewords(bits, qam.pam)
        assert np.array_equal(codeword_bits(qam_demap(qam_map(codes, qam), qam), 3),
                              bits)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_qam_is_pam_of_interleaved_parts(self, order):
        """qam_map and qam_demap give, bit for bit, what separate in-phase
        and quadrature PAM calls give, also on exact decision ties."""
        qam = QamConstellation(order)
        pam, half = qam.pam, qam.pam.bits_per_symbol
        bits = np.random.default_rng(order).integers(0, 2, 50 * qam.bits_per_symbol)
        groups = bits.reshape(-1, qam.bits_per_symbol)
        symbols = np.empty(groups.shape[0], dtype=np.complex128)
        symbols.real = pam_map(pam_codewords(groups[:, :half], pam), pam)
        symbols.imag = pam_map(pam_codewords(groups[:, half:], pam), pam)
        got = qam_map(pam_codewords(bits, pam), qam)
        assert got.dtype == np.complex128
        assert np.array_equal(got.view(np.uint64), symbols.view(np.uint64))
        # half-integer steps from past the outer levels: every even integer
        # is a tie between two levels or the clip edge
        axis = np.arange(-pam.order - 1.5, pam.order + 2.0, 0.5)
        values = (axis[:, None] + 1j * axis[None, :]).ravel()
        expected = np.empty((values.size, 2), dtype=np.uint8)
        expected[:, 0] = pam_demap(values.real, pam)
        expected[:, 1] = pam_demap(values.imag, pam)
        demapped = qam_demap(values, qam)
        assert demapped.dtype == np.uint8
        assert np.array_equal(demapped, expected.ravel())

    def test_qam_bit_count_validation(self):
        with pytest.raises(ShapeError):
            qam_map(pam_codewords(np.zeros(6, dtype=int), PamConstellation(4)),
                    QamConstellation(16))

    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_adjacent_levels_differ_in_one_bit(self, order):
        pam = PamConstellation(order)
        bits = codeword_bits(pam_demap(pam_levels(order), pam),
                             pam.bits_per_symbol).reshape(order, -1)
        for row_a, row_b in zip(bits[:-1], bits[1:]):
            assert np.sum(row_a != row_b) == 1

    def test_bit_count_validation(self):
        with pytest.raises(ShapeError):
            pam_codewords(np.zeros(7, dtype=int), PamConstellation(8))

    def test_slicer_clips_outliers(self):
        pam = PamConstellation(4)
        assert np.array_equal(
            pam_demap(np.array([-100.0, 100.0]), pam),
            np.concatenate([pam_demap(np.array([-3.0]), pam),
                            pam_demap(np.array([3.0]), pam)]),
        )

    @pytest.mark.parametrize("order", [2, 8, 256, 1024])
    def test_kernels_match_index_reference(self, order):
        """pam_map and pam_demap equal, bit for bit, a reference that
        builds codewords and level indices as intp, on any bit dtype and
        on exact ties, clipped outliers and infinities."""
        pam = PamConstellation(order)
        nb = pam.bits_per_symbol
        rng = np.random.default_rng(order)
        bits = rng.integers(0, 2, 3000 * nb)
        codes = (bits.reshape(-1, nb) << np.arange(nb)).sum(axis=1)
        levels = pam_levels(order)[np.argsort(gray_codes(order))][codes]
        for given in (bits, bits.astype(np.int8), bits.astype(bool)):
            assert np.array_equal(pam_map(pam_codewords(given, pam), pam), levels)
        values = np.concatenate([
            np.arange(-order - 1.5, order + 2.0, 0.5),
            rng.uniform(-order - 2, order + 2, 3000), [-np.inf, np.inf]])
        idx = np.clip(np.rint((values + order - 1) / 2.0), 0, order - 1)
        table = (gray_codes(order)[:, None] >> np.arange(nb)) & 1
        expected = table[idx.astype(np.intp)].ravel()
        got = pam_demap(values, pam)
        assert got.dtype == np.min_scalar_type(order - 1)
        assert np.array_equal(codeword_bits(got, nb), expected)

    def test_map_rejects_codewords_outside_the_constellation(self):
        pam = PamConstellation(8)
        for bad in ([0, 8], [-1, 2], np.array([255], np.uint8), [0.0, 1.0]):
            with pytest.raises(RangeError):
                pam_map(bad, pam)
        with pytest.raises(RangeError):
            qam_map(np.array([0, 4]), QamConstellation(16))
        assert pam_map(np.array([], np.uint8), pam).size == 0

    def test_demap_non_finite(self):
        pam, qam = PamConstellation(8), QamConstellation(16)
        assert np.array_equal(pam_demap([-np.inf, np.inf], pam),
                              pam_demap(pam_levels(8)[[0, -1]], pam))
        for bad in ([0.0, np.nan], [np.nan]):
            with pytest.raises(ValueError, match="NaN"):
                pam_demap(bad, pam)
        with pytest.raises(ValueError, match="NaN"):
            qam_demap(np.array([1.0 + 1j, complex(1.0, np.nan)]), qam)
        assert pam_demap(np.array([]), pam).size == 0


@st.composite
def decisions(draw):
    """A PAM order 2-1024 or a QAM order 4-1024, a (frames, symbols) block
    of random codewords, and values to decide on: levels, exact ties
    between two levels, clipped outliers past the end levels, +-inf and
    uniform values."""
    qam = draw(st.booleans())
    if qam:
        const = QamConstellation(4 ** draw(st.integers(1, 5)))
        pam = const.pam
    else:
        const = pam = PamConstellation(2 ** draw(st.integers(1, 10)))
    frames, width = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    reals = frames * width * (2 if qam else 1)
    sent = rng.integers(0, pam.order, reals)
    n = pam.order
    kinds = [pam_levels(n)[rng.integers(0, n, reals)],
             2.0 * rng.integers(1 - n // 2, n // 2 + 1, reals),
             rng.choice([-1.0, 1.0], reals) * rng.uniform(n, 1e6 * n, reals),
             rng.choice([-np.inf, np.inf], reals),
             rng.uniform(-n - 2.0, n + 2.0, reals)]
    values = np.choose(rng.integers(0, len(kinds), reals), kinds)
    return const, sent.reshape(frames, -1), values


@settings(derandomize=True, max_examples=300, deadline=None)
@given(decisions())
def test_frame_errors_count_the_bits_of_the_decided_codewords(case):
    """_frame_errors of the decided codewords equals the bit-level count of
    the bits shifted out of them, and the decided codeword is the Gray
    codeword of the nearest level (ties to the even level index, clipped
    to the end levels)."""
    const, sent, values = case
    pam = getattr(const, "pam", const)
    if isinstance(const, QamConstellation):
        decided = qam_demap(values.view(np.complex128), const)
        levels = qam_map(sent, const).view(np.float64)
    else:
        decided = pam_demap(values, const)
        levels = pam_map(sent, const)
    index = np.clip(np.rint((values + pam.order - 1) / 2.0), 0, pam.order - 1)
    assert np.array_equal(decided, gray_codes(pam.order)[index.astype(np.intp)])
    codes = sent.astype(decided.dtype)
    assert np.array_equal(simulate._frame_errors(codes, decided),
                          bit_errors(sent, decided, pam.bits_per_symbol))
    assert np.array_equal(pam_demap(levels, pam), codes.ravel())


class TestFbmcChain:
    def test_single_pulse(self, martin_grid, martin_bank):
        a = np.zeros((16, 1))
        a[0, 0] = 1.0
        signal = fbmc_synthesize(a[None], martin_bank)[0]
        assert np.max(np.abs(signal - martin_grid.filter.coeffs)) < 1e-15
        proj = fbmc_analyze_frame(signal[None], martin_bank, 1)[0]
        assert proj.real[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self, martin_bank):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(16, 10))
        b = rng.normal(size=(16, 10))
        lhs = fbmc_synthesize((a + b)[None], martin_bank)[0]
        rhs = (fbmc_synthesize(a[None], martin_bank)[0]
               + fbmc_synthesize(b[None], martin_bank)[0])
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_signal_length(self, martin_grid, martin_bank):
        a = np.zeros((16, 9))
        assert fbmc_synthesize(a[None], martin_bank)[0].size == \
            fbmc_signal_length(martin_grid, 9) == 8 * 8 + 65

    def test_odd_offset_slot_is_orthogonal(self, martin_bank):
        a = np.zeros((16, 5))
        a[2, 2] = 1.0
        proj = fbmc_analyze_frame(fbmc_synthesize(a[None], martin_bank),
                                  martin_bank, 5)[0]
        # (m + n) offset odd relative to the transmitted slot
        assert abs(proj.real[3, 2]) < 1e-12
        assert abs(proj.real[2, 3]) < 1e-12

    def test_reconstruction_matches_interference_table(self, martin_table,
                                                       martin_bank):
        """analyze(synthesize(one-hot)) = (-1)^(dm*n0) eps[dm mod M, dn]."""
        m_sub = 16
        for m1, n1, m0, n0 in [(0, 4, 0, 2), (1, 3, 0, 2), (3, 1, 1, 3),
                               (14, 2, 15, 5), (5, 0, 2, 2)]:
            n_cols = 8
            a = np.zeros((m_sub, n_cols))
            a[m1, n1] = 1.0
            signal = fbmc_synthesize(a[None], martin_bank)
            got = fbmc_analyze_frame(signal, martin_bank, n_cols)[0].real[m0, n0]
            dm, dn = (m1 - m0) % m_sub, n1 - n0
            expected = 1.0 if (dm, dn) == (0, 0) else table_eps(martin_table, dm, dn)
            expected *= (-1.0) ** ((m1 - m0) * n0)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_full_frame_against_table_prediction(self, martin_table, martin_bank):
        rng = np.random.default_rng(8)
        pam = PamConstellation(8)
        n_cols = 12
        bits = rng.integers(0, 2, 16 * n_cols * 3)
        a = pam_map(pam_codewords(bits, pam), pam).reshape(16, n_cols)
        signal = fbmc_synthesize(a[None], martin_bank)
        proj = fbmc_analyze_frame(signal, martin_bank, n_cols)[0]
        for m0, n0 in [(0, 5), (7, 6), (15, 4)]:
            predicted = 0.0
            for m in range(16):
                for n in range(n_cols):
                    dm, dn = (m - m0) % 16, n - n0
                    gain = 1.0 if (dm, dn) == (0, 0) else table_eps(martin_table, dm, dn)
                    predicted += a[m, n] * (-1.0) ** ((m - m0) * n0) * gain
            assert proj[m0, n0].real == pytest.approx(predicted, abs=1e-10)

    def test_energy_accounting(self, martin_bank):
        rng = np.random.default_rng(9)
        pam = PamConstellation(8)
        frames, n_cols = 60, 24
        bits = rng.integers(0, 2, frames * 16 * n_cols * 3)
        a = pam_map(pam_codewords(bits, pam), pam).reshape(frames, 16, n_cols)
        signal = fbmc_synthesize(a, martin_bank)
        energy = float(np.sum(np.abs(signal) ** 2))
        slots = frames * 16 * n_cols
        assert energy / slots == pytest.approx(pam.symbol_energy, rel=0.02)

    def test_shape_errors(self, martin_bank):
        with pytest.raises(ShapeError):
            fbmc_synthesize(np.zeros((1, 8, 4)), martin_bank)
        with pytest.raises(ShapeError):
            fbmc_synthesize(np.zeros((1, 16, 4), dtype=complex), martin_bank)

    def test_only_batches(self, martin_bank):
        """A single frame, (M, N) symbols or an (L,) signal, is a ShapeError;
        so is any other number of dimensions."""
        signal = fbmc_synthesize(np.zeros((1, 16, 4)), martin_bank)
        for symbols in (np.zeros((16, 4)), np.zeros(16), np.zeros((1, 1, 16, 4))):
            with pytest.raises(ShapeError):
                fbmc_synthesize(symbols, martin_bank)
        for x in (signal[0], signal[None], np.complex128(0.0)):
            with pytest.raises(ShapeError):
                fbmc_analyze_frame(x, martin_bank, 4)

    def test_range_errors(self, martin_bank):
        signal = fbmc_synthesize(np.zeros((1, 16, 4)), martin_bank)
        with pytest.raises(RangeError):
            fbmc_analyze_frame(signal, martin_bank, 5)
        with pytest.raises(RangeError):
            fbmc_analyze_frame(signal[:, :-1], martin_bank, 4)
        with pytest.raises(RangeError):
            fbmc_analyze_frame(signal, martin_bank, -1)
        with pytest.raises(RangeError):
            fbmc_analyze_frame(signal, martin_bank, 0)
        with pytest.raises(RangeError):
            fbmc_analyze_frame(signal, martin_bank, 4, first=-1)
        for empty in (np.zeros((1, 16, 0)), np.zeros((3, 16, 0))):
            with pytest.raises(RangeError):
                fbmc_synthesize(empty, martin_bank)
        # a sample range past either end of the signal, or reversed
        for start, stop in ((-1, 4), (5, 4), (0, signal.shape[1] + 1)):
            with pytest.raises(RangeError):
                fbmc_synthesize(np.zeros((1, 16, 4)), martin_bank, start, stop)


class TestFbmcOracles:
    """The modem against separate code paths, in the matrix form (M=16) and
    the FFT form (M=64) of its products."""

    @pytest.fixture(scope="class", params=[
        (64, 4 * 64 + 1), (64, 4 * 64), (64, 4 * 64 - 1),
        (16, 4 * 16 + 1), (16, 4 * 16), (16, 4 * 16 - 1), (16, None),
    ], ids=["KM+1", "KM", "KM-1", "m16-KM+1", "m16-KM", "m16-KM-1", "martin16"])
    def oracle_grid(self, request):
        m_sub, length = request.param
        if length is None:
            return FbmcGrid(m_sub, make_martin(4, m_sub))
        return FbmcGrid(m_sub, make_egf(1.0, 4, m_sub, length=length))

    @pytest.fixture(scope="class")
    def oracle_bank(self, oracle_grid):
        return PulseBank(oracle_grid)

    def test_synthesis_matches_pulse_superposition(self, oracle_grid, oracle_bank):
        """Also with one and two columns, where a parity has none or one."""
        m_sub = oracle_grid.subcarriers
        assert oracle_bank.fft == (m_sub == 64)
        rng = np.random.default_rng(21)
        for n_cols in (1, 2, 6):
            a = rng.normal(size=(m_sub, n_cols))
            signal = fbmc_synthesize(a[None], oracle_bank)[0]
            expected = np.zeros(signal.size, dtype=complex)
            for m in range(m_sub):
                for n in range(n_cols):
                    p = pulse(oracle_grid, m, n)
                    expected[p.start : p.start + p.samples.size] += a[m, n] * p.samples
            assert np.max(np.abs(signal - expected)) < 1e-12

    def test_analysis_is_adjoint_of_synthesis(self, oracle_grid, oracle_bank):
        rng = np.random.default_rng(22)
        m_sub, n_cols = oracle_grid.subcarriers, 7
        a = rng.normal(size=(m_sub, n_cols))
        length = fbmc_signal_length(oracle_grid, n_cols)
        x = rng.normal(size=length) + 1j * rng.normal(size=length)
        # synthesis is real-linear, so its adjoint is Re<x|S a>
        lhs = np.vdot(fbmc_synthesize(a[None], oracle_bank)[0], x).real
        rhs = np.sum(a * fbmc_analyze_frame(x[None], oracle_bank, n_cols)[0])
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    def test_analysis_matches_pulse_projections(self, oracle_grid, oracle_bank):
        """Also with one and two columns, where a parity has none or one."""
        rng = np.random.default_rng(24)
        m_sub = oracle_grid.subcarriers
        for n_cols in (1, 2, 6):
            length = fbmc_signal_length(oracle_grid, n_cols)
            x = rng.normal(size=length) + 1j * rng.normal(size=length)
            stats = fbmc_analyze_frame(x[None], oracle_bank, n_cols)[0]
            assert stats.dtype == np.float64 and stats.shape == (m_sub, n_cols)
            expected = np.empty((m_sub, n_cols))
            for m in range(m_sub):
                for n in range(n_cols):
                    p = pulse(oracle_grid, m, n)
                    window = x[p.start : p.start + p.samples.size]
                    expected[m, n] = np.vdot(p.samples, window).real
            assert np.max(np.abs(stats - expected)) < 1e-12

    def test_phase_fold(self, oracle_grid, oracle_bank):
        """p[m, n+2] is -p[m, n] one symbol (M samples) later, and p[m, n]
        is signs[n] * taps[j] * period[n % 2][m, j mod M]: the two
        root-of-unity matrices, the tap chunks and the column signs give
        every pulse.  The matrix form folds the chunks into its synthesis
        matrices: row block c of _synthesis[r] is period[r] *
        chunks[C-1-c]."""
        n_cols, m_sub = 8, oracle_grid.subcarriers
        signs = oracle_bank.signs(n_cols)
        assert np.array_equal(signs, [1, 1, -1, -1, 1, 1, -1, -1])
        taps = oracle_grid.filter.coeffs
        period = np.ascontiguousarray(oracle_bank.period).view(np.complex128)
        assert period.shape == (2, m_sub, m_sub)
        dft = np.exp(2j * np.pi / m_sub * np.outer(np.arange(m_sub), np.arange(m_sub)))
        twisted = oracle_bank.twist[:, :, None] * dft
        assert np.max(np.abs(period - twisted)) < 1e-12
        chunks = oracle_bank.chunks
        n_chunks = -(-taps.size // m_sub)
        assert chunks.shape == (n_chunks, 2 * m_sub)
        assert np.array_equal(chunks[:, ::2], chunks[:, 1::2])
        assert np.array_equal(chunks[:, ::2].ravel()[: taps.size], taps)
        assert not chunks[:, ::2].ravel()[taps.size :].any()
        j = np.arange(taps.size)
        for m in (0, 1, 2, 3, m_sub // 2 + 5, m_sub - 1):
            for n in range(n_cols):
                p = pulse(oracle_grid, m, n).samples
                assert np.max(np.abs(pulse(oracle_grid, m, n + 2).samples + p)) < 1e-12
                fold = signs[n] * taps * period[n % 2, m, j % m_sub]
                assert np.max(np.abs(fold - p)) < 1e-12
        synthesis = oracle_bank._synthesis
        assert synthesis.shape == (2, n_chunks * m_sub, 2 * m_sub)
        for r in (0, 1):
            for c in range(n_chunks):
                block = synthesis[r, c * m_sub : (c + 1) * m_sub]
                expected = oracle_bank.period[r] * chunks[n_chunks - 1 - c]
                assert np.array_equal(block, expected)

    def test_matrix_and_fft_forms_agree(self, oracle_grid, oracle_bank,
                                        monkeypatch):
        """One bank in either form, switched by fft alone: the whole
        signal, a sample range and the statistics."""
        rng = np.random.default_rng(26)
        m_sub, n_cols = oracle_grid.subcarriers, 9
        length = fbmc_signal_length(oracle_grid, n_cols)
        a = rng.normal(size=(3, m_sub, n_cols))
        x = rng.normal(size=(3, length)) + 1j * rng.normal(size=(3, length))
        start, stop = m_sub // 2 + 3, length - m_sub - 1
        forms = []
        for fft in (False, True):
            monkeypatch.setattr(oracle_bank, "fft", fft)
            forms.append((fbmc_synthesize(a, oracle_bank),
                          fbmc_synthesize(a, oracle_bank, start, stop),
                          fbmc_analyze_frame(x, oracle_bank, n_cols)))
        for matrix, fft in zip(*forms):
            assert matrix.shape == fft.shape
            assert np.max(np.abs(matrix - fft)) < 1e-13

    def test_blocks_are_chunk_weighted_column_sums(self, oracle_grid,
                                                   oracle_bank, monkeypatch):
        """bank.blocks in either form: block j of a run is sum_q chunks[q]
        * (cols[:, j+C-1-q] @ period[r]), also where its window reaches
        into the zero columns at either end; no frames give no blocks."""
        rng = np.random.default_rng(27)
        m_sub = oracle_grid.subcarriers
        n_chunks, width = oracle_bank.chunks.shape
        cols = np.zeros((3, 6 + 2 * (n_chunks - 1), m_sub))
        cols[:, n_chunks - 1 : n_chunks + 5] = rng.normal(size=(3, 6, m_sub))
        n_blocks = cols.shape[1] - n_chunks + 1
        for fft in (False, True):
            monkeypatch.setattr(oracle_bank, "fft", fft)
            for r in (0, 1):
                run = oracle_bank.blocks(cols, r)
                assert run.shape == (3, n_blocks, width)
                expected = np.zeros(run.shape)
                for j in range(n_blocks):
                    for q in range(n_chunks):
                        column = cols[:, j + n_chunks - 1 - q]
                        expected[:, j] += (oracle_bank.chunks[q]
                                           * (column @ oracle_bank.period[r]))
                assert np.max(np.abs(run - expected)) < 1e-13
                empty = oracle_bank.blocks(cols[:0], r)
                assert empty.shape == (0, n_blocks, width)

    def test_batch_equals_single_frames(self, martin_bank):
        rng = np.random.default_rng(23)
        a = rng.normal(size=(3, 16, 9))
        signal = fbmc_synthesize(a, martin_bank)
        proj = fbmc_analyze_frame(signal, martin_bank, 9)
        for b in range(3):
            single = fbmc_synthesize(a[b : b + 1], martin_bank)
            assert np.array_equal(signal[b : b + 1], single)
            assert np.array_equal(proj[b : b + 1],
                                  fbmc_analyze_frame(single, martin_bank, 9))

    def test_empty_batch(self, martin_grid, martin_bank):
        signal = fbmc_synthesize(np.zeros((0, 16, 9)), martin_bank)
        assert signal.shape == (0, fbmc_signal_length(martin_grid, 9))
        assert fbmc_analyze_frame(signal, martin_bank, 9).shape == (0, 16, 9)

    def test_batch_equals_its_single_frames(self, martin_bank):
        frames, n_cols = 1000, 9
        # each parity's products run in several parts
        for matrix in (martin_bank._synthesis[1], martin_bank._adjoint[1]):
            assert frames * (n_cols // 2) * matrix.size > 2 * modem._PART_MACS
        rng = np.random.default_rng(25)
        a = rng.normal(size=(frames, 16, n_cols))
        signal = fbmc_synthesize(a, martin_bank)
        x = signal + rng.normal(size=signal.shape) + 1j * rng.normal(size=signal.shape)
        stats = fbmc_analyze_frame(x, martin_bank, n_cols)
        worst = 0.0
        for b in range(frames):
            assert np.array_equal(signal[b : b + 1],
                                  fbmc_synthesize(a[b : b + 1], martin_bank))
            single = fbmc_analyze_frame(x[b : b + 1], martin_bank, n_cols)
            worst = max(worst, np.max(np.abs(stats[b : b + 1] - single)))
        assert worst < 1e-14


@pytest.mark.parametrize("m_sub", range(2, 34, 2))
def test_product_parts_stay_below_the_threading_threshold(monkeypatch, m_sub):
    """Every M of the matrix form, at L_p = KM-1, KM and KM+1: each part of
    its products has fewer than the 1e6 multiply-adds at which OpenBLAS
    wakes its worker threads, in a batch whose whole products would cross
    that twice over."""
    assert PulseBank(FbmcGrid(34, make_egf(1.0, 4, 34))).fft
    parts, matmul = [], np.matmul

    def spy(rows, matrix, *args, **kwargs):
        parts.append((rows.shape[0] * rows.shape[1] * matrix.shape[1],
                      matrix.shape))
        return matmul(rows, matrix, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    n_cols = 48
    for length in (4 * m_sub - 1, 4 * m_sub, 4 * m_sub + 1):
        bank = PulseBank(FbmcGrid(m_sub, make_egf(1.0, 4, m_sub, length=length)))
        assert not bank.fft
        # analysis, the smaller product: (2M, M) per parity column
        frames = -(-2 * 10**6 // (n_cols // 2 * 2 * m_sub * m_sub))
        a = np.ones((frames, m_sub, n_cols))
        parts.clear()
        fbmc_analyze_frame(fbmc_synthesize(a, bank), bank, n_cols)
        analysis = [shape for _, shape in parts if shape == (2 * m_sub, m_sub)]
        assert len(analysis) >= 2 * 2 and len(parts) >= 4 * 2
        assert max(macs for macs, _ in parts) < 1e6


def test_analysis_peaks_below_six_signals(martin_bank):
    """fbmc_analyze_frame of 37 Martin M=16 frames of 48 columns holds at
    most 6x the signal's bytes at once: each parity's columns are read
    through one window view, never copied whole (2*L_p floats each)."""
    x = fbmc_synthesize(np.ones((37, 16, 48)), martin_bank)
    fbmc_analyze_frame(x, martin_bank, 48)
    tracemalloc.start()
    try:
        fbmc_analyze_frame(x, martin_bank, 48)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * x.nbytes


class TestFbmcWindow:
    """The counted columns 2K .. N-2K of a frame through the samples they
    read, [K*M, K*M + W) with W = fbmc_signal_length(grid, N - 4K): the
    window FbmcSystem synthesizes, draws noise for and analyzes."""

    @pytest.fixture(scope="class", params=[
        (16, lambda: make_martin(4, 16)),
        (16, lambda: make_martin(3, 16)),
        (64, lambda: make_egf(1.0, 4, 64, length=4 * 64 - 1)),
        (64, lambda: make_egf(1.0, 4, 64, length=4 * 64)),
        (64, lambda: make_egf(1.0, 4, 64, length=4 * 64 + 1)),
    ], ids=["martin-K4", "martin-K3", "egf-KM-1", "egf-KM", "egf-KM+1"])
    def bank(self, request):
        m_sub, design = request.param
        return PulseBank(FbmcGrid(m_sub, design()))

    @staticmethod
    def frame(bank, frames=5, seed=31):
        """Symbols, full signal plus noise, the counted columns and the
        samples they read."""
        grid, k = bank.grid, bank.grid.filter.overlap
        n_cols = 4 * k + 6
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(frames, grid.subcarriers, n_cols))
        signal = fbmc_synthesize(a, bank)
        x = signal + rng.normal(size=signal.shape) + 1j * rng.normal(size=signal.shape)
        start = 2 * k * grid.half_symbol
        window = slice(start, start + fbmc_signal_length(grid, n_cols - 4 * k))
        return a, x, slice(2 * k, n_cols - 2 * k), window

    def test_synthesis_range_is_the_sliced_signal(self, bank):
        # M=16 takes the matrix-product form, M=64 the FFT form
        assert bank.fft == (bank.grid.subcarriers == 64)
        a, _, _, window = self.frame(bank)
        full = fbmc_synthesize(a, bank)
        length = full.shape[1]
        for lo, hi in ((window.start, window.stop), (0, window.stop),
                       (window.start, length), (1, 2), (7, 7), (0, length)):
            part = fbmc_synthesize(a, bank, lo, hi)
            assert part.shape == (a.shape[0], hi - lo)
            assert np.array_equal(part, full[:, lo:hi])

    def test_window_analysis_is_the_counted_columns(self, bank):
        """Column 2K + n has column n's slot phase times (-1)**K."""
        a, x, counted, window = self.frame(bank)
        n_cols = a.shape[2]
        stats = fbmc_analyze_frame(x[:, window], bank, counted.stop - counted.start)
        if bank.grid.filter.overlap % 2:
            stats = -stats
        assert np.array_equal(stats, fbmc_analyze_frame(x, bank, n_cols)[:, :, counted])

    @pytest.mark.parametrize("m_sub", [16, 64])
    @pytest.mark.parametrize("overlap", [3, 4])
    def test_analysis_from_any_first_column(self, m_sub, overlap):
        """The window of samples from first*M/2, analyzed from column
        first, gives columns first .. first+n-1 of the whole frame's
        analysis bit for bit, in the matrix form (M=16) and the FFT form
        (M=64)."""
        bank = PulseBank(FbmcGrid(m_sub, make_egf(1.0, overlap, m_sub)))
        assert bank.fft == (m_sub == 64)
        n, n_cols = 5, 15
        rng = np.random.default_rng(33)
        x = fbmc_synthesize(rng.normal(size=(3, m_sub, n_cols)), bank)
        x += rng.normal(size=x.shape) + 1j * rng.normal(size=x.shape)
        whole = fbmc_analyze_frame(x, bank, n_cols)
        for first in (0, 1, 2, 3, 5, 8):
            start = first * bank.grid.half_symbol
            window = x[:, start : start + fbmc_signal_length(bank.grid, n)]
            assert np.array_equal(fbmc_analyze_frame(window, bank, n, first),
                                  whole[:, :, first : first + n])

    def test_noise_outside_the_window_moves_no_counted_statistic(self, bank):
        a, x, counted, window = self.frame(bank)
        n_cols = a.shape[2]
        other = np.random.default_rng(32).normal(size=(2,) + x.shape) * 1e3
        y = other[0] + 1j * other[1]
        y[:, window] = x[:, window]
        assert np.array_equal(fbmc_analyze_frame(x, bank, n_cols)[:, :, counted],
                              fbmc_analyze_frame(y, bank, n_cols)[:, :, counted])


class TestOfdmChain:
    """OfdmSystem's channel (QAM symbols plus noise zero-forced per
    subcarrier) flips no bit at an SNR where the noise is negligible."""

    @staticmethod
    def frame_errors(n_cp, channel, seed):
        rng = np.random.default_rng(seed)
        return OfdmSystem(64, 16, n_cp).simulate_frames(
            ChannelModel(channel), 1e12, 4, rng)

    def test_round_trip_no_cp(self):
        assert not self.frame_errors(0, "awgn", 10).any()

    def test_round_trip_with_cp(self):
        assert not self.frame_errors(2, "awgn", 11).any()

    def test_noiseless_end_to_end_ber_zero(self):
        for n_cp in (0, 2):
            assert not self.frame_errors(n_cp, "rayleigh", 13).any()
