"""Quick tests of the benchmark's oracle and its metric and trace bookkeeping.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import bep_oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GAMMAS = 10.0 ** (np.arange(0.0, 61.0, 5.0) / 10.0)


def test_bpsk_closed_forms():
    awgn = bep_oracle.pam_bep(2, GAMMAS, "awgn")
    closed = [0.5 * math.erfc(math.sqrt(g)) for g in GAMMAS]
    assert np.allclose(awgn, closed, rtol=1e-13, atol=0)
    ray = bep_oracle.pam_bep(2, GAMMAS, "rayleigh")
    closed = 0.5 / ((1.0 + GAMMAS) * (1.0 + np.sqrt(GAMMAS / (1.0 + GAMMAS))))
    assert np.allclose(ray, closed, rtol=1e-14, atol=0)


def test_run_time_self_check_passes():
    assert bep_oracle.self_check() <= run.ORACLE_RTOL


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
@pytest.mark.parametrize("order", [4, 8])
def test_grouped_distribution_matches_brute_force(order, channel):
    eps = [0.11, -0.05, 0.05, 0.0200000000001]
    gammas = GAMMAS[:9]
    grouped = bep_oracle.pam_bep(order, gammas, channel, eps)
    brute = bep_oracle.brute_force_bep(order, gammas, channel, eps)
    assert np.allclose(grouped, brute, rtol=1e-13, atol=0)


def test_offset_distribution_is_exact_and_symmetric():
    support, probs = bep_oracle.offset_distribution([0.3, -0.3, 0.01], 8)
    assert support.size == (2 * 7 + 1) * (7 + 1)
    assert math.fsum(probs) == 1.0
    order = np.argsort(support)
    assert np.allclose(support[order], -support[order][::-1], atol=1e-15)
    assert np.array_equal(probs[order], probs[order][::-1])


def test_pam_definition_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    order, gamma = 8, 10.0 ** 6.0
    sigma = 1 / mpmath.sqrt(mpmath.mpf(6 * 3 * gamma) / (order**2 - 1))
    levels = [2 * i - (order - 1) for i in range(order)]
    gray = [i ^ (i >> 1) for i in range(order)]

    cache = {}

    def avg_tail(z):  # E_g[Q(z sqrt(g))], g ~ Exp(1), by quadrature
        if z not in cache:
            cache[z] = mpmath.quad(
                lambda g: mpmath.exp(-g) * mpmath.erfc(z * mpmath.sqrt(g / 2)) / 2,
                [0, 1 / z**2, mpmath.inf])
        return cache[z]

    total = mpmath.mpf(0)
    for i, li in enumerate(levels):
        for j, lj in enumerate(levels):
            dist = bin(gray[i] ^ gray[j]).count("1")
            if dist == 0:
                continue
            lo = (lj - 1 - li) / sigma
            hi = (lj + 1 - li) / sigma
            if lo > 0:
                p = avg_tail(lo) - (avg_tail(hi) if j < order - 1 else 0)
            else:
                p = avg_tail(-hi) - (avg_tail(-lo) if j > 0 else 0)
            total += dist * p
    want = float(total / (order * 3))
    got = bep_oracle.pam_bep(order, gamma, "rayleigh")[0]
    assert abs(got - want) <= 1e-13 * want


def test_ofdm_is_pam_at_prefix_scaled_snr():
    got = bep_oracle.ofdm_bep(64, 16, 2, GAMMAS, "rayleigh")
    assert np.array_equal(got, bep_oracle.pam_bep(8, 16 / 18 * GAMMAS, "rayleigh"))


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_oracle_agrees_with_package_top4(channel):
    from fbmcber import analytic, build_set, make_martin, truncate, FbmcGrid

    table = truncate(build_set(FbmcGrid(16, make_martin(4, 16))), 4)
    fn = {"awgn": analytic.fbmc_awgn_exact,
          "rayleigh": analytic.fbmc_rayleigh_exact}[channel]
    gammas = GAMMAS[:9]
    want = bep_oracle.pam_bep(8, gammas, channel, table.eps)
    assert np.allclose(fn(8, table, gammas), want, rtol=1e-12, atol=0)


def test_expected_bits_follow_the_batch_schedule():
    from fbmcber import ChannelModel, PamSystem, StopRule, run_ber

    op = workloads.Op("x", "simulate", "sim", "pam", "awgn", (6.0,),
                      max_bits=700_000)
    result = run_ber(PamSystem(8), ChannelModel("awgn"), [6.0],
                     StopRule(workloads.NO_ERROR_STOP, op.max_bits), seed=1)
    assert result.points[0].bits == workloads.expected_bits(op) == 1_400_832


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_partition_the_root_spans():
    tracer = spans.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 5.0, 6.0, 10.0]))
    leaf = tracer.wrap(lambda: None, "synthesize", "modem",
                       lambda: {"symbols": 40})
    mid = tracer.wrap(lambda: leaf(), "fbmc_frames", "simulate")
    tracer.call("main", "cli", mid)
    # main [0, 10], fbmc_frames [1, 6], synthesize [2, 5]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert spans.self_times(tracer.spans) == [5.0, 2.0, 3.0]
    m = spans.layer_metrics(tracer.spans)
    assert m["trace.wall_s"] == 10.0
    assert sum(m[name] for name in spans.SELF_TIME_METRICS) == 10.0
    assert m["modem.synth_symbols_per_s"] == 40 / 3.0
    assert m["simulate.frames_self_s"] == 2.0
    assert m["simulate.batches"] == 1.0


def test_traced_run_restores_the_package(tmp_path):
    import fbmcber.cli as cli
    import fbmcber.simulate as simulate

    original = simulate.pam_map, simulate.PamSystem.__dict__["simulate_frames"]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        rc = tracer.call("main", "cli", cli.main, ([
            "simulate", "--system", "pam", "--ebn0", "6", "--max-bits", "1000",
            "--out", str(tmp_path / "pam")],))
    assert rc == 0
    assert (simulate.pam_map, simulate.PamSystem.__dict__["simulate_frames"]) == original
    assert {"main", "run_ber", "pam_frames", "map", "demap"} <= {
        s.name for s in tracer.spans}
    m = spans.layer_metrics(tracer.spans)
    total = sum(m[name] for name in spans.SELF_TIME_METRICS)
    assert math.isclose(total, m["trace.wall_s"], rel_tol=1e-9)


def test_run_metrics_and_roundtrip_fault():
    wl = workloads.build("sim-m16", 3, 1)
    sim_csv = "ebn0_db,bits,errors,ber,ci95\n0,1000,10,1e-2,1e-3\n"

    def round_of(seconds):
        return {op.label: {"seconds": seconds,
                           "csv": sim_csv if op.role == "sim" else None}
                for op in wl.ops}

    # Figures pool the rounds: a slow round counts by its time.
    m = run.run_metrics(wl, [round_of(0.25), round_of(0.75)])
    assert m["wall_s"] == 0.5 * len(wl.ops)
    assert m["fbmc_sim_bits_per_s"] == 1000 / 0.5
    fbmc_beps = [op for op in wl.ops if op.role == "bep" and op.system == "fbmc"]
    assert sum(op.points for op in fbmc_beps) == 22
    assert m["bep_s_per_point"] == 0.5 * len(fbmc_beps) / 22
    same = {"z": ["+0.100", "-1.000"]}
    assert workloads.roundtrip_fault(same, dict(same)) is None
    reason = workloads.roundtrip_fault(same, {"z": ["+0.100", "-9.000"]})
    assert "1 of 2 points" in reason and "se_block" in reason
