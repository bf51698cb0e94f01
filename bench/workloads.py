"""The benchmark's workloads: the CLI calls of one round, and their checks.

A round is a fixed list of operations, each one ``fbmcber.cli.main()``
call.  A run repeats the same round, with the same inputs, until its
time is up; the inputs (SNR points and the simulator seed) come from the
workload seed.  Checks compare each output with the independent oracle
in ``bep_oracle`` and with the first round's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import bep_oracle

__all__ = ["Filter", "Op", "Workload", "WORKLOADS", "build",
           "expected_bits", "check_round"]

# Relative agreement required between a package curve and the oracle.
BEP_RTOL = 1e-12
# |z| limit of the simulation gate.  Looser than the package's 3-sigma
# flag: over about 1100 points of 90 correct runs |z| reached 3.6, and
# where several bits share a fade (OFDM and PAM Rayleigh) z has a
# standard deviation of up to 1.35 instead of 1.
Z_LIMIT = 6.0
# Unreachable error target: every point runs to exactly its bit budget.
NO_ERROR_STOP = 10**15
PAM_ORDER = 8
QAM_ORDER = 64


@dataclass(frozen=True)
class Filter:
    name: str
    alpha: float | None
    m: int
    k: int = 4

    def flags(self) -> list[str]:
        alpha = ["--alpha", f"{self.alpha:g}"] if self.alpha is not None else []
        return ["--filter", self.name, *alpha, "--k", str(self.k),
                "--m", str(self.m)]


# Grids of the analytic overlays in the simulation workloads: AWGN 0-12 dB
# and Rayleigh 0-40 dB as in the paper's figures.  A round covers the whole
# grids, which gives the FBMC overlay enough work for a steady per-point
# time; the FBMC calls each take a part of a grid.
OVERLAY_DB = {"awgn": tuple(float(x) for x in range(0, 13)),
              "rayleigh": tuple(float(x) for x in range(0, 41, 5))}

ROUNDTRIP_DB = (10.0, 20.0)

MARTIN16 = Filter("martin", None, 16)
EGF025_16 = Filter("egf", 0.25, 16)
EGF1_256 = Filter("egf", 1.0, 256)


@dataclass(frozen=True)
class Op:
    """One CLI call of a round.

    role: 'bep' (analytic curve), 'sim' (simulation counted in the
    throughput metrics) or 'roundtrip' (the two compare calls of the CSV
    round trip, kept out of the throughput metrics).
    """

    label: str
    command: str
    role: str
    system: str
    channel: str
    ebn0_db: tuple[float, ...]
    filt: Filter | None = None
    kmax: int = 8
    m: int = 16
    n_cp: int = 2
    seed: int = 0
    max_bits: int = 0
    workers: int = 1
    # compare only: the simulate op it re-runs in-process, or whose CSV
    # it reads back with --sim-csv.
    reruns: str | None = None
    sim_csv_of: str | None = None

    @property
    def grid(self) -> str:
        return ",".join(f"{x:g}" for x in self.ebn0_db)

    def argv(self, out_base: str, csv_of=None) -> list[str]:
        argv = [self.command, "--system", self.system, "--channel", self.channel,
                "--ebn0", self.grid, "--out", out_base]
        if self.system == "fbmc":
            argv += [*self.filt.flags(), "--np", str(PAM_ORDER),
                     "--kmax", str(self.kmax), "--workers", str(self.workers)]
        elif self.system == "ofdm":
            argv += ["--nq", str(QAM_ORDER), "--m", str(self.m),
                     "--ncp", str(self.n_cp)]
        else:
            argv += ["--np", str(PAM_ORDER)]
        if self.command in ("simulate", "compare"):
            argv += ["--seed", str(self.seed), "--min-errors", str(NO_ERROR_STOP),
                     "--max-bits", str(self.max_bits)]
        if self.sim_csv_of is not None:
            argv += ["--sim-csv", csv_of]
        return argv

    @property
    def points(self) -> int:
        return len(self.ebn0_db)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # Filters, with the largest kmax of the workload, built by set-up.
    setup: list[tuple[Filter, int]] = field(default_factory=list)


def _pick(rng, choices, count):
    return tuple(sorted(float(x) for x in rng.choice(choices, count, replace=False)))


def _sim(system, channel, index, pts, seed, **kw) -> Op:
    """A fixed-work simulate call of one system."""
    return Op(f"sim-{system}-{channel}-{index}", "simulate", "sim", system,
              channel, tuple(float(x) for x in pts), seed=seed, **kw)


def _closed_forms(grids, m=16, n_cp=2):
    """PAM and OFDM analytic curves: (system, channel) -> SNR grid."""
    return [Op(f"bep-{system}-{channel}", "bep", "bep", system, channel, pts,
               m=m, n_cp=n_cp)
            for (system, channel), pts in grids.items()]


def _slices(grid, count):
    """A grid cut into `count` consecutive parts."""
    return [tuple(float(x) for x in part)
            for part in np.array_split(np.asarray(grid), count)]


def _bep_top8(seed: int, workers: int) -> Workload:
    """Top-8 exact FBMC points (Martin, EGF 0.25), each followed by a
    one-point AWGN simulation of each system, and the PAM/OFDM
    baselines."""
    rng = np.random.default_rng(seed)
    points = {
        ("martin", "awgn"): _pick(rng, np.arange(0, 13), 1),
        ("martin", "rayleigh"): _pick(rng, np.arange(0, 31, 5), 1),
        ("egf025", "awgn"): _pick(rng, np.arange(0, 13), 1),
        # The Rayleigh floor of EGF 0.25.
        ("egf025", "rayleigh"): _pick(rng, [35, 40], 1),
    }
    filters = {"martin": MARTIN16, "egf025": EGF025_16}
    sim_pts = rng.permutation(np.arange(0, 13))[:4]
    ops = []
    for i, ((tag, channel), pts) in enumerate(points.items()):
        ops.append(Op(f"bep-{tag}-{channel}", "bep", "bep", "fbmc", channel,
                      pts, filt=filters[tag], workers=workers))
        pt = sim_pts[i:i + 1]
        ops += [_sim("fbmc", "awgn", i, pt, seed, filt=MARTIN16, max_bits=500_000),
                _sim("ofdm", "awgn", i, pt, seed, max_bits=5_000_000),
                _sim("pam", "awgn", i, pt, seed, max_bits=5_000_000)]
    paper_ray = tuple(float(x) for x in range(0, 41, 2))
    ops += _closed_forms({("pam", "awgn"): OVERLAY_DB["awgn"],
                          ("pam", "rayleigh"): paper_ray,
                          ("ofdm", "awgn"): OVERLAY_DB["awgn"],
                          ("ofdm", "rayleigh"): paper_ray})
    return Workload("bep-top8", ops, [(MARTIN16, 8), (EGF025_16, 8)])


def _sim_m16(seed: int, workers: int) -> Workload:
    """8-PAM FBMC (Martin), 64-QAM OFDM and 8-PAM at M=16, AWGN and
    Rayleigh, fixed work, one point per call; the FBMC analytic overlays
    (kmax=6) over the paper's grids, cut into parts between the
    simulations; the Rayleigh FBMC CSV round trip; and the PAM/OFDM
    overlays."""
    rng = np.random.default_rng(seed)
    pts = {"awgn": _pick(rng, np.arange(0, 13), 3),
           "rayleigh": _pick(rng, np.arange(0, 41, 2), 3)}
    # The CSV round trip runs on fixed inputs, so that its known failure
    # is the same operation in every run, whatever the seed.
    trip = dict(filt=MARTIN16, kmax=6, seed=1, max_bits=500_000, workers=workers)
    trip_ops = [
        Op("trip-sim-fbmc-rayleigh", "simulate", "roundtrip", "fbmc", "rayleigh",
           ROUNDTRIP_DB, **trip),
        Op("trip-compare-fbmc-rayleigh", "compare", "roundtrip", "fbmc", "rayleigh",
           ROUNDTRIP_DB, reruns="trip-sim-fbmc-rayleigh", **trip),
        Op("trip-compare-csv-fbmc-rayleigh", "compare", "roundtrip", "fbmc",
           "rayleigh", ROUNDTRIP_DB, sim_csv_of="trip-sim-fbmc-rayleigh", **trip),
    ]
    ops = []
    for channel in ("awgn", "rayleigh"):
        overlays = _slices(OVERLAY_DB[channel], 3)
        for i, point in enumerate(pts[channel]):
            pt = (point,)
            ops += [_sim("fbmc", channel, i, pt, seed, filt=MARTIN16, kmax=6,
                         max_bits=1_000_000),
                    _sim("ofdm", channel, i, pt, seed, max_bits=2_500_000),
                    _sim("pam", channel, i, pt, seed, max_bits=2_500_000)]
            ops.append(Op(f"bep-fbmc-{channel}-{i}", "bep", "bep", "fbmc", channel,
                          overlays[i], filt=MARTIN16, kmax=6, workers=workers))
        if channel == "awgn":
            ops += trip_ops
    ops += _closed_forms({(system, channel): OVERLAY_DB[channel]
                          for system in ("ofdm", "pam")
                          for channel in ("awgn", "rayleigh")})
    return Workload("sim-m16", ops, [(MARTIN16, 6)])


def _sim_m256(seed: int, workers: int) -> Workload:
    """Wide-band FBMC (EGF 1.0, M=256, K=4) over AWGN, 64-QAM OFDM at
    M=256 with CP 32 over Rayleigh, 8-PAM over AWGN, one point per call,
    and the FBMC analytic overlays (kmax=6) over the paper's grids, cut
    into parts between the simulations; then the PAM/OFDM overlays."""
    rng = np.random.default_rng(seed)
    fbmc_pts = _pick(rng, np.arange(0, 13), 2)
    pam_pts = rng.permutation(np.arange(0, 13))[:4]
    ofdm_pts = _pick(rng, np.arange(0, 41, 2), 4)
    overlays = (_slices(OVERLAY_DB["awgn"], 2)
                + _slices(OVERLAY_DB["rayleigh"], 2))
    ops = []
    for i, overlay in enumerate(overlays):
        channel = "awgn" if i < 2 else "rayleigh"
        ops += [_sim("ofdm", "rayleigh", i, ofdm_pts[i:i + 1], seed, m=256, n_cp=32,
                     max_bits=2_000_000),
                _sim("pam", "awgn", i, pam_pts[i:i + 1], seed, max_bits=2_500_000)]
        ops.append(Op(f"bep-fbmc-{channel}-{i % 2}", "bep", "bep", "fbmc", channel,
                      overlay, filt=EGF1_256, kmax=6, workers=workers))
        if i % 2 == 0:
            # Two batches (24 frames, 589,824 bits) per point.
            ops.append(_sim("fbmc", "awgn", i // 2, fbmc_pts[i // 2:i // 2 + 1],
                            seed, filt=EGF1_256, max_bits=500_000))
    ops += _closed_forms({("ofdm", "rayleigh"): OVERLAY_DB["rayleigh"],
                          ("pam", "awgn"): OVERLAY_DB["awgn"]}, m=256, n_cp=32)
    return Workload("sim-m256", ops, [(EGF1_256, 6)])


WORKLOADS = {"bep-top8": _bep_top8, "sim-m16": _sim_m16, "sim-m256": _sim_m256}


def build(name: str, seed: int, workers: int) -> Workload:
    return WORKLOADS[name](seed, workers)


# ---------------------------------------------------------------------------
# Expected values

def frame_bits(op: Op) -> int:
    """Bits counted per simulated frame at the simulator's default frame
    sizes (FBMC: 48 columns minus 2K edge columns on each side; OFDM: 32
    symbols; PAM: 4096 symbols)."""
    if op.system == "fbmc":
        return op.filt.m * (48 - 4 * op.filt.k) * int(math.log2(PAM_ORDER))
    if op.system == "ofdm":
        return op.m * 32 * int(math.log2(QAM_ORDER))
    return 4096 * int(math.log2(PAM_ORDER))


def expected_bits(op: Op) -> int:
    """Bits of one point under the batch schedule (about 2e5 bits per
    batch, doubling up to 4e6) when only the bit budget stops it."""
    per_frame = frame_bits(op)
    bits = batch = 0
    while bits < op.max_bits:
        target = min(200_000 * 2**batch, 4_000_000)
        bits += max(1, round(target / per_frame)) * per_frame
        batch += 1
    return bits


def oracle_bep(op: Op, eps_of, kmax=None) -> np.ndarray:
    """Oracle BEP at the op's points; eps_of(filter, kmax) gives |eps|."""
    gamma = 10.0 ** (np.asarray(op.ebn0_db) / 10.0)
    if op.system == "fbmc":
        return bep_oracle.pam_bep(PAM_ORDER, gamma, op.channel,
                                  eps_of(op.filt, op.kmax if kmax is None else kmax))
    if op.system == "ofdm":
        return bep_oracle.ofdm_bep(QAM_ORDER, op.m, op.n_cp, gamma, op.channel)
    return bep_oracle.pam_bep(PAM_ORDER, gamma, op.channel)


# ---------------------------------------------------------------------------
# Checks

def parse_csv(text: str) -> dict[str, list[str]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _check_grid(op, table, problems):
    got = [float(x) for x in table["ebn0_db"]]
    if got != list(op.ebn0_db):
        problems.append(f"{op.label}: SNR grid {got} != {list(op.ebn0_db)}")
        return False
    return True


def check_bep(op, table, expected, problems):
    if not _check_grid(op, table, problems):
        return
    got = np.array([float(x) for x in table["bep"]])
    err = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)
    if not np.all(err <= BEP_RTOL):
        i = int(np.argmax(err))
        problems.append(f"{op.label}: BEP {got[i]:.15e} vs oracle {expected[i]:.15e} "
                        f"at {op.ebn0_db[i]:g} dB (rel {err[i]:.2e} > {BEP_RTOL:g})")


def sim_z(table, expected, implied_block=None) -> np.ndarray:
    """z of each simulated point against the oracle.

    SE is the largest of the binomial SE of the measured BER, the SE
    implied by the oracle (under block fading, the oracle's frame-to-frame
    SE) and se_block where the CSV has that column.
    """
    bits = np.array([int(x) for x in table["bits"]], dtype=np.float64)
    errors = np.array([int(x) for x in table["errors"]], dtype=np.float64)
    ber = errors / bits
    se = np.maximum(np.sqrt(ber * (1.0 - ber) / bits),
                    np.sqrt(expected * (1.0 - expected) / bits))
    if implied_block is not None:
        se = np.maximum(se, implied_block)
    if "se_block" in table:
        se = np.maximum(se, [float(x) for x in table["se_block"]])
    return (ber - expected) / np.maximum(se, 1e-300)


def check_sim(op, table, eps_of, problems):
    if not _check_grid(op, table, problems):
        return None
    want = expected_bits(op)
    bits = [int(x) for x in table["bits"]]
    if any(b != want for b in bits):
        problems.append(f"{op.label}: bits per point {bits}, expected {want}")
    ber = [float(x) for x in table["ber"]]
    errors = [int(x) for x in table["errors"]]
    if any(abs(r - e / b) > 1e-9 * max(r, 1e-12) for r, e, b in zip(ber, errors, bits)):
        problems.append(f"{op.label}: BER column disagrees with errors/bits")
    implied_block = None
    if op.system == "fbmc" and op.channel == "rayleigh":
        # One fade per frame: the errors of a frame rise and fall together.
        gamma = 10.0 ** (np.asarray(op.ebn0_db) / 10.0)
        implied_block = bep_oracle.block_fading_se(
            PAM_ORDER, gamma, eps_of(op.filt, 8), frame_bits(op),
            want // frame_bits(op))
    z = sim_z(table, oracle_bep(op, eps_of, kmax=8), implied_block)
    if not np.all(np.abs(z) <= Z_LIMIT):
        i = int(np.argmax(np.abs(z)))
        problems.append(f"{op.label}: z = {z[i]:+.2f} against the oracle at "
                        f"{op.ebn0_db[i]:g} dB (limit {Z_LIMIT:g})")
    return z


def roundtrip_fault(inproc, from_csv) -> str | None:
    """Why ``compare --sim-csv`` disagrees with in-process ``compare``."""
    z_in, z_csv = inproc["z"], from_csv["z"]
    if z_in == z_csv:
        return None
    diffs = [(a, b) for a, b in zip(z_in, z_csv) if a != b]
    worst = max(diffs, key=lambda d: abs(float(d[0]) - float(d[1])))
    return (f"compare --sim-csv z differs at {len(diffs)} of {len(z_in)} points "
            f"(z {worst[0]} in-process, {worst[1]} from the CSV): the simulate "
            f"CSV has no se_block column and compare rebuilds it as ci95/1.96")


def check_round(workload: Workload, outputs: dict, eps_of,
                z_seen=None) -> tuple[list, dict]:
    """Check one round's outputs.

    outputs maps op label -> (exit code, CSV text or None).  Returns the
    problems (wrong results) and the failed operations with their cause;
    a failed operation's own results are not counted as problems.  The
    z of each simulated point is stored in z_seen[label] when given.
    """
    problems: list[str] = []
    failed: dict[str, str] = {}
    tables = {}
    for op in workload.ops:
        rc, text = outputs[op.label]
        allowed = (0, 4) if op.command == "compare" else (0,)
        if rc not in allowed or text is None:
            if op.sim_csv_of is not None:
                failed[op.label] = f"compare --sim-csv exited with code {rc}"
            else:
                problems.append(f"{op.label}: exit code {rc}")
            continue
        tables[op.label] = parse_csv(text)

    rerun_by = {op.reruns: op.label for op in workload.ops if op.reruns}
    for op in workload.ops:
        table = tables.get(op.label)
        if table is None:
            continue
        if op.command == "bep" or op.reruns is not None:
            check_bep(op, table, oracle_bep(op, eps_of), problems)
        elif op.command == "simulate":
            partner = tables.get(rerun_by.get(op.label))
            if partner is not None and any(table[c] != partner[c]
                                           for c in ("bits", "errors")):
                problems.append(f"{op.label}: in-process compare simulated "
                                f"other counts with the same seed")
            z = check_sim(op, table, eps_of, problems)
            if z_seen is not None and z is not None:
                z_seen[op.label] = [round(float(v), 3) for v in z]
        else:
            inproc = tables.get(rerun_by.get(op.sim_csv_of))
            reason = None if inproc is None else roundtrip_fault(inproc, table)
            if reason is not None:
                failed[op.label] = reason
    return problems, failed
