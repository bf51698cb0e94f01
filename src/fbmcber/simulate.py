"""Monte Carlo BER measurement over AWGN and flat Rayleigh channels.

Noise is calibrated so the real decision statistic sees variance N0/2
with gamma_b = E_s / (N_b * N0); OFDM pays the cyclic prefix's SNR
penalty through its noise density.  OFDM runs no modem: the FFT of
white circular noise under unitary transforms is white circular noise
of the same variance, so its QAM symbols get the noise directly.
Rayleigh fading uses genie one-tap zero-forcing, h*s + n -> s + n/h.  As
n is circular, n/h is distributed as n/|h|: the fade phase moves no
count, so only the amplitude |h| = sqrt(Exp(1)) is drawn, one per
symbol (PAM), per subcarrier and OFDM symbol (OFDM) or per frame
(FBMC), each held for `coherence` such units, and every system draws
its noise as n/|h|.  A batch draws, in this order, the bits and the
fades (Rayleigh only) of all its frames, on the calling thread.  It
then runs in blocks of whole frames, small enough to stay near the
cache: a block of any system holds at most _BLOCK_REALS noise reals.
Each block packs its bits into Gray codewords, maps them to float64
reals (PAM levels, OFDM's (in-phase, quadrature) pairs of levels, which
share their subcarrier's fade, or FBMC's synthesized (re, im) samples)
and adds its zero-forced noise.  Every system then demaps its real
decision statistics (FBMC's from the analysis of its samples viewed as
complex) on one path and counts the bit errors as the Hamming distances
between the sent and the decided codewords.  Meanwhile one helper thread
draws the noise of the blocks, each as one standard_normal array, in
block order and one block ahead of the calling thread; the thread is
joined before simulate_frames returns.  The modem runs its
matrix products in parts of fewer multiply-adds than OpenBLAS spreads
over all cores, and takes FFTs instead above M=32, so no idle OpenBLAS
worker spins on the core that the helper draws on.  FBMC counts the
columns 2K .. N-2K only, so it synthesizes, draws noise for and
analyzes, from column 2K on, only the samples those columns read.
Consecutive standard_normal calls continue one stream, so the blocks'
noise is, value for value, one noise draw of the whole batch.  The
generator of batch b of SNR point i is seeded with (master_seed, i, b),
so a given seed and configuration reproduce results bit for bit.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .analytic import _ofdm_args
from .constellations import PamConstellation, QamConstellation
from .interference import FbmcGrid
from .modem import (
    PulseBank,
    _equal_slices,
    fbmc_analyze_frame,
    fbmc_signal_length,
    fbmc_synthesize,
    pam_codewords,
    pam_demap,
    pam_map,
    qam_demap,  # unused, as is qam_map; bench/spans.py wraps both by name
    qam_map,
)

logger = logging.getLogger(__name__)

__all__ = [
    "ChannelModel",
    "StopRule",
    "SimPoint",
    "SimResult",
    "PamSystem",
    "OfdmSystem",
    "FbmcSystem",
    "run_ber",
    "z_scores",
]


@dataclass(frozen=True)
class ChannelModel:
    """kind 'awgn' or 'rayleigh'; coherence = fade blocks per redraw unit.

    Rayleigh coherence counts symbols for PAM, OFDM symbols for OFDM and
    whole frames for FBMC (the pulse support must see a constant gain).
    """

    kind: str
    coherence: int = 1

    def __post_init__(self):
        if self.kind not in ("awgn", "rayleigh"):
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if self.coherence < 1:
            raise ValueError(f"coherence must be >= 1, got {self.coherence}")


@dataclass(frozen=True)
class StopRule:
    """Stop at min_errors bit errors, but never beyond max_bits.

    min_frames additionally demands independent frame replicates; under
    block fading each frame is one fade draw, so high-BER points would
    otherwise stop after a handful of fades and the BER estimate would
    be fade-sampling limited.  target_rel_se, when set, keeps going
    until the frame-replicate standard error drops below that fraction
    of the BER estimate (deep-fade error bursts make equal-error-count
    points much noisier at high SNR).
    """

    min_errors: int = 300
    max_bits: int = 20_000_000
    min_frames: int = 1
    target_rel_se: float | None = None

    def __post_init__(self):
        for name in ("min_errors", "min_frames"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.max_bits > 0:
            raise ValueError(f"max_bits must be > 0, got {self.max_bits}")
        rel = self.target_rel_se
        if rel is not None and not (math.isfinite(rel) and rel > 0):
            raise ValueError(f"target_rel_se must be finite and > 0, got {rel}")


@dataclass
class SimPoint:
    ebn0_db: float
    bits: int
    errors: int
    ber: float
    ci95: float
    se_block: float
    upper_bound_only: bool = False
    # How run_ber reached the point; not in the CSV, so None when read
    # back, and left out of comparisons.  stop is 'min_errors' (error and
    # frame targets met), 'max_bits' or 'target_rel_se'.
    frames: int | None = field(default=None, compare=False)
    batches: int | None = field(default=None, compare=False)
    stop: str | None = field(default=None, compare=False)

    @classmethod
    def from_counts(cls, ebn0_db, bits, errors, se_block=None) -> "SimPoint":
        """Point from its bit and error counts; se_block defaults to the
        binomial standard error (no frame replicates to go on) and must
        otherwise be finite and non-negative."""
        if bits <= 0:
            raise ValueError(f"a simulated point needs bits > 0, got {bits}")
        if not 0 <= errors <= bits:
            raise ValueError(f"error count {errors} outside [0, bits={bits}]")
        if se_block is not None and not (math.isfinite(se_block)
                                         and se_block >= 0.0):
            raise ValueError(f"se_block {se_block} is not a finite SE >= 0")
        ber = errors / bits
        ci95 = 1.96 * math.sqrt(max(ber * (1.0 - ber), 0.0) / bits)
        return cls(ebn0_db=float(ebn0_db), bits=bits, errors=errors, ber=ber,
                   ci95=ci95,
                   se_block=ci95 / 1.96 if se_block is None else se_block,
                   upper_bound_only=(errors == 0))


@dataclass
class SimResult:
    points: list[SimPoint]
    seed: int
    config: dict = field(default_factory=dict)

    @property
    def ebn0_db(self) -> np.ndarray:
        return np.array([p.ebn0_db for p in self.points])

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("ebn0_db,bits,errors,ber,ci95,se_block\n")
            for p in self.points:
                fh.write(
                    f"{p.ebn0_db:.6g},{p.bits},{p.errors},"
                    f"{p.ber:.10e},{p.ci95:.6e},{p.se_block:.17g}\n"
                )

    @classmethod
    def from_csv(cls, path) -> "SimResult":
        """Read back a to_csv file (seed -1: not recorded in the CSV).

        ber and ci95 are recomputed from the integer counts and se_block
        is read at full precision, so z-scores match the original run's.
        A file without the se_block column falls back to the binomial SE.
        A row with errors outside [0, bits] or a non-finite or negative
        se_block raises ValueError.
        """
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError(f"simulation input {path} is empty")
        missing = {"ebn0_db", "bits", "errors"} - set(rows[0])
        if missing:
            raise ValueError(f"simulation input {path} lacks columns "
                             f"{sorted(missing)}")
        points = [
            SimPoint.from_counts(
                float(r["ebn0_db"]), int(r["bits"]), int(r["errors"]),
                float(r["se_block"]) if r.get("se_block") else None,
            )
            for r in rows
        ]
        return cls(points=points, seed=-1)


def _bits(rng, n: int) -> np.ndarray:
    """n uniform bits as int8, eight to a drawn byte."""
    raw = np.frombuffer(rng.bytes(-(-n // 8)), dtype=np.uint8)
    return np.unpackbits(raw, count=n).view(np.int8)


def _fades(rng, channel: ChannelModel, shape) -> np.ndarray | None:
    """Rayleigh fade amplitudes |h| = sqrt(Exp(1)) over the last axis of
    shape, each held for channel.coherence entries; None under AWGN."""
    if channel.kind == "awgn":
        return None
    *lead, units = shape
    draws = -(-units // channel.coherence)
    amp = rng.standard_exponential((*lead, draws))
    np.sqrt(amp, out=amp)
    if channel.coherence == 1:
        return amp
    return np.repeat(amp, channel.coherence, axis=-1)[..., :units]


def _noise_scale(n0: float, fades=None):
    """The standard deviation sigma = sqrt(n0/2) of noise of variance n0/2
    per real dimension or, given fades, the zero-forced sigma / |h| of
    each amplitude."""
    sigma = math.sqrt(n0 / 2.0)
    return sigma if fades is None else sigma / fades


def _noise(rng, scale, shape, out=None) -> np.ndarray:
    """Gaussian float64 noise of shape, one standard_normal draw times
    scale; a last axis of (in-phase, quadrature) or (re, im) pairs makes
    it circular.

    scale is a _noise_scale: a float, or an array with one value per
    index of the leading scale.ndim axes of shape.  out, a float64 array
    of the draw's size, receives the draw.
    """
    z = rng.standard_normal(math.prod(shape), out=out)
    z = z.reshape(*np.shape(scale), -1)
    z *= np.expand_dims(scale, -1)
    return z.reshape(shape)


def _frame_errors(sent: np.ndarray, decided: np.ndarray) -> np.ndarray:
    """Bit errors per frame: the Hamming distances between sent, a
    (frames, ...) block of Gray codewords, and the codewords decided on
    them in the same order."""
    wrong = np.bitwise_xor(sent, decided.reshape(sent.shape))
    wrong = np.bitwise_count(wrong, out=wrong).reshape(len(wrong), -1)
    return wrong.sum(axis=1, dtype=np.intp)


# ---------------------------------------------------------------------------
# Systems
#
# simulate_frames draws a batch's bits and fades whole, then _block_errors
# runs blocks of whole frames: each packs its bits into Gray codewords, maps
# (and runs the FBMC modem), adds its zero-forced noise, demaps its decision
# statistics and counts, while a helper draws the noise one block ahead.

# Noise reals per block (256 KB) of every system: 2**14 and 2**17 were
# slower for PAM and OFDM.  An FBMC frame's noise covers the samples its
# counted columns read, so a block holds 52 frames at M=16 and 2 at M=256
# (N=48, K=4).
_BLOCK_REALS = 2**15


def _frame_slices(frames: int, per_frame: int, budget: int):
    """Equal slices of whole frames, each of at most budget // per_frame
    frames and at least one (a 130-frame M=16 batch ran faster as 65 + 65
    frames than as 85 + 45)."""
    return _equal_slices(frames, max(1, budget // max(per_frame, 1)))


def _block_errors(rng, n0, bits, pam, shape, fades, transmit, statistics,
                  counted):
    """Bit errors per frame of a batch, run in blocks of whole frames.

    bits holds the frames' bits, (frames, frame_bits), and fades (None
    under AWGN) their fades over the leading axes of (frames, *shape).
    Per block this thread packs the bits into pam's codewords; y is
    transmit(codes), the noise-free float64 (frames, *shape) signal, plus
    its noise zero-forced by the block's fades.  The codewords that
    pam decides on the real statistics(y) count against counted(codes),
    in the same order.  One helper thread draws the noise of the blocks
    in block order, each while this thread works on the block before; it
    calls _noise only, which touches rng and the arrays that this thread
    allocates (numpy's generator releases the GIL while it draws).
    """
    # imported on the first batch, not with the package (about 2.5 ms)
    from concurrent.futures import ThreadPoolExecutor

    def draw_ahead(sl):
        # Arrays that the helper allocated would stay in a malloc arena of
        # its own (+1 MiB of peak RSS on the benchmark's bep-top8 workload),
        # so this thread allocates the draw and its scale.
        out = np.empty((sl.stop - sl.start) * math.prod(shape))
        scale = _noise_scale(n0, None if fades is None else fades[sl])
        return pool.submit(_noise, rng, scale, (sl.stop - sl.start, *shape),
                           out)

    frames = len(bits)
    slices = _frame_slices(frames, math.prod(shape), _BLOCK_REALS)
    errors = np.empty(frames, dtype=np.intp)
    # One pool per call: a forked child has no copy of a long-lived pool's
    # idle thread, and its pool would queue the draws for it forever.
    with ThreadPoolExecutor(max_workers=1) as pool:
        ahead = draw_ahead(slices[0]) if slices else None
        for k, sl in enumerate(slices):
            noise = ahead
            if k + 1 < len(slices):
                ahead = draw_ahead(slices[k + 1])
            codes = pam_codewords(bits[sl], pam).reshape(sl.stop - sl.start, -1)
            y = transmit(codes)
            y += noise.result()
            errors[sl] = _frame_errors(counted(codes),
                                       pam_demap(statistics(y), pam))
    return errors


@dataclass(frozen=True)
class PamSystem:
    """Single-carrier PAM; per-symbol fades in Rayleigh mode."""

    order: int
    frame_symbols: int = 4096

    def __post_init__(self):
        if self.frame_symbols < 1:
            raise ValueError(f"frame_symbols must be >= 1, got {self.frame_symbols}")

    @property
    def constellation(self) -> PamConstellation:
        return PamConstellation(self.order)

    @property
    def frame_bits(self) -> int:
        return self.frame_symbols * self.constellation.bits_per_symbol

    def noise_density(self, gamma_b: float) -> float:
        return self.constellation.noise_density(gamma_b)

    def describe(self) -> dict:
        return {"system": "pam", "order": self.order,
                "frame_symbols": self.frame_symbols}

    def simulate_frames(self, channel, gamma_b, frames, rng) -> np.ndarray:
        pam, n = self.constellation, self.frame_symbols
        bits = _bits(rng, frames * self.frame_bits).reshape(frames, -1)
        h = _fades(rng, channel, (frames * n,))
        return _block_errors(
            rng, self.noise_density(gamma_b), bits, pam, (n,),
            None if h is None else h.reshape(frames, n),
            lambda codes: pam_map(codes, pam).reshape(-1, n),
            lambda y: y, lambda codes: codes)


@dataclass(frozen=True)
class OfdmSystem:
    """Cyclic-prefix OFDM with square QAM; per-subcarrier fades.  Each
    subcarrier decides on its QAM symbol plus the noise n/|h|, which is
    what the unitary FFT of the received body gives it."""

    qam_order: int
    subcarriers: int
    n_cp: int
    frame_symbols: int = 32

    def __post_init__(self):
        _ofdm_args(self.qam_order, self.subcarriers, self.n_cp)  # as in ofdm_awgn
        if self.frame_symbols < 1:
            raise ValueError(f"frame_symbols must be >= 1, got {self.frame_symbols}")

    @property
    def constellation(self) -> QamConstellation:
        return QamConstellation(self.qam_order)

    @property
    def frame_bits(self) -> int:
        return (self.subcarriers * self.frame_symbols
                * self.constellation.bits_per_symbol)

    def noise_density(self, gamma_b: float) -> float:
        """N0 of each PAM dimension at the SNR that ofdm_awgn evaluates."""
        pam, cp_factor = _ofdm_args(self.qam_order, self.subcarriers, self.n_cp)
        return pam.noise_density(cp_factor * gamma_b)

    def describe(self) -> dict:
        return {"system": "ofdm", "qam_order": self.qam_order,
                "subcarriers": self.subcarriers, "n_cp": self.n_cp,
                "frame_symbols": self.frame_symbols}

    def simulate_frames(self, channel, gamma_b, frames, rng) -> np.ndarray:
        qam = self.constellation
        m, nsym = self.subcarriers, self.frame_symbols
        bits = _bits(rng, frames * self.frame_bits).reshape(frames, -1)
        h = _fades(rng, channel, (frames, m, nsym))
        return _block_errors(
            rng, self.noise_density(gamma_b), bits, qam.pam, (m, nsym, 2), h,
            lambda codes: pam_map(codes, qam.pam).reshape(-1, m, nsym, 2),
            lambda y: y, lambda codes: codes)


@dataclass(frozen=True)
class FbmcSystem:
    """FBMC/PAM frames; the first and last 2K symbol columns carry data
    but are excluded from counting (truncated edge interference)."""

    order: int
    grid: FbmcGrid
    frame_symbols: int = 48

    def __post_init__(self):
        if self.frame_symbols <= 2 * self.edge_columns:
            raise ValueError(
                f"frame needs more than {2 * self.edge_columns} symbol columns"
            )

    @property
    def edge_columns(self) -> int:
        return 2 * self.grid.filter.overlap

    @cached_property
    def bank(self) -> PulseBank:
        return PulseBank(self.grid)

    @property
    def data_columns(self) -> int:
        return self.frame_symbols - 2 * self.edge_columns

    @property
    def constellation(self) -> PamConstellation:
        return PamConstellation(self.order)

    @property
    def frame_bits(self) -> int:
        return (self.grid.subcarriers * self.data_columns
                * self.constellation.bits_per_symbol)

    def noise_density(self, gamma_b: float) -> float:
        return self.constellation.noise_density(gamma_b)

    def describe(self) -> dict:
        filt = self.grid.filter
        return {"system": "fbmc", "order": self.order,
                "subcarriers": self.grid.subcarriers,
                "filter": filt.label, "overlap": filt.overlap,
                "filter_length": filt.length,
                "frame_symbols": self.frame_symbols}

    def simulate_frames(self, channel, gamma_b, frames, rng) -> np.ndarray:
        pam = self.constellation
        m, nsym = self.grid.subcarriers, self.frame_symbols
        bits = _bits(rng, frames * m * nsym * pam.bits_per_symbol)
        bits = bits.reshape(frames, -1)
        h = _fades(rng, channel, (frames,))
        lo, hi = self.edge_columns, nsym - self.edge_columns
        # The counted columns lo..hi-1 read the samples [start, start +
        # width) only.
        start = lo * self.grid.half_symbol
        width = fbmc_signal_length(self.grid, hi - lo)

        def transmit(codes):
            a = pam_map(codes, pam).reshape(-1, m, nsym)
            x = fbmc_synthesize(a, self.bank, start, start + width)
            return x.view(np.float64)

        return _block_errors(
            rng, self.noise_density(gamma_b), bits, pam, (2 * width,), h,
            transmit, lambda y: fbmc_analyze_frame(
                y.view(complex), self.bank, hi - lo, first=lo),
            lambda codes: codes.reshape(-1, m, nsym)[:, :, lo:hi])


# ---------------------------------------------------------------------------
# Runner

def _batch_frames(batch_idx: int, frame_bits: int) -> int:
    """Deterministic growth schedule, about 2e5 bits doubling to 4e6."""
    target = min(200_000 * 2**batch_idx, 4_000_000)
    return max(1, round(target / frame_bits))


def _replicate_se(frame_errors: list[np.ndarray]):
    """Standard error of the mean errors per frame over the frames of
    the batches' frame_errors, or None below two frames."""
    per_frame = np.concatenate(frame_errors)
    if per_frame.size < 2:
        return None
    return per_frame.std(ddof=1) / math.sqrt(per_frame.size)


def run_ber(system, channel: ChannelModel, ebn0_db, stop: StopRule | None = None,
            seed: int = 0) -> SimResult:
    """Simulate until min_errors bit errors or max_bits bits per point.

    Each batch, and the stop reason of each point, is logged at DEBUG
    level to this module's logger.
    """
    stop = stop or StopRule()
    ebn0_db = np.atleast_1d(np.asarray(ebn0_db, dtype=np.float64))
    points = []
    for idx, db in enumerate(ebn0_db):
        gamma = 10.0 ** (db / 10.0)
        bits = errors = frames_done = 0
        frame_errors = []
        batch_idx = 0
        while True:
            frames = _batch_frames(batch_idx, system.frame_bits)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(idx, batch_idx))
            )
            errs = system.simulate_frames(channel, gamma, frames, rng)
            frame_errors.append(errs)
            bits += frames * system.frame_bits
            errors += int(errs.sum())
            frames_done += frames
            batch_idx += 1
            logger.debug("point %d (%g dB) batch %d: %d frames; %d frames, "
                         "%d errors in %d bits so far", idx, db, batch_idx - 1,
                         frames, frames_done, errors, bits)
            if bits >= stop.max_bits:
                reason = "max_bits"
                break
            if errors < stop.min_errors or frames_done < stop.min_frames:
                continue
            reason = "min_errors"
            if stop.target_rel_se is not None and errors:
                se = _replicate_se(frame_errors)
                if se is None or se > stop.target_rel_se * (errors / frames_done):
                    continue
                reason = "target_rel_se"
            break
        logger.debug("point %d (%g dB) stopped by %s after %d batches",
                     idx, db, reason, batch_idx)
        se = _replicate_se(frame_errors)
        se_block = None if se is None else float(se / system.frame_bits)
        point = SimPoint.from_counts(db, bits, errors, se_block)
        point.frames, point.batches, point.stop = frames_done, batch_idx, reason
        points.append(point)
    config = {
        **system.describe(),
        "channel": channel.kind,
        "coherence": channel.coherence,
        "min_errors": stop.min_errors,
        "max_bits": stop.max_bits,
        "min_frames": stop.min_frames,
        "target_rel_se": stop.target_rel_se,
        "ebn0_db": [float(x) for x in ebn0_db],
    }
    return SimResult(points=points, seed=seed, config=config)


def _se_terms(point: SimPoint, bep: float) -> dict[str, float]:
    """The standard errors z_scores chooses from, binomial first, so a
    tie with the binomial default of se_block names the binomial SE."""
    return {"binomial": point.ci95 / 1.96,
            "implied": math.sqrt(max(bep * (1.0 - bep), 0.0) / point.bits),
            "se_block": point.se_block}


def z_scores(result: SimResult, probs) -> np.ndarray:
    """(BER - BEP) / SE per point.

    SE is the largest of the frame-replicate standard error (valid under
    block fading), the binomial standard error, and the standard error
    implied by the analytic probability, so a zero-error point scores
    against the expected count instead of dividing by zero.
    """
    probs = np.atleast_1d(np.asarray(probs, dtype=np.float64))
    if probs.size != len(result.points):
        raise ValueError(f"{probs.size} probabilities for "
                         f"{len(result.points)} simulated points")
    out = np.empty(probs.size)
    for i, (point, bep) in enumerate(zip(result.points, probs)):
        se = max(*_se_terms(point, bep).values(), 1e-300)
        out[i] = (point.ber - bep) / se
    return out
