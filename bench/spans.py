"""Spans recorded at the package's module boundaries, kept in memory.

The benchmark wraps the public functions that one fbmcber module calls
in another, in the namespace of the caller (``simulate`` imports
``fbmc_synthesize`` by name, so the wrapper replaces
``fbmcber.simulate.fbmc_synthesize``).  Each call becomes a span with a
name, a layer, its parent span and a start and end time; a layer's self
time is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "PATCHES", "SELF_TIME_METRICS", "traced",
           "self_times", "layer_metrics"]

# Per-layer self-time metrics; together they partition trace.wall_s.  The
# filters, interference and enumeration spans are leaves, so their total
# time is their self time.
SELF_TIME_METRICS = {
    "cli.self_s": "cli",
    "filters.design_s": "filters",
    "interference.build_set_s": "interference",
    "enumeration.reduce_s": "enumeration",
    "analytic.self_s": "analytic",
    "modem.self_s": "modem",
    "simulate.self_s": "simulate",
}


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; the package's own worker
    threads run below the innermost wrapped call and are not seen."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def call(self, name, layer, fn, args=(), kwargs=None, attrs=None):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, layer, parent, self._clock(), attrs=attrs or {})
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self._stack.pop()
            span.end = self._clock()

    def wrap(self, fn, name, layer, describe=None):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe else None
            return self.call(name, layer, fn, args, kwargs, attrs)
        return traced_call


def _offsets(eps, order, scales, thetas, weights, kind, *args, **kwargs):
    return {"kind": kind, "offsets": float(order) ** len(eps) * len(scales)}


def _symbols(symbols, *args, **kwargs):
    return {"symbols": int(getattr(symbols, "size", 0))}


# (module, attribute path in it, span name, layer, describe)
PATCHES = [
    ("fbmcber.cli", "make_martin", "make_martin", "filters", None),
    ("fbmcber.cli", "make_egf", "make_egf", "filters", None),
    ("fbmcber.cli", "make_rect", "make_rect", "filters", None),
    ("fbmcber.cli", "load_taps", "load_taps", "filters", None),
    ("fbmcber.cli", "build_set", "build_set", "interference", None),
    ("fbmcber.cli", "truncate", "truncate", "interference", None),
    ("fbmcber.cli", "run_ber", "run_ber", "simulate", None),
    ("fbmcber.cli", "z_scores", "z_scores", "simulate", None),
    ("fbmcber.analytic", "fbmc_awgn_exact", "fbmc_exact", "analytic", None),
    ("fbmcber.analytic", "fbmc_rayleigh_exact", "fbmc_exact", "analytic", None),
    ("fbmcber.analytic", "fbmc_awgn_approx", "fbmc_approx", "analytic", None),
    ("fbmcber.analytic", "fbmc_rayleigh_approx", "fbmc_approx", "analytic", None),
    ("fbmcber.analytic", "pam_awgn_exact", "closed_form", "analytic", None),
    ("fbmcber.analytic", "pam_rayleigh_exact", "closed_form", "analytic", None),
    ("fbmcber.analytic", "pam_awgn_approx", "closed_form", "analytic", None),
    ("fbmcber.analytic", "pam_rayleigh_approx", "closed_form", "analytic", None),
    ("fbmcber.analytic", "ofdm_awgn", "closed_form", "analytic", None),
    ("fbmcber.analytic", "ofdm_rayleigh", "closed_form", "analytic", None),
    ("fbmcber.enumeration", "reduce_offsets", "reduce_offsets", "enumeration",
     _offsets),
    ("fbmcber.simulate", "fbmc_synthesize", "synthesize", "modem", _symbols),
    ("fbmcber.simulate", "fbmc_analyze_frame", "analyze", "modem", None),
    ("fbmcber.simulate", "PulseBank", "pulse_bank", "modem", None),
    ("fbmcber.simulate", "pam_map", "map", "modem", None),
    ("fbmcber.simulate", "qam_map", "map", "modem", None),
    ("fbmcber.simulate", "pam_demap", "demap", "modem", None),
    ("fbmcber.simulate", "qam_demap", "demap", "modem", None),
    ("fbmcber.simulate", "FbmcSystem.simulate_frames", "fbmc_frames",
     "simulate", None),
    ("fbmcber.simulate", "OfdmSystem.simulate_frames", "ofdm_frames",
     "simulate", None),
    ("fbmcber.simulate", "PamSystem.simulate_frames", "pam_frames",
     "simulate", None),
]


@contextlib.contextmanager
def traced(tracer: Tracer, patches=PATCHES):
    """Install the wrappers for the duration of the block, then restore."""
    restore = []
    try:
        for module_name, path, name, layer, describe in patches:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            restore.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, layer, describe))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one traced round (times in seconds).

    The SELF_TIME_METRICS entries partition ``trace.wall_s``, the summed
    duration of the root (``cli``) spans.
    """
    selfs = self_times(spans)

    def dur(layer, *names):
        return sum(s.duration for s in spans
                   if s.layer == layer and (not names or s.name in names))

    def self_of(layer, *names):
        return sum(t for s, t in zip(spans, selfs)
                   if s.layer == layer and (not names or s.name in names))

    def offsets_per_s(kind):
        chosen = [s for s in spans
                  if s.name == "reduce_offsets" and s.attrs["kind"] == kind]
        seconds = sum(s.duration for s in chosen)
        return sum(s.attrs["offsets"] for s in chosen) / seconds if seconds else 0.0

    synth = dur("modem", "synthesize")
    symbols = sum(s.attrs["symbols"] for s in spans if s.name == "synthesize")
    frames = ("fbmc_frames", "ofdm_frames", "pam_frames")
    out = {name: self_of(layer) for name, layer in SELF_TIME_METRICS.items()}
    out.update({
        "enumeration.awgn_offsets_per_s": offsets_per_s("awgn"),
        "enumeration.rayleigh_offsets_per_s": offsets_per_s("rayleigh"),
        "analytic.fbmc_exact_s": dur("analytic", "fbmc_exact"),
        "analytic.closed_form_s": dur("analytic", "closed_form"),
        "modem.synthesize_s": synth,
        "modem.synth_symbols_per_s": symbols / synth if synth else 0.0,
        "modem.analyze_s": dur("modem", "analyze"),
        "modem.map_s": dur("modem", "map"),
        "modem.demap_s": dur("modem", "demap"),
        "simulate.fbmc_frames_s": dur("simulate", "fbmc_frames"),
        "simulate.ofdm_frames_s": dur("simulate", "ofdm_frames"),
        "simulate.pam_frames_s": dur("simulate", "pam_frames"),
        "simulate.frames_self_s": self_of("simulate", *frames),
        "simulate.run_ber_self_s": self_of("simulate", "run_ber"),
        "simulate.batches": float(sum(1 for s in spans if s.name in frames)),
        "trace.wall_s": sum(s.duration for s in spans if s.parent is None),
    })
    return out
