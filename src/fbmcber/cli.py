"""Command-line front end.

Subcommands: filter-info (taps, set size, SIR, magnitude decay), bep
(analytic curves), simulate (Monte Carlo BER) and compare (analytic vs
simulated with z-scores).  Output is CSV plus a JSON run manifest; all
SNR inputs are gamma_b in dB.

Exit codes: 0 success, 2 usage error, 3 enumeration budget exceeded,
4 comparison failure (|z| > 3 somewhere).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__, analytic, enumeration
from .errors import EnumerationBudgetExceeded, FbmcBerError, GridError
from .filters import (
    _read_taps,
    load_taps,
    make_egf,
    make_martin,
    make_rect,
    save_taps,
)
from .interference import (
    FbmcGrid,
    build_set,
    export_table_csv,
    ordered_magnitudes,
    set_size,
    sir,
    truncate,
)
from .simulate import (
    ChannelModel,
    FbmcSystem,
    OfdmSystem,
    PamSystem,
    SimResult,
    StopRule,
    _se_terms,
    run_ber,
    z_scores,
)

USAGE_ERROR = 2
BUDGET_ERROR = 3
COMPARE_ERROR = 4

# Most points an SNR range may give; a larger one is a usage error.
_MAX_GRID_POINTS = 10**6
# Largest max_k |p[k] - p[L-1-k]| / max|p| of taps that the interference
# table, SIR and BEP accept; built-in filters are within about 1e-15.
_ASYMMETRY_TOL = 1e-12


def _parse_grid(text: str) -> np.ndarray:
    """SNR grid: 'start:stop:step' (inclusive) or comma-separated values."""
    ranged = ":" in text
    values = [float(x) for x in text.split(":" if ranged else ",")]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"bad grid {text!r}: values must be finite")
    if not ranged:
        return np.array(values)
    if len(values) == 2:
        values.append(1.0)
    if len(values) != 3 or values[2] <= 0 or values[1] < values[0]:
        raise ValueError(f"bad grid {text!r}")
    start, stop, step = values
    # Floor with a small slack: 0:11:3 stops at 9, 0:1:0.1 keeps 1.
    steps = (stop - start) / step + 1e-9
    if not steps < _MAX_GRID_POINTS:
        raise ValueError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} "
                         f"points")
    return start + step * np.arange(math.floor(steps) + 1)


def _with_config(argv: list[str], args: argparse.Namespace) -> list[str]:
    """argv with each line of the --config file spliced in as --key=value
    right after the subcommand, so that argparse checks the values and any
    flag on the command line, coming later, wins.

    key=value lines; '#' comments; keys use flag names with dashes or _.
    """
    tokens = []
    with open(args.config) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest not in vars(args) or dest in ("help", "config", "command",
                                                  "fn"):
                raise ValueError(f"unknown config key {key!r}")
            tokens.append(f"--{dest.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _build_filter(args):
    """The prototype filter of args and its manifest fields: none for a
    designed filter; for a taps file, "taps_file" with the path, the
    energy of the taps as written and the scale that load_taps applied."""
    m, k = args.m, args.k
    if args.filter == "martin":
        return make_martin(k, m), {}
    if args.filter == "egf":
        if args.alpha is None:
            raise ValueError("--alpha required for the EGF family")
        return make_egf(args.alpha, k, m), {}
    if args.filter == "rect":
        return make_rect(m, k), {}
    if args.filter.startswith("file:"):
        path = args.filter[5:]
        filt = load_taps(path, overlap=k)
        taps = _read_taps(path)
        energy = float(np.dot(taps, taps))
        return filt, {"taps_file": {"path": path, "energy": energy,
                                    "scale": 1.0 / math.sqrt(energy)}}
    raise ValueError(f"unknown filter {args.filter!r}")


def _require_symmetric(filt):
    """Raise ValueError unless filt's taps are even-symmetric: the table
    keeps only the m + n even elements, which is all of them for
    even-symmetric taps only."""
    taps = filt.coeffs
    asymmetry = np.max(np.abs(taps - taps[::-1])) / np.max(np.abs(taps))
    if asymmetry > _ASYMMETRY_TOL:
        raise ValueError(
            f"taps are not even-symmetric: max |p[k] - p[L-1-k]| = "
            f"{asymmetry:.3g} max|p| > {_ASYMMETRY_TOL:g} max|p|; the "
            f"interference table, SIR and BEP hold for even-symmetric taps "
            f"only (simulate accepts any taps)")


def _fbmc_filter(args, stages):
    """The prototype filter of an FBMC command, designed once per command,
    and its manifest fields; None and {} for other systems."""
    if args.system != "fbmc":
        return None, {}
    return _timed(stages, "filter_design", _build_filter, args)


def _timed(stages: dict, stage: str, fn, *fn_args, **kwargs):
    """fn(*fn_args, **kwargs), adding its wall time to stages[stage]."""
    start = time.perf_counter()
    try:
        return fn(*fn_args, **kwargs)
    finally:
        stages[stage] = stages.get(stage, 0.0) + time.perf_counter() - start


def _write_manifest(path, payload: dict):
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    payload["versions"] = {"fbmcber": __version__, "numpy": np.__version__,
                           "scipy": scipy.__version__,
                           "python": platform.python_version(), "blas": blas}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def _out_paths(args, suffix: str):
    base = args.out or f"fbmcber-{suffix}"
    return base + ".csv", base + ".manifest.json"


# ---------------------------------------------------------------------------
# Subcommands

def cmd_filter_info(args) -> int:
    if args.decay < 0:
        raise ValueError(f"--decay must be >= 0, got {args.decay}")
    stages = {}
    filt, source = _timed(stages, "filter_design", _build_filter, args)
    _require_symmetric(filt)
    table = _timed(stages, "build_set", build_set, FbmcGrid(args.m, filt))
    mags = ordered_magnitudes(table)
    print(f"filter          {filt.label}")
    print(f"taps            {filt.length} (K={filt.overlap}, M={args.m})")
    print(f"pulse energy    {filt.energy():.15f}")
    if source:
        taps_file = source["taps_file"]
        print(f"file energy     {taps_file['energy']:.15f}"
              f"  (taps scaled by {taps_file['scale']:.15g})")
    print(f"|E| (formula)   {set_size(args.m, filt.length)}")
    print(f"|E| (table)     {len(table)}"
          f"  numerically null: {int(table.null_mask().sum())}")
    print(f"SIR             {sir(table):.2f} dB")
    print("largest |eps|:")
    for rank, mag in enumerate(mags[: args.decay], start=1):
        print(f"  {rank:3d}  {mag:.6e}")
    if args.taps_out:
        save_taps(filt, args.taps_out)
    if args.out:
        export_table_csv(table, args.out + ".csv")
        _write_manifest(args.out + ".manifest.json", {
            "command": "filter-info", "filter": filt.label, "m": args.m,
            "k": filt.overlap, "length": filt.length, **source,
            "sir_db": sir(table), "set_size": len(table), "stage_s": stages,
        })
        print(f"table written to {args.out}.csv")
    return 0


def _analytic_curve(args, ebn0_db, filt, stages):
    """The analytic curve and its manifest fields: model, filter, kmax,
    n_cp and the offset and support counts of an FBMC curve; the table
    build and the BEP evaluation are timed into stages."""
    gammas = analytic.db_to_linear(ebn0_db)
    what = (args.system, args.channel, args.form)
    fields = {"model": "-".join(what), "filter": "", "kmax": None,
              "n_cp": None, "offsets_per_point": None, "support_points": None}
    if args.system == "ofdm" and args.form != "exact":
        raise ValueError("OFDM curves implement the exact form only")
    # pam_ or fbmc_<channel>_<form>, or ofdm_<channel>, read off the module
    # at each call so that a wrapper set on it (a trace) is what runs.
    fn = getattr(analytic, "_".join(what[:2] if args.system == "ofdm" else what))
    if args.system == "pam":
        probs = _timed(stages, "bep", fn, args.np, gammas)
    elif args.system == "ofdm":
        probs = _timed(stages, "bep", fn, args.nq, args.m, args.ncp, gammas)
        fields["n_cp"] = args.ncp
    else:
        _require_symmetric(filt)
        full = _timed(stages, "build_set", build_set, FbmcGrid(args.m, filt))
        table = truncate(full, args.kmax)
        probs = _timed(stages, "bep", fn, args.np, table, gammas,
                       budget=args.budget)
        fields.update(filter=filt.label, kmax=args.kmax,
                      offsets_per_point=args.np ** len(table),
                      support_points=enumeration.support_size(table.eps, args.np))
        # Milliseconds to 3 significant digits, never in exponent form.
        bep_ms = float(f"{stages['bep'] * 1e3:.3g}")
        print(f"# enumerated {fields['offsets_per_point']} offsets/point as "
              f"{fields['support_points']} support points over {len(table)} "
              f"elements in {bep_ms:g} ms total", file=sys.stderr)
    return probs, fields


def cmd_bep(args) -> int:
    ebn0_db = _parse_grid(args.ebn0)
    stages = {}
    filt, source = _fbmc_filter(args, stages)
    probs, fields = _analytic_curve(args, ebn0_db, filt, stages)
    csv_path, manifest_path = _out_paths(args, "bep")
    kmax = "" if fields["kmax"] is None else fields["kmax"]
    with open(csv_path, "w") as fh:
        fh.write("ebn0_db,bep,model,filter,kmax\n")
        for db, bep in zip(ebn0_db, probs):
            fh.write(f"{db:.6g},{bep:.14e},{fields['model']},"
                     f"{fields['filter']},{kmax}\n")
    _write_manifest(manifest_path, {
        "command": "bep", **fields, **source,
        "ebn0_db": list(map(float, ebn0_db)), "stage_s": stages,
    })
    print(f"wrote {csv_path}")
    return 0


def _simulated(args, ebn0_db, filt, stages) -> SimResult:
    """run_ber of the system, channel and stop rule of args, timed into
    stages as 'simulate'."""
    if args.system == "pam":
        system = PamSystem(args.np)
    elif args.system == "ofdm":
        system = OfdmSystem(args.nq, args.m, args.ncp)
    else:
        system = FbmcSystem(args.np, FbmcGrid(args.m, filt),
                            frame_symbols=args.frame_symbols)
    channel = ChannelModel(args.channel, args.coherence)
    stop = StopRule(args.min_errors, args.max_bits, args.min_frames,
                    args.target_rel_se)
    return _timed(stages, "simulate", run_ber, system, channel, ebn0_db, stop,
                  seed=args.seed)


def cmd_simulate(args) -> int:
    ebn0_db = _parse_grid(args.ebn0)
    stages = {}
    filt, source = _fbmc_filter(args, stages)
    result = _simulated(args, ebn0_db, filt, stages)
    csv_path, manifest_path = _out_paths(args, "sim")
    result.to_csv(csv_path)
    _write_manifest(manifest_path, {
        "command": "simulate", "seed": result.seed, "config": result.config,
        **source, "stage_s": stages,
        "points": [dataclasses.asdict(p) for p in result.points],
    })
    print(f"wrote {csv_path}")
    return 0


def cmd_compare(args) -> int:
    ebn0_db = _parse_grid(args.ebn0)
    stages = {}
    filt, source = _fbmc_filter(args, stages)
    probs, fields = _analytic_curve(args, ebn0_db, filt, stages)

    if args.sim_csv:
        result = SimResult.from_csv(args.sim_csv)
        sim_db = result.ebn0_db
        if sim_db.size != ebn0_db.size or not np.allclose(sim_db, ebn0_db):
            raise GridError(
                f"simulated grid {sim_db.tolist()} != analytic {ebn0_db.tolist()}"
            )
    else:
        result = _simulated(args, ebn0_db, filt, stages)

    zs = z_scores(result, probs)
    csv_path, manifest_path = _out_paths(args, "compare")
    with open(csv_path, "w") as fh:
        fh.write("ebn0_db,bep,ber,bits,errors,ci95,z,flag\n")
        for point, bep, z in zip(result.points, probs, zs):
            flag = "OK" if abs(z) <= 3.0 else "DIVERGENT"
            fh.write(f"{point.ebn0_db:.6g},{bep:.14e},{point.ber:.10e},"
                     f"{point.bits},{point.errors},{point.ci95:.6e},"
                     f"{z:+.3f},{flag}\n")
    worst = float(np.max(np.abs(zs)))
    _write_manifest(manifest_path, {
        "command": "compare", "model": fields["model"], "seed": result.seed,
        "config": result.config, **source, "worst_abs_z": worst,
        "stage_s": stages,
        "points": [dataclasses.asdict(p) for p in result.points],
    })
    print(f"wrote {csv_path} (worst |z| = {worst:.2f})")
    failing = [i for i, z in enumerate(zs) if not abs(z) <= 3.0]  # NaN fails
    if failing:
        print(f"comparison FAILED at {len(failing)} of {len(zs)} points "
              "beyond 3 sigma:", file=sys.stderr)
        for i in failing:
            point = result.points[i]
            terms = _se_terms(point, probs[i])
            source = max(terms, key=terms.get)
            print(f"  {point.ebn0_db:g} dB: z = {zs[i]:+.2f}, "
                  f"SE {terms[source]:.3e} from {source}", file=sys.stderr)
        return COMPARE_ERROR
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_filter_flags(p):
    p.add_argument("--filter", default="martin",
                   help="martin | egf | rect | file:PATH (default martin)")
    p.add_argument("--alpha", type=float, default=None,
                   help="EGF spreading factor in [0.25, 2]")
    p.add_argument("--k", type=int, default=4, help="overlap factor (default 4)")
    p.add_argument("--m", type=int, default=16,
                   help="subcarrier count (default 16)")


def _add_model_flags(p):
    p.add_argument("--system", choices=("pam", "ofdm", "fbmc"), default="fbmc")
    p.add_argument("--channel", choices=("awgn", "rayleigh"), default="awgn")
    p.add_argument("--form", choices=("approx", "exact"), default="exact")
    p.add_argument("--np", type=int, default=8, help="PAM order (default 8)")
    p.add_argument("--nq", type=int, default=64, help="QAM order (default 64)")
    p.add_argument("--ncp", type=int, default=2,
                   help="OFDM cyclic prefix length (default 2 = M/8)")
    p.add_argument("--kmax", type=int, default=8,
                   help="kept interference elements (default 8)")
    p.add_argument("--budget", type=int, default=enumeration.DEFAULT_BUDGET,
                   help="max offset support points of an FBMC curve "
                        "(default 2**24)")
    p.add_argument("--ebn0", default="0:12:1",
                   help="gamma_b grid in dB: start:stop:step or v1,v2,...")
    # Ignored (the offset reduction runs in one thread); it still parses so
    # that existing command lines, the benchmark's among them, keep working.
    p.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)


def _add_sim_flags(p):
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--min-errors", type=int, default=300)
    p.add_argument("--max-bits", type=int, default=20_000_000)
    p.add_argument("--min-frames", type=int, default=1,
                   help="minimum frame replicates (fade draws under Rayleigh)")
    p.add_argument("--target-rel-se", type=float, default=None,
                   help="keep simulating until the blocked SE is below this "
                        "fraction of the BER estimate")
    p.add_argument("--coherence", type=int, default=1,
                   help="fade redraw granularity (Rayleigh only)")
    p.add_argument("--frame-symbols", type=int, default=48,
                   help="FBMC symbol columns per frame")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmcber",
        description="Closed-form BEP and Monte Carlo BER for FBMC/OFDM/PAM links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, *add_flags):
        p = sub.add_parser(name, help=summary)
        for add in (_add_filter_flags, *add_flags):
            add(p)
        p.add_argument("--out", default=None, help="CSV/manifest basename")
        p.add_argument("--config", default=None, help="key=value config file")
        p.set_defaults(fn=fn)
        return p

    p = command("filter-info", cmd_filter_info,
                "prototype filter report: taps, |E|, SIR, decay")
    p.add_argument("--decay", type=int, default=20,
                   help="ordered magnitudes to print (default 20)")
    p.add_argument("--taps-out", default=None, help="write taps to this file")
    command("bep", cmd_bep, "evaluate an analytic BEP curve", _add_model_flags)
    command("simulate", cmd_simulate, "Monte Carlo BER measurement",
            _add_model_flags, _add_sim_flags)
    p = command("compare", cmd_compare,
                "overlay analytic BEP and simulated BER with z-scores",
                _add_model_flags, _add_sim_flags)
    p.add_argument("--sim-csv", default=None,
                   help="reuse an existing simulate CSV instead of rerunning")
    return parser


# main()'s parser, built once per process; parsing leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(argv, args))
        return args.fn(args)
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}; rerun with a smaller --kmax or larger --budget",
              file=sys.stderr)
        return BUDGET_ERROR
    except (FbmcBerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
