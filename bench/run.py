"""Benchmark of fbmcber's analytic BEP curves and BER simulations.

    python3 bench/run.py --workload bep-top8 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout: the package is imported from
``src/`` and driven through ``fbmcber.cli.main()`` in this process, as a
user would call the CLI.  A run repeats the workload's round of CLI calls
until ``--seconds`` have passed, checks every output against the
independent oracle in ``bep_oracle.py``, and prints each metric by name
and unit.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.special import erfc  # noqa: E402

import bep_oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# The oracle's own agreement with the BPSK closed forms and brute force.
ORACLE_RTOL = 1e-13
# At least this many rounds per run.
MIN_ROUNDS = 3
RESULTS_DIR = ".bench-out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "bep_s_per_point": "s/point",
    "fbmc_sim_bits_per_s": "bit/s",
    "ofdm_sim_bits_per_s": "bit/s",
    "pam_sim_bits_per_s": "bit/s",
    "peak_rss_mib": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("offsets_per_s"):
        return "offset/s"
    if name.endswith("symbols_per_s"):
        return "symbol/s"
    if name == "simulate.batches":
        return "count"
    return "s"


class BenchError(Exception):
    pass


def load_cli(root: Path):
    """Import fbmcber.cli from the checkout's src/, and nothing else."""
    src = root / "src"
    if not (src / "fbmcber" / "__init__.py").is_file():
        raise BenchError(f"no fbmcber package under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("fbmcber.cli")
    if Path(cli.__file__).resolve().parent != (src / "fbmcber").resolve():
        raise BenchError(f"fbmcber imported from {cli.__file__}, not {src}")
    return cli


def machine_record(root: Path) -> dict:
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def reference_loop_s() -> float:
    """Best of 3 timings of a fixed erfc loop.

    The record keeps it from the start and the end of each run. On a
    machine shared with other tenants it shows how fast the cores ran
    meanwhile. It is not a metric.
    """
    x = np.linspace(-4.0, 4.0, 400_000)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(5):
            erfc(x).sum()
        best = min(best, time.perf_counter() - start)
    return best


def probe_setup(root: Path, workload) -> float:
    spec = json.dumps([[f.name, f.alpha, f.m, f.k, kmax]
                       for f, kmax in workload.setup])
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(root / "src"), spec],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_round(cli, workload, workdir: str, tracer=None) -> dict:
    """One pass over the workload's CLI calls: label -> result dict."""
    results = {}
    for op in workload.ops:
        base = os.path.join(workdir, op.label)
        csv_path = base + ".csv"
        with contextlib.suppress(FileNotFoundError):
            os.remove(csv_path)
        csv_of = (os.path.join(workdir, op.sim_csv_of + ".csv")
                  if op.sim_csv_of else None)
        argv = op.argv(base, csv_of)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("main", "cli", cli.main, (argv,))
            seconds = time.perf_counter() - start
        text = Path(csv_path).read_text() if os.path.exists(csv_path) else None
        results[op.label] = {"rc": rc, "seconds": seconds, "csv": text,
                             "log": sink.getvalue()}
    return results


def simulated_bits(text) -> int:
    if text is None:
        return 0
    return sum(int(x) for x in workloads.parse_csv(text)["bits"])


def run_metrics(workload, rounds) -> dict:
    """End-to-end figures of the untraced rounds.

    Every figure pools all of the run's rounds (summed work over summed
    time): wall_s is the mean round, and the per-point time and the
    simulation rates take their calls' time over the whole run.  Each
    round interleaves the calls of the different metrics, so each figure
    samples the host's speed throughout the run.
    """
    def seconds(ops):
        return sum(r[op.label]["seconds"] for r in rounds for op in ops)

    out = {"wall_s": seconds(workload.ops) / len(rounds)}
    bep_ops = [op for op in workload.ops
               if op.role == "bep" and op.system == "fbmc"]
    out["bep_s_per_point"] = (seconds(bep_ops)
                              / (len(rounds) * sum(op.points for op in bep_ops)))
    for system in ("fbmc", "ofdm", "pam"):
        sims = [op for op in workload.ops if op.role == "sim" and op.system == system]
        bits = sum(simulated_bits(r[op.label]["csv"]) for r in rounds for op in sims)
        out[f"{system}_sim_bits_per_s"] = bits / seconds(sims)
    return out


def eps_source(cli, workdir: str):
    """eps_of(filter, kmax): the kmax largest |eps| of the package's
    exported interference table (numerical nulls dropped)."""
    cache = {}

    def eps_of(filt, kmax):
        if filt not in cache:
            base = os.path.join(workdir, f"table-{filt.name}-{filt.alpha}-{filt.m}")
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["filter-info", *filt.flags(), "--decay", "0",
                               "--out", base])
            if rc != 0:
                raise BenchError(f"filter-info failed for {filt}")
            table = workloads.parse_csv(Path(base + ".csv").read_text())
            mags = np.abs([float(x) for x in table["epsilon"]])
            cache[filt] = np.sort(mags[mags >= 1e-15])[::-1]
        return cache[filt][:kmax]

    return eps_of


def check(cli, workload, rounds, workdir, z_seen) -> tuple[list, dict]:
    """Problems and failed operations over all rounds.

    The first round is checked against the oracle; every later round
    must repeat it exactly (same inputs, deterministic program).
    """
    first = rounds[0]
    outputs = {label: (r["rc"], r["csv"]) for label, r in first.items()}
    problems, failed = workloads.check_round(workload, outputs,
                                             eps_source(cli, workdir), z_seen)
    oracle_error = bep_oracle.self_check()
    if not oracle_error <= ORACLE_RTOL:
        problems.append(f"oracle self-check: relative error {oracle_error:.2e} "
                        f"against BPSK closed forms and brute force")
    for index, results in enumerate(rounds[1:], start=1):
        for label, r in results.items():
            if (r["rc"], r["csv"]) != (first[label]["rc"], first[label]["csv"]):
                problems.append(f"round {index}: {label} differs from round 0")
    return problems, failed


def mean_metrics(per_round: list[dict]) -> dict:
    return {k: statistics.fmean(m[k] for m in per_round) for k in per_round[0]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = HERE.parent
    try:
        cli = load_cli(root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cores = len(os.sched_getaffinity(0))
    workload = workloads.build(args.workload, args.seed, cores)
    machine = machine_record(root)
    reference = [reference_loop_s()]
    setup = [probe_setup(root, workload)]

    (root / RESULTS_DIR).mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=root / RESULTS_DIR) as work:
        rounds, traced_rounds, tracers = [], [], []
        started = time.perf_counter()
        while True:
            if args.trace and len(rounds) > len(traced_rounds):
                tracer = spans.Tracer()
                with spans.traced(tracer):
                    traced_rounds.append(run_round(cli, workload, work, tracer))
                tracers.append(tracer)
            else:
                rounds.append(run_round(cli, workload, work))
            # Set-up is probed between rounds, so that its samples, like the
            # rounds, meet the host's speed throughout the run.
            if len(setup) < SETUP_REPEATS:
                setup.append(probe_setup(root, workload))
            # Stop at the round boundary nearest to --seconds.
            elapsed = time.perf_counter() - started
            count = len(rounds) + len(traced_rounds)
            if count >= MIN_ROUNDS and elapsed + elapsed / count / 2 >= args.seconds:
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += [probe_setup(root, workload)
                  for _ in range(SETUP_REPEATS - len(setup))]
        reference.append(reference_loop_s())
        z_seen = {}
        problems, failed = check(cli, workload, rounds + traced_rounds, work, z_seen)

    if args.trace:
        layer = mean_metrics([spans.layer_metrics(t.spans) for t in tracers])
        untraced = statistics.fmean(sum(r["seconds"] for r in rr.values())
                                    for rr in rounds)
        traced_wall = statistics.fmean(sum(r["seconds"] for r in rr.values())
                                       for rr in traced_rounds)
        layer["trace.overhead_s"] = traced_wall - untraced
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in layer.items()}
    else:
        e2e = run_metrics(workload, rounds)
        e2e["setup_s"] = statistics.median(setup)
        e2e["peak_rss_mib"] = peak_rss_mib
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    all_rounds = rounds + traced_rounds
    attempted = len(workload.ops) * len(all_rounds)
    n_failed = len(failed) * len(all_rounds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "setup_s_samples": setup, "reference_loop_s": reference,
        "op_seconds": {label: [r[label]["seconds"] for r in rounds]
                       for label in rounds[0]},
        "problems": problems, "failed_ops": failed, "z_against_oracle": z_seen,
        "attempted": attempted, "failed": n_failed, "metrics": metrics,
    }
    stem = root / RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracers:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            [[{"name": s.name, "layer": s.layer, "parent": s.parent,
               "start": s.start, "end": s.end, **s.attrs} for s in t.spans]
             for t in tracers]) + "\n")

    print(f"# machine {json.dumps(machine)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(rounds)} rounds"
          f" + {len(traced_rounds)} traced, {len(workload.ops)} operations each")
    print(f"# reference loop (host speed): {reference[0] * 1e3:.1f} ms at start, "
          f"{reference[1] * 1e3:.1f} ms at end")
    for label, reason in failed.items():
        print(f"# failed operation {label}: {reason}")
    for problem in problems:
        print(f"# WRONG {problem}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
