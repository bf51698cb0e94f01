"""Run alternating whole-run benchmark pairs of two source trees.

    python3 tools/abpairs.py OLD_TREE NEW_TREE --workload W --seeds A-B
        [--seconds S] [--out BENCH_name.json] [--what TEXT]

For each seed A..B this runs ``python3 bench/run.py --workload W --seed
<seed> --seconds S --trace 0`` once in each tree, one run at a time.
The side that runs first alternates from seed to seed (OLD first on
A, A+2, ...).  A tree is a checkout root with src/ and bench/; make one
of a commit with ``git archive <commit> | tar -x -C <dir>``.

The output file keeps the schema of the committed BENCH_*.json files:
OLD is "parent" and NEW is "change".  Per workload it holds the seeds,
per seed each side's end-to-end metrics, its reference_loop_s (the
host-speed loop that bench/run.py times at the start and the end of a
run) and [correct, failed, attempted], and per metric a summary:
parent and change medians and quartiles, change_over_parent (ratio of
the medians) and change_better_pairs (the pairs in which the change is
better, by the direction BENCHMARK.json gives the metric).  An existing
output file gains the workload, or has it replaced; its other entries
stay.  The tool only measures: bench/run.py and its checks are run as
they are.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive'), first and third"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old", type=Path, help="parent tree")
    p.add_argument("new", type=Path, help="changed tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="A-B")
    p.add_argument("--seconds", type=float,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--out", type=Path, help="BENCH_*.json to write or update")
    p.add_argument("--what", default="", help="what the two trees differ in")
    return p.parse_args(argv)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py run in tree: its last stdout line and its record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=10 * seconds + 600)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench-out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return {"summary": summary, "record": record}


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: dict, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        parent = [r["parent"][name] for r in runs.values()]
        change = [r["change"][name] for r in runs.values()]
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(parent, change))
        out[name] = {
            "parent_median": statistics.median(parent),
            "parent_quartiles": quartiles(parent),
            "change_median": statistics.median(change),
            "change_quartiles": quartiles(change),
            "change_over_parent": statistics.median(change) / statistics.median(parent),
            "change_better_pairs": wins,
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.old.resolve(), "change": args.new.resolve()}
    bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    runs, checks, machine = {}, {}, {}
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        entry, check = {"first": order[0]}, {}
        for side in order:
            got = run_once(trees[side], args.workload, seed, seconds)
            summary, record = got["summary"], got["record"]
            entry[side] = {k: m["value"] for k, m in summary["metrics"].items()}
            entry[side]["reference_loop_s"] = record["reference_loop_s"]
            check[side] = [summary["correct"], summary["failed"], summary["attempted"]]
            machine[side] = record["machine"]
        runs[str(seed)], checks[str(seed)] = entry, check
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{name} x{entry['change'][name] / entry['parent'][name]:.3f}"
            for name in better), flush=True)

    workload = {"seeds": args.seeds, "summary": summarize(runs, better),
                "runs": runs, "correct_failed_attempted": checks}
    out = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    out.setdefault("what", args.what)
    out["command"] = (f"python3 bench/run.py --workload <name> --seed <seed> "
                      f"--seconds {seconds:g} --trace 0")
    out["order"] = ("alternating whole-run pairs, one run at a time; runs.<seed>."
                    "first names the side that ran first")
    out["quartiles"] = QUARTILES
    out["machine"] = {**machine["change"],
                      "commit": {side: machine[side]["commit"] for side in SIDES}}
    out.setdefault("workloads", {})[args.workload] = workload
    out["all_correct_failed_0"] = all(
        c[side][0] and c[side][1] == 0
        for w in out["workloads"].values()
        for c in w["correct_failed_attempted"].values() for side in SIDES)
    text = json.dumps(out, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    for name, s in workload["summary"].items():
        print(f"{name}: parent {s['parent_median']:.6g} "
              f"[{s['parent_quartiles'][0]:.6g}, {s['parent_quartiles'][1]:.6g}], "
              f"change {s['change_median']:.6g}, x{s['change_over_parent']:.3f}, "
              f"better in {s['change_better_pairs']} of {len(runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
