"""Check that two source trees give the same outputs, byte for byte.

    python3 tools/bitcheck.py OLD_TREE NEW_TREE OUT_DIR

For each tree, in its own interpreter, this writes to OUT_DIR/old and
OUT_DIR/new:

  bench/    the CSV and the JSON manifest of every CLI call of one round
            of each benchmark workload at seed 1, as bench/run.py runs
            it, each manifest without its timestamp and stage times;
  counts.jsonl
            one line per run_ber call of acceptance criteria C5-C8
            (test, seed, config, and each point's bits, errors, frames,
            batches, stop reason and se_block) and one per z_scores
            call (test, seed, config, and each point's BEP and z).

Then it runs ``diff -r`` on the two directories and exits with its
status: 0 when every output is identical.  For each file that differs it
then prints the largest relative change among the float fields that
differ, with its line, and how many integer fields differ; a file whose
lines differ in more than their numbers is named as such.

A tree is a checkout root, with src/, tests/ and bench/; make one of a
commit with ``git archive <commit> | tar -x -C <dir>``.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOAD_SEED = 1
ACCEPTANCE = "Criterion5 or Criterion6 or Criterion7 or Criterion8"
# Manifest fields that change from run to run; every other one is compared.
RUN_FIELDS = ("timestamp", "stage_s")
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|nan|inf)")
INTEGER = re.compile(r"[-+]?\d+")


def dump_bench(tree: Path, out: Path) -> int:
    """The CSVs and manifests of one round of every workload; returns how
    many CSVs."""
    sys.path.insert(0, str(tree / "bench"))
    import run
    import workloads

    cli = run.load_cli(tree)
    cores = len(os.sched_getaffinity(0))
    count = 0
    for name in sorted(workloads.WORKLOADS):
        workdir = out / "bench" / name
        workdir.mkdir(parents=True)
        run.run_round(cli, workloads.build(name, WORKLOAD_SEED, cores), str(workdir))
        for manifest in workdir.glob("*.manifest.json"):
            payload = json.loads(manifest.read_text())
            for key in RUN_FIELDS:
                payload.pop(key, None)
            manifest.write_text(json.dumps(payload, indent=2) + "\n")
        count += len(list(workdir.glob("*.csv")))
    return count


def dump_counts(tree: Path, out: Path) -> int:
    """Run C5-C8 with run_ber and z_scores recording their results; returns
    the pytest status."""
    import pytest

    sys.path.insert(0, str(tree / "src"))
    from fbmcber import simulate

    real_run, real_z = simulate.run_ber, simulate.z_scores
    lines = []

    def record(result, **fields):
        lines.append(json.dumps({
            "test": os.environ.get("PYTEST_CURRENT_TEST", "").split(" ")[0],
            "seed": result.seed,
            "config": result.config,
            **fields,
        }, default=str))

    def run_ber(*args, **kwargs):
        result = real_run(*args, **kwargs)
        record(result, points=[[p.ebn0_db, p.bits, p.errors, p.frames, p.batches,
                                p.stop, repr(p.se_block)] for p in result.points])
        return result

    def z_scores(result, probs):
        zs = real_z(result, probs)
        record(result, z=[[p.ebn0_db, repr(float(bep)), repr(float(z))]
                          for p, bep, z in zip(result.points, probs, zs)])
        return zs

    simulate.run_ber, simulate.z_scores = run_ber, z_scores
    status = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(tree),
                          "-k", ACCEPTANCE, str(tree / "tests" / "test_acceptance.py")])
    (out / "counts.jsonl").write_text("\n".join(lines) + "\n")
    return int(status)


def size_change(old: Path, new: Path) -> str:
    """How far apart two files are: the largest relative change among their
    float fields and the count of integer fields that differ."""
    old_lines, new_lines = old.read_text().splitlines(), new.read_text().splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} -> {len(new_lines)} lines"
    worst, worst_line, floats, integers = 0.0, 0, 0, 0
    for line, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a == b:
            continue
        if NUMBER.sub("#", a) != NUMBER.sub("#", b):
            return f"line {line} differs in more than its numbers"
        for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
            if x == y:
                continue
            if INTEGER.fullmatch(x) and INTEGER.fullmatch(y):
                integers += 1
                continue
            floats += 1
            u, v = float(x), float(y)
            if u == v:
                rel = 0.0
            elif math.isfinite(u) and math.isfinite(v):
                rel = abs(u - v) / max(abs(u), abs(v))
            else:
                rel = math.inf
            if rel >= worst:
                worst, worst_line = rel, line
    return (f"{floats} float fields differ, largest relative change {worst:.2g}"
            f" (line {worst_line}); {integers} integer fields differ")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--dump"]:
        tree, out = Path(argv[1]).resolve(), Path(argv[2]).resolve()
        out.mkdir(parents=True)
        print(f"{tree}: {dump_bench(tree, out)} benchmark CSVs", flush=True)
        return dump_counts(tree, out)
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new, out = (Path(a).resolve() for a in argv)
    for tree, side in ((old, "old"), (new, "new")):
        subprocess.run([sys.executable, __file__, "--dump", str(tree), str(out / side)],
                       check=True, cwd=tree)
    status = subprocess.run(["diff", "-r", str(out / "old"), str(out / "new")]).returncode
    for path in sorted((out / "old").rglob("*")):
        twin = out / "new" / path.relative_to(out / "old")
        if path.is_file() and twin.is_file() and path.read_bytes() != twin.read_bytes():
            print(f"{path.relative_to(out / 'old')}: {size_change(path, twin)}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
