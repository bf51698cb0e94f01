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
status: 0 when every output is identical.  A tree is a checkout root,
with src/, tests/ and bench/; make one of a commit with
``git archive <commit> | tar -x -C <dir>``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOAD_SEED = 1
ACCEPTANCE = "Criterion5 or Criterion6 or Criterion7 or Criterion8"
# Manifest fields that change from run to run; every other one is compared.
RUN_FIELDS = ("timestamp", "stage_s")


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
    return subprocess.run(["diff", "-r", str(out / "old"), str(out / "new")]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
