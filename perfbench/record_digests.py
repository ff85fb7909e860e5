"""Record the sha256 of seeded `gen` output for the bulk-pipeline shapes.

    PYTHONPATH=src python3 perfbench/record_digests.py 100

writes perfbench/gen_digests.json for workload seeds 0..99.  Seeded gen
output must stay byte-identical, so this is run once and the file is
committed; bulk-pipeline compares every gen job against it.
"""

import json
import sys
from pathlib import Path

from workloads import BulkPipeline, _sha256, run_cli

HERE = Path(__file__).resolve().parent


def main():
    seeds = range(int(sys.argv[1]))
    workdir = Path.cwd() / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    out = workdir / "digest.json"
    table = {}
    for seed in seeds:
        row = {}
        for alg, k, n in BulkPipeline.SHAPES:
            code, _ = run_cli(["gen", "--algebra", alg, "--k", k, "--n", n, "--seed", seed,
                               "--out", out])
            if code != 0:
                raise SystemExit(f"gen failed for seed {seed}, shape {alg}/{k}/{n}")
            row[f"{alg}/{k}/{n}"] = _sha256(out)
        table[str(seed)] = row
    out.unlink()
    (HERE / "gen_digests.json").write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
