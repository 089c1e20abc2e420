"""Record the reference reports that run.py checks every run against.

    python3 bench/record_reference.py

Run from the repository root, only when a change to the program is meant to
change reports; say so where the change is described. Each generator's
reference input is generated at REFERENCE_SEED and run once, by the first
workload that uses it.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import REFERENCE_DIR, REFERENCE_SEED, Bench, reference_path
from workloads import WORKLOADS, generate


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    recorded = set()
    for workload in WORKLOADS.values():
        if reference_path(workload) in recorded:
            continue
        recorded.add(reference_path(workload))
        bench = Bench(root, workload, REFERENCE_SEED)
        bench.work.mkdir(parents=True)
        try:
            inputs = generate(workload, REFERENCE_SEED, bench.work / "ref", reference=True)
            _, _, out_dir = bench.run_cli(inputs)
            shutil.copyfile(out_dir / "report.tsv", reference_path(workload))
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        print(f"{workload.name}: {reference_path(workload)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
