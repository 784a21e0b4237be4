"""Record the seed-0 reference values that run.py compares outputs with.

Run from the repository root, at a commit whose outputs are known good:

    python3 benchmarks/record_reference.py

It runs one full-size pass of every workload with seed 0, refuses to write
if any operation fails its invariant checks, and writes reference.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=HERE.parent)
    try:
        for name in workloads.WORKLOADS:
            results = workloads.run_pass(workloads.campaign(name, 0), workdir)
            bad = [(r.name, r.problems) for r in results if r.problems]
            if bad:
                print(f"{name}: refusing to record, checks failed: {bad}", file=sys.stderr)
                return 1
            reference[name] = {r.name: r.facts for r in results}
            print(f"{name}: {len(results)} operations recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
