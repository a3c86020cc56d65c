#!/usr/bin/env python3
"""Record the case counts and report digests that the benchmark's gate expects.

    python3 perfbench/record_expected.py

The gate holds every timed pass to these numbers, so that a speed-up cannot
come from skipped or altered checks. Re-record only with a change that is
meant to alter the verified checks or the JSON report, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

# the example config's own seed, then a range of workload seeds
SEEDS = (20260808, *range(32))


def main() -> int:
    record = {}
    for name, wl in workloads.WORKLOADS.items():
        lib = workloads.import_library(wl.modules)
        entry: dict = {}
        # the poisson sweep has no report to digest; its count is seed-free
        for seed in SEEDS[:1] if name == "poisson2_sweep" else SEEDS:
            res = wl.run_pass(lib, wl.build(lib, seed))
            if res.failed or res.cases != entry.setdefault("cases", res.cases):
                print(f"{name} seed {seed}: {res.cases} cases, {res.failed} failed", file=sys.stderr)
                return 1
            if name != "poisson2_sweep":
                entry.setdefault("sha256", {})[str(seed)] = res.digest
            print(f"{name} seed {seed}: {res.cases} cases, sha256 {res.digest[:16]}..", flush=True)
        record[name] = entry
    (HERE / "expected.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
