"""Text and JSON rendering of suite reports.

The JSON rendering is byte-deterministic for a fixed config and seed: keys
are ordered, and wall time is reported only in the human-readable format.
"""

from __future__ import annotations

import json

from fqharmonic.c1_triples import CheckReport as Report


def _obj(r: Report) -> dict:
    # every failure is the four-key dict of Report.fail; sort_keys orders it
    return {
        "cases": r.cases,
        "failures": r.failures,
        "identities": sorted(r.identity_tags),
        "passed": r.passed,
        "seed": r.seed,
        "suite": r.name,
    }


def emit_report(reports: list, fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps([_obj(r) for r in reports], sort_keys=True, indent=1) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = []
    for r in reports:
        status = "ok" if r.passed else "FAIL"
        lines.append(
            f"[{status}] {r.name}: {r.cases} cases, {len(r.failures)} failures,"
            f" seed={r.seed}, {r.wall_time:.2f}s"
        )
        for f in r.failures[:5]:
            lines.append(f"    violated {f['identity']} at {f['context']}")
            if f["expected"]:
                lines.append(f"        expected {f['expected']}")
                lines.append(f"        actual   {f['actual']}")
        if len(r.failures) > 5:
            lines.append(f"    ... and {len(r.failures) - 5} more")
    total_fail = sum(len(r.failures) for r in reports)
    lines.append(f"{len(reports)} suites, {total_fail} failing checks")
    return "\n".join(lines) + "\n"
