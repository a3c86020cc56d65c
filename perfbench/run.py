#!/usr/bin/env python3
"""The fqharmonic benchmark. Standard library only, one process, one thread.

One workload, end-to-end metrics (tracing off):

    python3 perfbench/run.py --workload poisson2_sweep --seed 1 --seconds 40 --trace 0

The same workload traced, reporting the per-layer metrics:

    python3 perfbench/run.py --workload images_f3 --seed 1 --seconds 40 --trace 1

Every workload, one metric per line, written to perfbench/results/:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Check that each layer is traced on the workload that exercises it (one
untraced and one traced pass per workload):

    python3 perfbench/run.py --selftest --seconds 1

BENCHMARK.json at the repository root names the workloads and the metrics.
A run sets the library up, runs two corrupted bi-windows that must fail, and
then times passes until the next one would end after ``--seconds`` (``pass_s``
is the median). Before each pass it sets the library up again and again for
``SETUP_SECONDS`` and throws the result away (``setup_s`` is the median of
these times), so that set-up is sampled across the whole run, as the passes
are, and not in one burst that a few noisy seconds can move; then it times
``reference_loop``, fixed code that no library change can speed up.

A shared host's speed drifts: on a 2-vCPU Xeon VM, passes of the same code
ran 30% slower for minutes at a time, and two sets of ten runs of
verify_example gave medians 28% apart. The reference loop slows with the
host, so ``setup_s`` and ``pass_s`` (and ``cases_per_s``) are the wall-clock
medians scaled to the host speed at which the loop's median is
``REFERENCE_LOOP_S``, by ``(REFERENCE_LOOP_S / loop median) **
REFERENCE_ELASTICITY``. A run prints the unscaled wall times and the loop's
median as well.

A traced run reports wall times, unscaled. It spends the first half of its
time untraced, for the comparison in ``trace.overhead_share``. Every pass goes through the correctness gate in
``workloads.py``. Failed checks and gate violations count against
``passed_share``, which is 1 - failed_share: no end-to-end metric may read
0. The last line of standard output is the result as one JSON object, with
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it is ``{"environment": ...}``: seed, commit, Python, nproc and
CPU model. The exit code is 0 only when the result is correct.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from typing import Optional

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
SETUP_SECONDS = 0.5  # set-up is repeated for this long before each untraced pass
REFERENCE_SECONDS = 0.5  # and then the reference loop, for this long
REFERENCE_LOOP_S = 0.0100  # the reference loop's median time on a quiet 2-vCPU Xeon host
# log(pass time) against log(reference loop time), one point per run, on a
# 2-vCPU Xeon VM: slope 0.55-0.67 (correlation 0.96) in sets of runs where the
# host's speed moved by more than 20%, 0.0-0.35 in quieter sets; 0.5 gave the
# smallest worst quartile spread over 40 runs of the three workloads
REFERENCE_ELASTICITY = 0.5


@dataclass
class Pass:
    seconds: float
    result: object  # workloads.PassResult
    layers: Optional[dict] = None  # traced passes: flat per-layer metrics


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "commit": _commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():  # not a git checkout; do not let git look above it
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def set_up(wl, seed: int, seconds: float) -> tuple:
    """Import the library and build the workload's inputs, again and again
    for ``seconds`` (at least once). Returns the set-up times and the last
    library and inputs."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        gc.collect()
        t0 = time.perf_counter()
        lib = workloads.import_library(wl.modules)
        state = wl.build(lib, seed)
        times.append(time.perf_counter() - t0)
    return times, lib, state


def reference_loop() -> int:
    """A fixed piece of the work the library does most: exact rational
    arithmetic on small fractions, kept in a dict keyed by tuples. Its speed
    moves with the host's, and no change to the library can change it."""
    acc = {}
    for i in range(1500):
        a = Fraction(i % 13 + 1, i % 11 + 2)
        b = Fraction(i % 7 + 1, i % 5 + 3)
        key = (i % 31, i % 17)
        acc[key] = acc.get(key, 0) + a * b - a / b
    return len(acc)


def time_reference(seconds: float) -> list:
    """Run the reference loop again and again for ``seconds``; its times."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return times


def timed_passes(wl, lib, state, budget: float, tracer=None, before=None) -> list:
    """Run passes until the next one, with ``before()`` ahead of it, would end
    after ``budget`` seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        t_before = time.perf_counter()
        if before is not None:
            before()
        gc.collect()
        zeta = lib.exactnum._zeta_pow_cached.cache_info()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        result = wl.run_pass(lib, state)
        dt = time.perf_counter() - t0
        layers = None
        if tracer is not None:
            layers = dict(tracer.counts)
            after = lib.exactnum._zeta_pow_cached.cache_info()
            hits = after.hits - zeta.hits
            lookups = hits + after.misses - zeta.misses
            layers["exactnum.zeta_cache.hit_ratio"] = hits / lookups if lookups else 0.0
        passes.append(Pass(dt, result, layers))
        now = time.perf_counter()
        if now - start + (now - t_before) > budget:
            return passes


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    wl = workloads.WORKLOADS[name]
    setup_times, lib, state = set_up(wl, seed, 0)
    problems = [f"negative control did not fail: {c}" for c in workloads.negative_controls(lib)]

    if not trace:
        # the passes keep ``lib``: the set-ups between them load the library
        # anew into sys.modules and leave ``lib``'s modules as they are
        reference_times = []

        def before():
            setup_times.extend(set_up(wl, seed, SETUP_SECONDS)[0])
            gc.collect()
            reference_times.extend(time_reference(REFERENCE_SECONDS))

        plain = timed_passes(wl, lib, state, seconds, before=before)
        passes = list(plain)
    else:
        plain = timed_passes(wl, lib, state, seconds / 2)
        passes = list(plain)
        tracer = Tracer()
        tracer.install()
        wl.build(lib, seed)  # traced set-up, for harness.config.parse_s
        setup_layers = dict(tracer.counts)
        traced = timed_passes(wl, lib, state, seconds / 2, tracer)
        passes += traced
        problems += [
            f"traced pass {i} output differs from the untraced one"
            for i, p in enumerate(traced)
            if not p.result.same_output(plain[0].result)
        ]
        tracer.write_spans(HERE / "out" / f"spans-{name}.jsonl")
        print(f"spans: {len(tracer.spans)} kept, {tracer.dropped} over the cap")

    first = passes[0].result
    for i, p in enumerate(passes):
        r = p.result
        print(f"pass {i}: {p.seconds:.3f} s, {r.cases} cases, {r.failed} failed"
              + (" (traced)" if p.layers is not None else ""))
        problems += [f"pass {i}: {msg}" for msg in wl.gate(seed, r, first)]
    attempted = sum(p.result.cases for p in passes)
    failed = sum(p.result.failed for p in passes) + len(problems)
    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)

    if trace:
        values = layer_values(spec, plain, traced, setup_layers)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # times scaled to the host speed at which the reference loop takes
        # REFERENCE_LOOP_S: see the module docstring
        speed = (REFERENCE_LOOP_S / median(reference_times)) ** REFERENCE_ELASTICITY
        wall_s = median(p.seconds for p in plain)
        pass_s = wall_s * speed
        print(f"wall time: pass {wall_s:.6g} s, set-up {median(setup_times):.6g} s; "
              f"reference loop {median(reference_times) * 1e3:.4g} ms, "
              f"{len(reference_times)} times, nominal {REFERENCE_LOOP_S * 1e3:.4g} ms")
        values = {
            "setup_s": median(setup_times) * speed,
            "pass_s": pass_s,
            "cases_per_s": first.cases / pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "passed_share": 1 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"failed_share {failed / attempted:.6g} share")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def layer_values(spec: dict, plain: list, traced: list, setup_layers: dict) -> dict:
    """Each per-layer metric: the median over the traced passes, except the
    config parse (timed in the traced set-up), the suite wall times (read
    from the untraced passes' reports) and the tracing cost itself."""
    plain_s = median(p.seconds for p in plain)
    traced_s = median(p.seconds for p in traced)
    values = {}
    for m in spec["per_layer"]:
        key = m["name"]
        if key == "harness.config.parse_s":
            values[key] = setup_layers.get(key, 0.0)
        elif key.startswith("harness.suite."):
            kind = key[len("harness.suite."):-len(".wall_s")]
            values[key] = median(p.result.suite_wall.get(kind, 0.0) for p in plain)
        elif key == "trace.pass_s":
            values[key] = traced_s
        elif key == "trace.overhead_share":
            values[key] = traced_s / plain_s - 1
        else:
            values[key] = median(p.layers.get(key, 0.0) for p in traced)
    return values


def _child(args: list) -> tuple[int, dict]:
    """Run this script on one workload in a fresh process; return its exit code and result."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else {})


def run_all(spec: dict, seed: int, seconds: float) -> int:
    record = {"environment": environment(seed), "seconds": seconds, "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        code, res = _child(["--workload", w["name"], "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "0"])
        ok = ok and code == 0 and res.get("correct") is True
        record["workloads"][w["name"]] = res
        print(f"{w['name']}: {'ok' if code == 0 else 'FAIL'}, "
              f"{res.get('attempted')} checks, {res.get('failed')} failed  ({w['why']})")
        for key, m in res.get("metrics", {}).items():
            print(f"  {key:<14} {m['value']:>14.6g} {m['unit']}")
    out = HERE / "results" / f"BENCH_{record['environment']['commit'][:12]}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


# metric -> workloads on which the traced run must read it above 0
EXERCISED = {
    "exactnum.cyc_mul.calls": ("poisson2_sweep", "verify_example", "images_f3"),
    "exactnum.cyc_add.calls": ("poisson2_sweep", "verify_example", "images_f3"),
    "exactnum.zeta_cache.hit_ratio": ("poisson2_sweep", "verify_example"),
    "tables.fourier.calls": ("poisson2_sweep", "verify_example"),
    "tables.transport.calls": ("poisson2_sweep", "verify_example", "images_f3"),
    "tables.pointwise.self_s": ("verify_example", "images_f3"),
    "dim0.fourier0.calls": ("verify_example",),
    "dim0.echelon.self_s": ("verify_example",),
    "c1.at.calls": ("verify_example", "images_f3"),
    "c1_triples.images1.calls": ("verify_example", "images_f3"),
    "c1_triples.poisson1.windows": ("verify_example",),
    "c2.at.calls": ("verify_example", "images_f3"),
    "c2.fourier2.calls": ("poisson2_sweep", "verify_example"),
    "c2_triples.images2.calls": ("verify_example", "images_f3"),
    "c2_triples.poisson2.biwindows": ("poisson2_sweep", "verify_example"),
    "c2_triples.validate.self_s": ("poisson2_sweep", "verify_example", "images_f3"),
    "c2_aut.rep_act.calls": ("verify_example",),
    "harness.config.parse_s": ("verify_example", "images_f3"),
    "harness.rng.self_s": ("verify_example", "images_f3"),
    "harness.report.emit_s": ("verify_example", "images_f3"),
    "trace.pass_s": ("poisson2_sweep", "verify_example", "images_f3"),
}
# metric -> workloads on which it must read exactly 0
UNUSED = {
    "tables.fourier.calls": ("images_f3",),
    "dim0.fourier0.calls": ("poisson2_sweep", "images_f3"),
}


def selftest(spec: dict, seed: int, seconds: float) -> int:
    """Run each workload traced and check which layers it reaches."""
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        code, res = _child(["--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", "1"])
        if code != 0 or res.get("correct") is not True:
            problems.append(f"{name}: traced run not correct (exit {code})")
            continue
        vals = {k: m["value"] for k, m in res["metrics"].items()}
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in vals]
        problems += [f"{name}: {k} not reported" for k in missing]
        problems += [f"{name}: {k} is 0" for k, ws in EXERCISED.items() if name in ws and not vals.get(k)]
        problems += [f"{name}: {k} is {vals.get(k)}, not 0" for k, ws in UNUSED.items()
                     if name in ws and vals.get(k) != 0]
        share = vals["tables.fourier.self_s"] / vals["trace.pass_s"]
        print(f"{name}: tables.fourier.self_s is {share:.1%} of the traced pass, "
              f"trace.overhead_share {vals['trace.overhead_share']:.3f}")
        if name == "poisson2_sweep" and share < 0.9:
            problems.append(f"{name}: tables.fourier.self_s is only {share:.1%} of the traced pass")
    for msg in problems:
        print(f"FAIL {msg}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=20260808)
    ap.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, untraced")
    ap.add_argument("--selftest", action="store_true", help="check the traced layers")
    args = ap.parse_args(argv)

    bench = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fqharmonic" / "__init__.py").is_file() or not bench.is_file():
        print(f"{ROOT} holds no src/fqharmonic or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(bench.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))

    if args.all:
        return run_all(spec, args.seed, seconds)
    if args.selftest:
        return selftest(spec, args.seed, seconds)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    print(f"workload {args.workload}")
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
    for key, m in result["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": environment(args.seed)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
