"""The benchmark's workloads: set-up, one timed pass, and the correctness gate.

Each workload imports the library afresh, builds its inputs, and then runs
passes. The workload seed is the run seed of the two config workloads; the
sweep has no random input and runs the same work for every seed. A pass is
the unit that `pass_s` times:

* ``poisson2_sweep`` runs both two-dimensional summation identities over
  F_2 with cuts -2..2 and ``max_points`` 256, the sweep of
  ``scripts/poisson_windows.py`` at range +-2.
* ``verify_example`` is the ``verify`` command on the bundled example
  config: ``run_suites`` and then ``emit_report(..., "json")``.
* ``images_f3`` is the same path on the F_3 config in ``configs/``.

The gate checks every pass against the counts and digests committed in
``expected.json``, so that a faster pass cannot come from skipped checks.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

HERE = Path(__file__).resolve().parent

# what the verify path imports, as fqharmonic.<name>, reached as lib.<last part>
HARNESS_MODULES = ("exactnum", "c2", "c2_triples", "harness.config", "harness.report", "harness.suites")


def import_library(names) -> SimpleNamespace:
    """Import the named fqharmonic modules anew.

    Every loaded fqharmonic module is dropped first, so each call pays the
    whole import, as a fresh ``fqharmonic verify`` process does.
    """
    for key in [k for k in sys.modules if k == "fqharmonic" or k.startswith("fqharmonic.")]:
        del sys.modules[key]
    mods = {n.rsplit(".", 1)[-1]: importlib.import_module("fqharmonic." + n) for n in names}
    return SimpleNamespace(**mods)


@dataclass
class PassResult:
    cases: int
    failed: int
    digest: str
    suite_wall: dict = field(default_factory=dict)

    def same_output(self, other: "PassResult") -> bool:
        return (self.cases, self.failed, self.digest) == (other.cases, other.failed, other.digest)


@dataclass(frozen=True)
class Workload:
    name: str
    modules: tuple
    build: Callable  # (lib, seed) -> state
    run_pass: Callable  # (lib, state) -> PassResult

    def gate(self, seed: int, result: PassResult, first: PassResult) -> list:
        """Why this pass's output is not the committed one; empty when it is.

        Failing checks are counted apart, through ``result.failed``.
        """
        exp = expected()[self.name]
        problems = []
        if result.cases != exp["cases"]:
            problems.append(f"{result.cases} cases, expected {exp['cases']}")
        digest = exp.get("sha256", {}).get(str(seed), first.digest)
        if result.digest != digest:
            problems.append(f"output sha256 {result.digest[:16]}.. differs from {digest[:16]}..")
        return problems


@cache
def expected() -> dict:
    """The committed case counts and report digests (see record_expected.py)."""
    return json.loads((HERE / "expected.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# poisson2_sweep
# ---------------------------------------------------------------------------


def _build_poisson2(lib, seed: int):
    # the sweep of scripts/poisson_windows.py: basepoint 0 and unit virtual
    # measures. It has no random input, so every seed runs the same work.
    K2 = lib.c2.k2_model(lib.exactnum.field_for(2))
    Tu = lib.c2_triples.inner_cut_triple(K2, 0)
    Tt = lib.c2_triples.outer_cut_triple(K2, 0)
    VM = lib.c2.VirtualMeasure
    mu = VM(Tt.sub, 0, Tt.sub.outer_sup, Fraction(1))
    nu = VM(Tt.quot, 0, Tt.quot.outer_inf, Fraction(1))
    return SimpleNamespace(Tu=Tu, Tt=Tt, mu=mu, nu=nu)


def _pass_poisson2(lib, st) -> PassResult:
    verify = lib.c2_triples.poisson2_verify
    reps = [
        verify("II", st.Tu, o=0, cut_lo=-2, cut_hi=2, max_points=256),
        verify("I", st.Tt, st.mu, st.nu, o=0, cut_lo=-2, cut_hi=2, max_points=256),
    ]
    summary = json.dumps([[r.name, r.cases, r.failures] for r in reps], sort_keys=True)
    return PassResult(
        sum(r.cases for r in reps), sum(len(r.failures) for r in reps), _sha256(summary)
    )


# ---------------------------------------------------------------------------
# verify_example and images_f3: parse_config, run_suites, emit_report
# ---------------------------------------------------------------------------


def _build_verify(cfg_name: str):
    def build(lib, seed: int):
        cfg = lib.config.parse_config((HERE / "configs" / cfg_name).read_text())
        return SimpleNamespace(cfg=cfg, seed=seed)

    return build


def _pass_verify(lib, st) -> PassResult:
    reports = lib.suites.run_suites(st.cfg, seed=st.seed)
    text = lib.report.emit_report(reports, "json")
    wall: dict = {}
    for spec, rep in zip(st.cfg.suites, reports):
        wall[spec.kind] = wall.get(spec.kind, 0.0) + rep.wall_time
    return PassResult(
        sum(r.cases for r in reports), sum(len(r.failures) for r in reports), _sha256(text), wall
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poisson2_sweep", ("exactnum", "c2", "c2_triples"), _build_poisson2, _pass_poisson2),
        Workload("verify_example", HARNESS_MODULES, _build_verify("verify_example.cfg"), _pass_verify),
        Workload("images_f3", HARNESS_MODULES, _build_verify("images_f3.cfg"), _pass_verify),
    )
}


def negative_controls(lib) -> list:
    """Corrupted single bi-windows that must fail; returns the ones that did not."""
    st = _build_poisson2(lib, 0)
    Tu, Tt, mu, nu = st.Tu, st.Tt, st.mu, st.nu
    verify = lib.c2_triples.poisson2_verify
    controls = {
        "poisson2_I corrupt=measure": verify("I", Tt, mu, nu, cut_lo=0, cut_hi=0, corrupt="measure"),
        "poisson2_II corrupt=transition": verify("II", Tu, cut_lo=0, cut_hi=0, corrupt="transition"),
    }
    return [name for name, rep in controls.items() if rep.cases == 0 or rep.passed]
