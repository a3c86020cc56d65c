#!/usr/bin/env python3
"""Sweep the two-dimensional summation identities over growing window ranges
and print how many bi-windows each range certifies.

Over F_2 the ranges +-1, +-2 and +-3 run with the verifier's default cap of
256 table entries per side.  The uncapped +-6 sweeps over F_2, F_3 and F_4
certify every one of the 91 x 91 bi-windows, up to dim 144 a side: the
characteristic objects stay factored tables, so no side is ever built
dense.

The twelve sweeps run on every CPU this process may use; the lines come in
the order above, each with its sweep's own time."""

import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fqharmonic.c2 import VirtualMeasure, k2_model
from fqharmonic.c2_triples import inner_cut_triple, outer_cut_triple, poisson2_verify
from fqharmonic.exactnum import field_for
from fqharmonic.harness.fanout import fan_out


def sweeps(q: int):
    """The two identities over F_q on the standard cut triples of K2."""
    K2 = k2_model(field_for(q))
    Tu = inner_cut_triple(K2, 0)
    Tt = outer_cut_triple(K2, 0)
    mu = VirtualMeasure(Tt.sub, 0, Tt.sub.outer_sup, Fraction(1))
    nu = VirtualMeasure(Tt.quot, 0, Tt.quot.outer_inf, Fraction(1))
    return (
        ("twist-free", lambda r, cap: poisson2_verify("II", Tu, o=0, cut_lo=-r, cut_hi=r, max_points=cap)),
        ("twisted", lambda r, cap: poisson2_verify("I", Tt, mu, nu, o=0, cut_lo=-r, cut_hi=r, max_points=cap)),
    )


def timed(run, r: int, cap):
    """The sweep's report and its own wall time."""
    t0 = time.monotonic()
    rep = run(r, cap)
    return rep, time.monotonic() - t0


def main() -> int:
    runs = [(name, run, r, 256, f"range +-{r}") for r in (1, 2, 3) for name, run in sweeps(2)]
    runs += [(name, run, 6, None, f"range +-6 over F_{q} uncapped") for q in (2, 3, 4) for name, run in sweeps(q)]
    ok = True
    results = fan_out([partial(timed, run, r, cap) for _name, run, r, cap, _what in runs])
    for (name, *_, what), (rep, dt) in zip(runs, results):
        status = "ok" if rep.passed else "FAIL"
        print(f"[{status}] {name} {what}: {rep.cases} bi-windows in {dt:.1f}s")
        ok = ok and rep.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
