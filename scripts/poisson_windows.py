#!/usr/bin/env python3
"""Sweep the two-dimensional summation identities over growing window ranges
and print how many bi-windows each range certifies."""

import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fqharmonic.c2 import VirtualMeasure, k2_model
from fqharmonic.c2_triples import inner_cut_triple, outer_cut_triple, poisson2_verify
from fqharmonic.exactnum import field_for


def main() -> int:
    fld = field_for(2)
    K2 = k2_model(fld)
    Tu = inner_cut_triple(K2, 0)
    Tt = outer_cut_triple(K2, 0)
    mu = VirtualMeasure(Tt.sub, 0, Tt.sub.outer_sup, Fraction(1))
    nu = VirtualMeasure(Tt.quot, 0, Tt.quot.outer_inf, Fraction(1))
    ok = True
    for r in (1, 2, 3):
        for name, run in (
            ("twist-free", lambda: poisson2_verify("II", Tu, o=0, cut_lo=-r, cut_hi=r)),
            ("twisted", lambda: poisson2_verify("I", Tt, mu, nu, o=0, cut_lo=-r, cut_hi=r)),
        ):
            t0 = time.monotonic()
            rep = run()
            dt = time.monotonic() - t0
            status = "ok" if rep.passed else "FAIL"
            print(f"[{status}] {name} range +-{r}: {rep.cases} bi-windows in {dt:.1f}s")
            ok = ok and rep.passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
