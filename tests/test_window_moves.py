"""The window rule against the per-type move rules it replaced.

Each reference below is one of the five hand-written ``.at`` rules and one of
the common-window formulas as they stood before every representative stated
its edge directions once.  Every move between the windows in [-2, 2] (c1) and
the bi-windows in [-1, 1] (c2), over F_2 and F_3, must give the same table,
twist and window, and every move a reference refuses must raise WindowError.
"""

import itertools
import random
from fractions import Fraction

import pytest

from fqharmonic import tables
from fqharmonic.c1 import (
    C1Dist,
    C1Fn,
    Window,
    WindowError,
    colattice_model,
    common_window,
    fn_equal,
    fn_mul,
    lattice_model,
    laurent_model,
    pairing1,
    positions,
    sum_model,
    translate_fn,
    window_dim,
)
from fqharmonic.c2 import (
    BiWindow,
    D2Dist,
    D2Elem,
    E2Fn,
    VirtualMeasure,
    box_model,
    bw_dim,
    d2_equal,
    k2_model,
    positions2,
)
from fqharmonic.exactnum import CycNum, field_for

FIELDS = (field_for(2), field_for(3))
WINDOWS = [Window(lo, hi) for lo in range(-2, 3) for hi in range(lo, 3)]
BIWINDOWS = [
    BiWindow(l, i, m, n)
    for l in range(-1, 2) for i in range(l, 2) for m in range(-1, 2) for n in range(m, 2)
]


def c1_models(fld):
    K = laurent_model(fld)
    return (K, lattice_model(fld, 0), colattice_model(fld, 0), sum_model(K, lattice_model(fld, 1)))


def c2_models(fld):
    return (
        k2_model(fld),
        box_model(fld, None, 1, None, 0, "E"),
        box_model(fld, 0, None, -1, None, "F"),
    )


def rand_rows(rng, fld, dim):
    return tables.Rows(fld.p, rng.randint(1, 3), [
        [rng.randint(-2, 2) for _ in range(fld.q**dim)] for _ in range(fld.p - 1)
    ])


# ---------------------------------------------------------------------------
# the reference rules
# ---------------------------------------------------------------------------


def ref_fn_at(f, w):
    if w == f.window:
        return f.table
    src_w = f.window
    if f.tag == "D":
        if not (w.lo <= src_w.lo and w.hi >= src_w.hi):
            raise WindowError("D")
    elif not (w.lo <= src_w.lo and w.hi <= src_w.hi):
        raise WindowError("E")
    dst_pos = positions(f.model, w)
    above = [pos for pos in dst_pos if pos[0] >= src_w.hi]
    return tables.transport(f.table, f.model.field.q, positions(f.model, src_w), dst_pos, zeroed=above)


def ref_dist_at(G, w):
    if w == G.window:
        return G.table
    model, q = G.model, G.model.field.q
    if G.extension and G.extension[0] == "haar":
        _, value, ref = G.extension
        const = value * Fraction(q) ** model.dim_between(ref, w.lo)
        return tables.const_table(CycNum.from_rational(model.field.p, const), q, window_dim(model, w))
    grows = w.lo < G.window.lo or w.hi > G.window.hi
    if grows and not (G.extension and G.extension[0] == "zero_up"):
        raise WindowError("grow")
    src_pos, dst_pos = positions(model, G.window), positions(model, w)
    below = [pos for pos in src_pos if pos[0] < w.lo]
    return tables.transport(G.table, q, src_pos, dst_pos, summed=below, zeroed=dst_pos)


def ref_d2elem_at(x, bw2):
    bw = x.bw
    if not (bw2.l >= bw.l and bw2.i <= bw.i and bw2.m <= bw.m and bw2.n >= bw.n):
        raise WindowError("D2Elem")
    if bw2 == bw:
        return x.table, x.twist
    model, q = x.model, x.model.field.q
    factor = Fraction(q) ** model.sigma(bw.l, bw2.l, bw.m)
    src_pos, dst_pos = positions2(model, bw), positions2(model, bw2)
    summed = [pos for pos in src_pos if pos[0] < bw2.l]
    zeroed = [pos for pos in dst_pos if pos[1] >= bw.n]
    out = tables.scale(tables.transport(x.table, q, src_pos, dst_pos, summed, zeroed), factor)
    return out, VirtualMeasure(model, bw2.l, x.o, x.twist.scalar)


def ref_d2dist_at(x, bw2):
    bw = x.bw
    if not (bw2.l <= bw.l and bw2.i >= bw.i and bw2.m >= bw.m and bw2.n <= bw.n):
        raise WindowError("D2Dist")
    if bw2 == bw:
        return x.table, x.twist
    model, q = x.model, x.model.field.q
    factor = Fraction(q) ** model.sigma(bw2.l, bw.l, bw2.m)
    src_pos, dst_pos = positions2(model, bw), positions2(model, bw2)
    summed = [pos for pos in src_pos if pos[1] < bw2.m]
    zeroed = [pos for pos in dst_pos if pos[0] >= bw.i]
    out = tables.scale(tables.transport(x.table, q, src_pos, dst_pos, summed, zeroed), factor)
    return out, VirtualMeasure(model, x.o, bw2.l, x.twist.scalar)


def ref_e2_at(x, bw2):
    bw = x.bw
    model, q = x.model, x.model.field.q
    src_pos, dst_pos = positions2(model, bw), positions2(model, bw2)
    if x.tag in ("E2", "E2t"):
        if not (bw2.l <= bw.l and bw2.i <= bw.i and bw2.m <= bw.m and bw2.n <= bw.n):
            raise WindowError("germ")
        return tables.transport(x.table, q, src_pos, dst_pos)
    if not (bw2.l >= bw.l and bw2.i >= bw.i and bw2.m >= bw.m and bw2.n >= bw.n):
        raise WindowError("dual")
    summed = [(a, b) for (a, b) in src_pos if a < bw2.l or b < bw2.m]
    zeroed = [(a, b) for (a, b) in dst_pos if a >= bw.i or b >= bw.n]
    return tables.transport(x.table, q, src_pos, dst_pos, summed, zeroed)


def ref_fn_window(a, b):
    """The window of fn_equal, of C1Fn sums and of fn_mul."""
    if a.tag == "D" and b.tag == "D":
        return Window(min(a.window.lo, b.window.lo), max(a.window.hi, b.window.hi))
    lo = min(a.window.lo, b.window.lo)
    hi = min(a.window.hi, b.window.hi)
    for f in (a, b):
        if f.tag == "D" and hi < f.window.hi:
            raise WindowError("slice")
    return Window(lo, hi)


def ref_d2_window(x, y):
    return BiWindow(max(x.bw.l, y.bw.l), min(x.bw.i, y.bw.i), min(x.bw.m, y.bw.m), max(x.bw.n, y.bw.n))


def ref_d2dist_window(x, y):
    return BiWindow(min(x.bw.l, y.bw.l), max(x.bw.i, y.bw.i), max(x.bw.m, y.bw.m), min(x.bw.n, y.bw.n))


def ref_pairing1(G, f):
    w = f.window
    if G.extension is None:
        if f.tag == "D":
            if not (G.window.lo <= f.window.lo and G.window.hi >= f.window.hi):
                raise WindowError("unseen")
        else:
            w = Window(max(G.window.lo, f.window.lo), min(G.window.hi, f.window.hi))
            if w.lo > f.window.lo:
                raise WindowError("germ")
    elif G.extension[0] == "zero_up" and f.tag != "D" and G.window.hi > f.window.hi:
        raise WindowError("escapes")
    return tables.dot(ref_dist_at(G, w), ref_fn_at(f, w), G.p)


# ---------------------------------------------------------------------------
# moves
# ---------------------------------------------------------------------------


def outcome(move, *args):
    try:
        return move(*args)
    except WindowError:
        return WindowError


def assert_moves(make, targets, ref, new):
    """Every move of make(w) for w in targets: the reference's result or refusal."""
    allowed = 0
    for w in targets:
        x = make(w)
        for w2 in targets:
            expect = outcome(ref, x, w2)
            got = outcome(new, x, w2)
            assert got == expect, (x, w2)
            allowed += expect is not WindowError
    return allowed


def c1_cases():
    for fld in FIELDS:
        for model in c1_models(fld):
            yield pytest.param(model, id=f"q{fld.q}-{model.label}")


@pytest.mark.parametrize("model", list(c1_cases()))
def test_c1_moves_match_the_reference(model):
    rng = random.Random(model.field.q)
    fld, allowed = model.field, 0
    for tag in ("D", "E", "ET"):
        allowed += assert_moves(
            lambda w: C1Fn(model, tag, w, rand_rows(rng, fld, window_dim(model, w))),
            WINDOWS, ref_fn_at, lambda f, w: f.at(w).table,
        )
    for ext in (None, ("zero_up",), ("haar", Fraction(3, 2), 1)):
        allowed += assert_moves(
            lambda w: C1Dist(model, "Dp", w, rand_rows(rng, fld, window_dim(model, w)), ext),
            WINDOWS, ref_dist_at, lambda G, w: G.at(w).table,
        )
    # every kind both moves and refuses somewhere
    assert 3 * len(WINDOWS) < allowed < 6 * len(WINDOWS) ** 2


def c2_cases():
    for fld in FIELDS:
        for model in c2_models(fld):
            yield pytest.param(model, id=f"q{fld.q}-{model.label}")


@pytest.mark.parametrize("model", list(c2_cases()))
def test_c2_moves_match_the_reference(model):
    rng = random.Random(model.field.q + 7)
    fld = model.field

    def twisted(cls, ref):
        def make(bw):
            vm = VirtualMeasure(model, *((bw.l, 1) if cls is D2Elem else (1, bw.l)), Fraction(2, 3))
            return cls(model, 1, bw, rand_rows(rng, fld, bw_dim(model, bw)), vm)

        def new(x, bw2):
            y = x.at(bw2)
            assert y.bw == bw2 and (y.o, y.model) == (x.o, x.model)
            return y.table, y.twist

        return assert_moves(make, BIWINDOWS, ref, new)

    allowed = twisted(D2Elem, ref_d2elem_at) + twisted(D2Dist, ref_d2dist_at)
    for tag in ("E2", "E2t", "E2p", "E2tp"):
        allowed += assert_moves(
            lambda bw: E2Fn(model, tag, bw, rand_rows(rng, fld, bw_dim(model, bw))),
            BIWINDOWS, ref_e2_at, lambda x, bw2: x.at(bw2).table,
        )
    assert 6 * len(BIWINDOWS) < allowed < 6 * len(BIWINDOWS) ** 2


# ---------------------------------------------------------------------------
# common windows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f"q{f.q}")
def test_c1_meets_match_the_reference(fld):
    rng = random.Random(fld.q + 3)
    model = laurent_model(fld)
    fns = [
        C1Fn(model, tag, w, rand_rows(rng, fld, window_dim(model, w)))
        for tag in ("D", "E", "ET") for w in WINDOWS
    ]
    for f, g in itertools.product(fns, repeat=2):
        meet = outcome(ref_fn_window, f, g)
        assert outcome(common_window, f.dirs, f.window, g.dirs, g.window) == meet
        product = outcome(fn_mul, f, g)
        assert (product if meet is WindowError else product.window) == meet
        if meet is WindowError:
            assert outcome(fn_equal, f, g) is WindowError
        else:
            assert fn_equal(f, g) == (ref_fn_at(f, meet) == ref_fn_at(g, meet))
            assert fn_equal(f, f.at(meet))


def test_c2_meets_match_the_reference():
    fld = FIELDS[1]
    model = k2_model(fld)
    rng = random.Random(5)

    def rep(cls, bw):
        ends = (bw.l, 0) if cls is D2Elem else (0, bw.l)
        return cls(model, 0, bw, rand_rows(rng, fld, bw_dim(model, bw)), VirtualMeasure(model, *ends, Fraction(1)))

    elems, dists = ([rep(cls, bw) for bw in BIWINDOWS] for cls in (D2Elem, D2Dist))
    for reps, ref, equal, ref_at in (
        (elems, ref_d2_window, d2_equal, ref_d2elem_at),
        (dists, ref_d2dist_window, d2_equal, ref_d2dist_at),
    ):
        for x, y in itertools.product(reps, repeat=2):
            meet = outcome(ref, x, y)
            assert outcome(common_window, x.dirs, x.bw, y.dirs, y.bw) == meet
            if meet is WindowError:
                assert outcome(equal, x, y) is WindowError
                continue
            (tx, vx), (ty, vy) = ref_at(x, meet), ref_at(y, meet)
            assert equal(x, y) == (tables.scale(tx, vx.scalar) == tables.scale(ty, vy.scalar))
            assert equal(x, x.at(meet))


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f"q{f.q}")
def test_pairing_and_translation_match_the_reference(fld):
    # pairing1 and translate_fn leave their refusals to the moves
    rng = random.Random(fld.q + 9)
    model = laurent_model(fld)
    fns = [
        C1Fn(model, tag, w, rand_rows(rng, fld, window_dim(model, w)))
        for tag in ("D", "E") for w in WINDOWS
    ]
    dists = [
        C1Dist(model, "Dp", w, rand_rows(rng, fld, window_dim(model, w)), ext)
        for ext in (None, ("zero_up",), ("haar", Fraction(2), 0)) for w in WINDOWS
    ]
    for G, f in itertools.product(dists, fns):
        assert outcome(pairing1, G, f) == outcome(ref_pairing1, G, f)
    for f in fns:
        for k in range(-3, 4):
            moved = outcome(translate_fn, f, {k: 1})
            if f.tag != "D" and k >= f.window.hi:
                assert moved is WindowError
            else:
                assert moved.window.hi == max(f.window.hi, k + 1)
