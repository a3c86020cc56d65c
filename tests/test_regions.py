"""Two-dimensional region queries against the per-column scans they replace.

A ``C2Model`` answers every region query with one loop over its boxes,
counting each axis with ``c1.overlap``.  The reference below is the earlier
form: a column lookup (``col_interval``) and a scan over every column of
the range.  On every model of the families below, every query must agree
with it for all ranges in [-3, 3].  The rectangle counts are now signed in
each axis like ``C1Model.dim_between``, so on a reversed range the
reference is minus the count of the same range in order.
"""

import itertools

import pytest

from fqharmonic.c1 import CapabilityError, overlap
from fqharmonic.c2 import (
    BiWindow,
    C2Model,
    box_model,
    bw_dim,
    dual_model2,
    k2_model,
    positions2,
    shift_region,
)
from fqharmonic.c2_triples import inner_cut_triple, outer_cut_triple
from fqharmonic.exactnum import DomainError, field_for

F2 = field_for(2)
RANGE = range(-3, 4)
EDGES = (None, -1, 0, 1)


# ---------------------------------------------------------------------------
# the reference: per-column scans
# ---------------------------------------------------------------------------


def col_interval(model, a):
    for (a1, a2, b1, b2) in model.boxes:
        if (a1 is None or a >= a1) and (a2 is None or a < a2):
            return (b1, b2)
    return None


def in_region(model, a, b):
    col = col_interval(model, a)
    if col is None:
        return False
    b1, b2 = col
    return (b1 is None or b >= b1) and (b2 is None or b < b2)


def count_rect(model, a1, a2, b1, b2):
    total = 0
    for a in range(a1, a2):
        col = col_interval(model, a)
        if col is None:
            continue
        lo = b1 if col[0] is None else max(b1, col[0])
        hi = b2 if col[1] is None else min(b2, col[1])
        total += max(0, hi - lo)
    return total


def sigma(model, a1, a2, m):
    if m >= 0:
        return count_rect(model, a1, a2, 0, m)
    return -count_rect(model, a1, a2, m, 0)


def count_above(model, a1, a2):
    total = 0
    for a in range(a1, a2):
        col = col_interval(model, a)
        if col is None:
            continue
        if col[1] is None:
            raise CapabilityError("column unbounded above; not fiberwise compact")
        lo = 0 if col[0] is None else max(0, col[0])
        total += max(0, col[1] - lo)
    return total


def count_below(model, a1, a2):
    total = 0
    for a in range(a1, a2):
        col = col_interval(model, a)
        if col is None:
            continue
        if col[0] is None:
            raise CapabilityError("column unbounded below; not fiberwise discrete")
        hi = 0 if col[1] is None else min(0, col[1])
        total += max(0, hi - col[0])
    return total


def inner_sup(model, a1, a2):
    sup = None
    for a in range(a1, a2):
        col = col_interval(model, a)
        if col is None:
            continue
        if col[1] is None:
            return None
        sup = col[1] if sup is None else max(sup, col[1])
    return sup if sup is not None else 0


def inner_inf(model, a1, a2):
    inf = None
    for a in range(a1, a2):
        col = col_interval(model, a)
        if col is None:
            continue
        if col[0] is None:
            return None
        inf = col[0] if inf is None else min(inf, col[0])
    return inf if inf is not None else 0


def outer_sup(model):
    sup = None
    for (_a1, a2, _b1, _b2) in model.boxes:
        if a2 is None:
            return None
        sup = a2 if sup is None else max(sup, a2)
    return 0 if sup is None else sup


def outer_inf(model):
    inf = None
    for (a1, _a2, _b1, _b2) in model.boxes:
        if a1 is None:
            return None
        inf = a1 if inf is None else min(inf, a1)
    return 0 if inf is None else inf


def positions(model, bw):
    return tuple(
        (a, b) for a in range(bw.l, bw.i) for b in range(bw.m, bw.n) if in_region(model, a, b)
    )


def signed(f, model, lo, hi, *rest):
    """The reference over [lo, hi), minus that over [hi, lo) when reversed."""
    return f(model, lo, hi, *rest) if lo <= hi else -f(model, hi, lo, *rest)


def outcome(f, *args):
    """The value of f, or the class and message of the error it raises."""
    try:
        return f(*args)
    except CapabilityError as exc:
        return (CapabilityError, str(exc))


# ---------------------------------------------------------------------------
# the model families
# ---------------------------------------------------------------------------


def _zvezda_x(c1_, c2_):
    """The two-box X' models of the mixed-class base-change squares."""
    return (
        C2Model(F2, ((None, c1_, None, None), (c1_, None, None, c2_)), "X' cc_df"),
        C2Model(F2, ((None, c2_, None, None), (c2_, None, None, c1_)), "X' cf_dc"),
    )


def _moved(models):
    """The models with their duals, each shifted by -1..1 in both axes."""
    out = []
    for m in models:
        for x in (m, dual_model2(m)):
            out += [shift_region(x, da, db) for da in (-1, 0, 1) for db in (-1, 0, 1)]
    return out


def _families():
    K2 = k2_model(F2)
    boxes = [
        box_model(F2, a1, a2, b1, b2)
        for a1, a2, b1, b2 in itertools.product(EDGES, repeat=4)
    ]
    cuts = [
        member
        for cut in (-1, 0, 1)
        for T in (outer_cut_triple(K2, cut), inner_cut_triple(K2, cut))
        for member in (T.sub, T.quot)
    ]
    zvezda = [X for c1_ in (-1, 0, 1) for c2_ in (-1, 0, 1) for X in _zvezda_x(c1_, c2_)]
    families = {
        "k2": [K2],
        "boxes": boxes,
        "cut_members": cuts,
        "zvezda": zvezda,
        "moved": _moved(cuts + zvezda),
    }
    # one model per region within a family
    return {name: list({m.boxes: m for m in models}.values()) for name, models in families.items()}


FAMILIES = _families()
FAMILY_IDS = list(FAMILIES)


def test_families_cover_two_box_models():
    assert len(FAMILIES["cut_members"]) == 12
    assert any(len(m.boxes) == 2 for m in FAMILIES["zvezda"])
    assert any(len(m.boxes) == 2 for m in FAMILIES["moved"])
    assert any(m.is_empty for m in FAMILIES["boxes"])


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_in_region_and_outer_bounds(family):
    for model in FAMILIES[family]:
        assert model.outer_sup == outer_sup(model), model
        assert model.outer_inf == outer_inf(model), model
        for a, b in itertools.product(range(-4, 5), repeat=2):
            assert model.in_region(a, b) == in_region(model, a, b), (model, a, b)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_signed_rectangle_counts(family):
    for model in FAMILIES[family]:
        for a1, a2, b1, b2 in itertools.product(RANGE, repeat=4):
            sa, sb = (1 if a1 <= a2 else -1), (1 if b1 <= b2 else -1)
            ref = sa * sb * count_rect(model, min(a1, a2), max(a1, a2), min(b1, b2), max(b1, b2))
            assert model.count_rect(a1, a2, b1, b2) == ref, (model, a1, a2, b1, b2)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_column_range_queries(family):
    for model in FAMILIES[family]:
        for a1, a2 in itertools.product(RANGE, repeat=2):
            for m in RANGE:
                assert model.sigma(a1, a2, m) == signed(sigma, model, a1, a2, m), (model, a1, a2, m)
            assert outcome(model.count_above, a1, a2) == outcome(signed, count_above, model, a1, a2)
            assert outcome(model.count_below, a1, a2) == outcome(signed, count_below, model, a1, a2)
            assert model.inner_sup(a1, a2) == inner_sup(model, a1, a2), (model, a1, a2)
            assert model.inner_inf(a1, a2) == inner_inf(model, a1, a2), (model, a1, a2)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_positions_and_dimension(family):
    windows = [
        BiWindow(l, i, m, n)
        for l, i, m, n in itertools.product(RANGE, repeat=4)
        if l <= i and m <= n
    ]
    for model in FAMILIES[family]:
        for bw in windows:
            pos = positions2(model, bw)
            assert pos == positions(model, bw), (model, bw)
            assert bw_dim(model, bw) == len(pos), (model, bw)


def test_capability_errors_are_kept():
    K2 = k2_model(F2)
    with pytest.raises(CapabilityError, match="unbounded above; not fiberwise compact"):
        K2.count_above(0, 1)
    with pytest.raises(CapabilityError, match="unbounded below; not fiberwise discrete"):
        K2.count_below(1, 0)
    # no column in the range: nothing to bound
    E = box_model(F2, 0, 1, None, None)
    assert E.count_above(1, 3) == E.count_below(-2, 0) == 0
    with pytest.raises(CapabilityError):
        E.count_above(3, -2)


def test_overlap_matches_a_brute_force_count():
    probe = range(-8, 9)
    ends = (None, -2, -1, 0, 1, 2)
    for lo, hi, a, b in itertools.product(ends, repeat=4):
        if (lo is None and a is None) or (hi is None and b is None):
            continue  # unbounded: no finite count

        def inside(k, lo_, hi_):
            return (lo_ is None or k >= lo_) and (hi_ is None or k < hi_)

        brute = sum(1 for k in probe if inside(k, lo, hi) and inside(k, a, b))
        assert overlap(lo, hi, a, b) == brute, (lo, hi, a, b)


@pytest.mark.parametrize("boxes", [
    ((None, 1, 0, 1), (0, None, 0, 1)),
    ((-1, 1, None, None), (0, 2, 0, 1)),
    ((None, None, 0, 1), (5, 6, 0, 1)),
    ((0, 3, 0, 1), (1, 2, 5, 6)),
])
def test_overlapping_column_ranges_are_refused(boxes):
    with pytest.raises(DomainError, match="disjoint column ranges"):
        C2Model(F2, boxes)


def test_touching_column_ranges_are_accepted():
    model = C2Model(F2, ((0, None, 0, 1), (None, 0, None, None)))
    assert model.boxes == ((None, 0, None, None), (0, None, 0, 1))
    # a box empty on either axis is dropped before the test
    assert C2Model(F2, ((None, None, 1, 1), (0, 1, 0, 1))).boxes == ((0, 1, 0, 1),)
