"""One-dimensional models against the descriptor grammar they replace.

A ``C1Model`` is a flat list of slot intervals.  The reference below is the
earlier form: a descriptor tree (``full``, ``empty``, ``below``,
``atleast``, ``segment``, ``sum``, and ``shift`` nodes normalized away),
read by five recursive evaluators, and the quotient rule of
``interval_triple`` written on descriptors.  Every model the constructors
build from the families below must agree with its descriptor on every
multiplicity, every dimension between cuts in [-6, 6], its bounds, its
dual and its quotients; and two models are equal exactly when their
descriptors list the same leaves in the same order.
"""

import itertools
import random

import pytest

from fqharmonic.c1 import (
    Window,
    colattice_model,
    dual_model,
    laurent_model,
    lattice_model,
    segment_model,
    shift_model,
    sum_model,
    window_dim,
)
from fqharmonic.c1_triples import interval_triple
from fqharmonic.exactnum import DomainError, field_for

CUTS = range(-3, 4)
PROBE = range(-6, 7)


# ---------------------------------------------------------------------------
# the reference: descriptors and their evaluators
# ---------------------------------------------------------------------------


def normalize_desc(desc):
    kind = desc[0]
    if kind in ("full", "empty", "below", "atleast"):
        return desc
    if kind == "segment":
        return ("empty",) if desc[1] >= desc[2] else desc
    if kind == "sum":
        d1, d2 = normalize_desc(desc[1]), normalize_desc(desc[2])
        if d1 == ("empty",):
            return d2
        if d2 == ("empty",):
            return d1
        return ("sum", d1, d2)
    if kind == "shift":
        inner, s = normalize_desc(desc[1]), desc[2]
        if s == 0:
            return inner
        ik = inner[0]
        if ik in ("full", "empty"):
            return inner
        if ik == "below":
            return ("below", inner[1] + s)
        if ik == "atleast":
            return ("atleast", inner[1] + s)
        if ik == "segment":
            return ("segment", inner[1] + s, inner[2] + s)
        return ("sum", normalize_desc(("shift", inner[1], s)), normalize_desc(("shift", inner[2], s)))
    raise AssertionError(desc)


def desc_mult(desc, k):
    kind = desc[0]
    if kind == "full":
        return 1
    if kind == "empty":
        return 0
    if kind == "below":
        return 1 if k < desc[1] else 0
    if kind == "atleast":
        return 1 if k >= desc[1] else 0
    if kind == "segment":
        return 1 if desc[1] <= k < desc[2] else 0
    return desc_mult(desc[1], k) + desc_mult(desc[2], k)


def desc_count(desc, a, b):
    if a >= b:
        return 0
    kind = desc[0]
    if kind == "full":
        return b - a
    if kind == "empty":
        return 0
    if kind == "below":
        return max(0, min(b, desc[1]) - a)
    if kind == "atleast":
        return max(0, b - max(a, desc[1]))
    if kind == "segment":
        return max(0, min(b, desc[2]) - max(a, desc[1]))
    return desc_count(desc[1], a, b) + desc_count(desc[2], a, b)


def desc_bounds(desc):
    kind = desc[0]
    if kind == "full":
        return None, None
    if kind == "empty":
        return 0, 0
    if kind == "below":
        return None, desc[1]
    if kind == "atleast":
        return desc[1], None
    if kind == "segment":
        return desc[1], desc[2]
    lo1, hi1 = desc_bounds(desc[1])
    lo2, hi2 = desc_bounds(desc[2])
    lo = None if lo1 is None or lo2 is None else min(lo1, lo2)
    hi = None if hi1 is None or hi2 is None else max(hi1, hi2)
    return lo, hi


def dual_desc(desc):
    kind = desc[0]
    if kind in ("full", "empty"):
        return desc
    if kind == "below":
        return ("atleast", -desc[1])
    if kind == "atleast":
        return ("below", -desc[1])
    if kind == "segment":
        return ("segment", -desc[2], -desc[1])
    # the dual lists its slot intervals in reverse, so the summands swap
    return ("sum", dual_desc(desc[2]), dual_desc(desc[1]))


def _interval_of(desc):
    kind = desc[0]
    if kind == "full":
        return (None, None)
    if kind == "empty":
        return (0, 0)
    if kind == "below":
        return (None, desc[1])
    if kind == "atleast":
        return (desc[1], None)
    if kind == "segment":
        return (desc[1], desc[2])
    raise DomainError(f"not an interval pattern: {desc!r}")


def _desc_of_interval(lo, hi):
    if lo is None and hi is None:
        return ("full",)
    if lo is None:
        return ("below", hi)
    if hi is None:
        return ("atleast", lo)
    return ("segment", lo, hi) if lo < hi else ("empty",)


def desc_minus(mid, sub):
    """The quotient descriptor of ``interval_triple`` before the interval lists."""
    if sub == ("empty",):
        return mid
    m1, m2 = _interval_of(mid)
    s1, s2 = _interval_of(sub)
    left = _desc_of_interval(m1, s1) if not (m1 is None and s1 is None) and s1 is not None else ("empty",)
    if s1 is not None and m1 is not None and s1 <= m1:
        left = ("empty",)
    right = _desc_of_interval(s2, m2) if s2 is not None else ("empty",)
    if s2 is None:
        right = ("empty",)
    if left == ("empty",):
        return right
    if right == ("empty",):
        return left
    return ("sum", left, right)


def leaves(desc):
    """The leaves of a normalized descriptor in slot order, as intervals."""
    if desc[0] == "sum":
        return leaves(desc[1]) + leaves(desc[2])
    return () if desc == ("empty",) else (_interval_of(desc),)


# ---------------------------------------------------------------------------
# the models the constructors build, each with its descriptor
# ---------------------------------------------------------------------------


def singles(fld):
    """(descriptor, model) for laurent, lattice, colattice and segment models."""
    out = [(("full",), laurent_model(fld))]
    for c in CUTS:
        out.append((("below", c), lattice_model(fld, c)))
        out.append((("atleast", c), colattice_model(fld, c)))
    for a, b in itertools.product(CUTS, CUTS):
        out.append((normalize_desc(("segment", a, b)), segment_model(fld, a, b)))
    return out


def summed(x, y):
    return normalize_desc(("sum", x[0], y[0])), sum_model(x[1], y[1])


def family(fld):
    """Singles, sums of two and three (both nestings), their shifts and duals."""
    base = singles(fld)
    rng = random.Random(fld.q)
    pairs = [summed(x, y) for x, y in itertools.product(base, base)]
    triples = []
    for _ in range(100):
        x, y, z = rng.choice(base), rng.choice(base), rng.choice(base)
        triples += [summed(summed(x, y), z), summed(x, summed(y, z))]
    models = base + pairs[::13] + triples
    shifted = [
        (normalize_desc(("shift", d, s)), shift_model(m, s))
        for d, m in models[::5] for s in range(-2, 3)
    ]
    duals = [(dual_desc(d), dual_model(m)) for d, m in models + shifted]
    return models + shifted + duals


def assert_agrees(desc, model):
    assert model.intervals == leaves(desc)
    assert [model.mult(k) for k in PROBE] == [desc_mult(desc, k) for k in PROBE]
    for i, j in itertools.product(PROBE, PROBE):
        expect = desc_count(desc, i, j) if i <= j else -desc_count(desc, j, i)
        assert model.dim_between(i, j) == expect, (desc, i, j)
    assert model.bounds == desc_bounds(desc)


@pytest.mark.parametrize("q", [2, 3])
def test_models_agree_with_their_descriptors(q):
    for desc, model in family(field_for(q)):
        assert_agrees(desc, model)


@pytest.mark.parametrize("q", [2, 3])
def test_model_equality_is_the_leaf_list(q):
    # equal descriptors give equal models; beyond that only sums that nest
    # the same leaves differently become equal
    by_desc, by_leaves, by_model = {}, {}, {}
    for desc, model in family(field_for(q)):
        by_desc.setdefault(desc, []).append(model)
        by_leaves.setdefault(leaves(desc), set()).add(model)
        by_model.setdefault(model, set()).add(leaves(desc))
    for models in by_desc.values():
        assert all(m == models[0] and hash(m) == hash(models[0]) for m in models)
    assert all(len(models) == 1 for models in by_leaves.values())
    assert all(len(keys) == 1 for keys in by_model.values())
    assert laurent_model(field_for(2)) != laurent_model(field_for(4))


@pytest.mark.parametrize("q", [2, 3])
def test_interval_triple_quotients(q):
    fld = field_for(q)
    base = singles(fld)
    for (dm, mid), (ds, sub) in itertools.product(base, base):
        try:
            T = interval_triple(mid, sub)
        except DomainError:
            assert any(desc_mult(ds, k) > desc_mult(dm, k) for k in PROBE)
            continue
        expect = normalize_desc(desc_minus(dm, ds))
        assert_agrees(expect, T.quot)
        assert [T.quot.mult(k) for k in PROBE] == [desc_mult(dm, k) - desc_mult(ds, k) for k in PROBE]
    # a sum is no interval pattern, except as the mid of an empty sub
    two = sum_model(lattice_model(fld, -1), colattice_model(fld, 1))
    empty = segment_model(fld, 0, 0)
    assert interval_triple(two, empty).quot == two
    for mid, sub in ((laurent_model(fld), two), (two, lattice_model(fld, -2))):
        with pytest.raises(DomainError, match="not an interval pattern"):
            interval_triple(mid, sub)


@pytest.mark.parametrize("q", [2, 3])
def test_window_dim_is_the_slot_count(q):
    # window_dim reads the length of the cached slot labels; it must be the
    # count of graded slots the interval loop gives, on every window
    windows = [Window(lo, hi) for lo, hi in itertools.product(range(-3, 4), repeat=2) if lo <= hi]
    for _desc, model in family(field_for(q)):
        for w in windows:
            assert window_dim(model, w) == model.count(w.lo, w.hi), (model, w)
