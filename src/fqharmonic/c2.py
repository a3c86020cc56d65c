"""Doubly-filtered spaces: monomial region models, virtual measures, and the
two-dimensional function/distribution representatives.

A model is a region of monomial slots (a, b) in the integer plane, with the
outer filtration cutting on a and the inner one on b.  The region is a
sorted list of boxes with disjoint column ranges, each box a pair of slot
intervals (a_lo, a_hi, b_lo, b_hi), None meaning unbounded: the 2d form of
``c1``'s interval models.  This family covers iterated Laurent/power series
models, their quotients, and everything the verification suites need.

Every region query is one loop over the boxes that meet its column range,
counting each axis with ``c1.overlap``, the count ``C1Model`` uses.  A
rectangle count is signed in each axis like ``C1Model.dim_between``: a
reversed range counts negatively, so a volume between two cuts needs no
case split on their order.

Virtual measures comparing two outer filtration members are scalars in the
reference basis whose basis element converts the Haar measure normalized to 1
on the standard inner-0 lattice of one quotient into the same normalization
of the other; stability of this basis under lowering the comparison level is
an exactly checked identity, not an assumption.

All volume bookkeeping appears as explicit powers of q computed from region
counts; every transport rule keeps tables and twists exactly consistent.

Each representative states once which way each bi-window edge (l, i | m, n)
moves canonically, down (v) or up (^), and every move and every common
window follows from that through the one rule of ``c1``:

    D2Elem            l ^, i v  |  m v, n ^
    D2Dist            l v, i ^  |  m ^, n v
    E2Fn E2 / E2t     l v, i v  |  m v, n v
    E2Fn E2p / E2tp   l ^, i ^  |  m ^, n ^

The twisted moves add only their outer volume factor and their twist.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from fqharmonic import tables
from fqharmonic.c1 import (
    DOWN, UP, POSITION_CACHE, CapabilityError, TableRep, WindowError, common_window, hull, mirror, nonempty, overlap,
    shifted, window_move,
)
from fqharmonic.exactnum import CycNum, DomainError, FqField, q_power
from fqharmonic.tables import Rows

Box = tuple  # (a_lo, a_hi, b_lo, b_hi), None = unbounded


def _normalize_boxes(boxes) -> tuple[Box, ...]:
    keep = [(a1, a2, b1, b2) for (a1, a2, b1, b2) in boxes if nonempty(a1, a2) and nonempty(b1, b2)]
    keep.sort(key=lambda bx: (bx[0] is not None, bx[0] if bx[0] is not None else 0))
    for (x, y) in itertools.combinations(keep, 2):
        lo1, hi1, lo2, hi2 = x[0], x[1], y[0], y[1]
        disjoint = (hi1 is not None and lo2 is not None and hi1 <= lo2) or (
            hi2 is not None and lo1 is not None and hi2 <= lo1
        )
        if not disjoint:
            raise DomainError("model boxes must have disjoint column ranges")
    return tuple(keep)


@dataclass(frozen=True)
class C2Model:
    """Monomial region model: column a carries the b-interval of its box."""

    field: FqField
    boxes: tuple[Box, ...]
    label: str = dataclass_field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", _normalize_boxes(self.boxes))
        if not self.label:
            object.__setattr__(self, "label", str(self.boxes))
        # computed once, as ``C1Model`` computes its hash
        object.__setattr__(self, "_hash", hash((self.field, self.boxes)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"C2Model({self.label})"

    # -- region queries

    def in_region(self, a: int, b: int) -> bool:
        for (a1, a2, b1, b2) in self.boxes:
            if overlap(a1, a2, a, a + 1):
                return overlap(b1, b2, b, b + 1) == 1
        return False

    def count_rect(self, a1: int, a2: int, b1: int, b2: int) -> int:
        """Slots in [a1, a2) x [b1, b2), signed in each axis like
        ``C1Model.dim_between``: a reversed range counts negatively."""
        sign = 1
        if a2 < a1:
            a1, a2, sign = a2, a1, -sign
        if b2 < b1:
            b1, b2, sign = b2, b1, -sign
        total = 0
        for (x1, x2, y1, y2) in self.boxes:
            total += overlap(x1, x2, a1, a2) * overlap(y1, y2, b1, b2)
        return sign * total

    def sigma(self, a1: int, a2: int, m: int) -> int:
        """Reference-lattice volume exponent of the inner cut m over [a1, a2)."""
        return self.count_rect(a1, a2, 0, m)

    def count_above(self, a1: int, a2: int) -> int:
        """Slots with b >= 0 over the column range; needs bounded columns."""
        sup = self._inner_hull(min(a1, a2), max(a1, a2))[1]
        if sup is None:
            raise CapabilityError("column unbounded above; not fiberwise compact")
        return self.count_rect(a1, a2, 0, sup)

    def count_below(self, a1: int, a2: int) -> int:
        """Slots with b < 0 over the column range; needs bounded-below columns."""
        inf = self._inner_hull(min(a1, a2), max(a1, a2))[0]
        if inf is None:
            raise CapabilityError("column unbounded below; not fiberwise discrete")
        return self.count_rect(a1, a2, inf, 0)

    # -- classification

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    @property
    def outer_sup(self) -> Optional[int]:
        """Cut at/above which all columns are empty (compact outer type)."""
        return hull(self.boxes)[1]

    @property
    def outer_inf(self) -> Optional[int]:
        return hull(self.boxes)[0]

    @property
    def is_c(self) -> bool:
        return self.outer_sup is not None

    @property
    def is_d(self) -> bool:
        return self.outer_inf is not None

    @property
    def is_cf(self) -> bool:
        return all(b2 is not None for (_a1, _a2, _b1, b2) in self.boxes)

    @property
    def is_df(self) -> bool:
        return all(b1 is not None for (_a1, _a2, b1, _b2) in self.boxes)

    def _inner_hull(self, a1: int, a2: int) -> tuple[Optional[int], Optional[int]]:
        """``c1.hull`` of the b-intervals of the columns in [a1, a2)."""
        met = []
        for (x1, x2, y1, y2) in self.boxes:
            if overlap(x1, x2, a1, a2):
                met.append((y1, y2))
        return hull(met)

    def inner_sup(self, a1: int, a2: int) -> Optional[int]:
        """Largest column top over the range (None if some column is unbounded)."""
        return self._inner_hull(a1, a2)[1]

    def inner_inf(self, a1: int, a2: int) -> Optional[int]:
        return self._inner_hull(a1, a2)[0]


def k2_model(field: FqField, label: str = "K2") -> C2Model:
    return C2Model(field, ((None, None, None, None),), label)


def box_model(field: FqField, a_lo, a_hi, b_lo, b_hi, label: str = "") -> C2Model:
    return C2Model(field, ((a_lo, a_hi, b_lo, b_hi),), label)


@lru_cache(maxsize=POSITION_CACHE)
def dual_model2(m: C2Model) -> C2Model:
    """Region mirrored under (a, b) -> (-a-1, -b-1); kept by value, as
    ``positions2`` is, for the transform, the dual triple and the dual measure."""
    boxes = tuple((*mirror(a1, a2), *mirror(b1, b2)) for (a1, a2, b1, b2) in m.boxes)
    return C2Model(m.field, boxes, f"dual({m.label})")


def shift_region(m: C2Model, da: int, db: int, label: str = "") -> C2Model:
    boxes = tuple((*shifted(a1, a2, da), *shifted(b1, b2, db)) for (a1, a2, b1, b2) in m.boxes)
    return C2Model(m.field, boxes, label or f"{m.label}+({da},{db})")


# ---------------------------------------------------------------------------
# bi-windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BiWindow:
    l: int
    i: int
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.l > self.i or self.m > self.n:
            raise WindowError(f"bad bi-window {self}")

    @property
    def edges(self) -> tuple[int, int, int, int]:
        return self.l, self.i, self.m, self.n

    def dual(self) -> "BiWindow":
        return BiWindow(-self.i, -self.l, -self.n, -self.m)

    def __repr__(self) -> str:
        return f"BW({self.l},{self.i}|{self.m},{self.n})"


@lru_cache(maxsize=POSITION_CACHE)
def positions2(model: C2Model, bw: BiWindow) -> tuple[tuple[int, int], ...]:
    """The region slots (a, b) of the bi-window, a-major: the boxes are sorted
    by column and disjoint, so box by box is column by column.  Kept by value,
    as ``c1.positions`` is."""
    out: list = []
    for (a1, a2, b1, b2) in model.boxes:
        na, nb = overlap(a1, a2, bw.l, bw.i), overlap(b1, b2, bw.m, bw.n)
        a0 = bw.l if a1 is None else max(a1, bw.l)
        b0 = bw.m if b1 is None else max(b1, bw.m)
        out += [(a, b) for a in range(a0, a0 + na) for b in range(b0, b0 + nb)]
    return tuple(out)


def bw_dim(model: C2Model, bw: BiWindow) -> int:
    return model.count_rect(bw.l, bw.i, bw.m, bw.n)


# ---------------------------------------------------------------------------
# virtual measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VirtualMeasure:
    """Scalar coordinate in the reference basis of mu(F(src) | F(dst))."""

    model: C2Model
    src: int
    dst: int
    scalar: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.scalar, Fraction) or self.scalar == 0:
            raise DomainError(f"a virtual measure is a nonzero Fraction, not {self.scalar!r}")
        if not isinstance(self.src, int) or not isinstance(self.dst, int):
            raise DomainError(f"a virtual measure's ends are int cuts, not {self.src!r} and {self.dst!r}")

    def compose(self, other: "VirtualMeasure") -> "VirtualMeasure":
        if self.model != other.model:
            raise DomainError("virtual measures on different models")
        if self.dst != other.src:
            raise DomainError(f"index mismatch: {self.dst} vs {other.src}")
        return VirtualMeasure(self.model, self.src, other.dst, self.scalar * other.scalar)

    def inverse(self) -> "VirtualMeasure":
        return VirtualMeasure(self.model, self.dst, self.src, Fraction(1) / self.scalar)

    def scaled(self, c: Fraction) -> "VirtualMeasure":
        return VirtualMeasure(self.model, self.src, self.dst, self.scalar * c)

    def on_dual(self) -> "VirtualMeasure":
        """The same element under the duality identification (scalar kept)."""
        return VirtualMeasure(dual_model2(self.model), -self.src, -self.dst, self.scalar)


@lru_cache(maxsize=POSITION_CACHE)
def vmeas_canonical(model: C2Model, i: int, j: int, kind: str) -> VirtualMeasure:
    """The canonical total-mass-1 (fiberwise compact) or unit-point-mass
    (fiberwise discrete) element of mu(F(i) | F(j)); kept by value, as
    ``positions2`` is, since each image of a fiberwise side reads it."""
    if kind == "one":
        if not model.is_cf:
            raise CapabilityError("canonical mass-1 elements need a fiberwise compact model")
        return VirtualMeasure(model, i, j, q_power(model.field.q, -model.count_above(i, j)))
    if kind == "delta":
        if not model.is_df:
            raise CapabilityError("canonical point-mass elements need a fiberwise discrete model")
        return VirtualMeasure(model, i, j, q_power(model.field.q, model.count_below(i, j)))
    raise DomainError(f"unknown canonical kind {kind!r}")


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class BiWindowRep(TableRep):
    """A representative on the bi-window ``bw``."""

    @property
    def dim(self) -> int:
        return bw_dim(self.model, self.bw)

    def _moved(self, bw2: BiWindow) -> Rows:
        """The table moved to bw2 by the window rule of the edge directions."""
        model = self.model
        src_pos, dst_pos = positions2(model, self.bw), positions2(model, bw2)
        summed, zeroed = window_move(self.dirs, self.bw, bw2, src_pos, dst_pos)
        return tables.transport(self.table, model.field.q, src_pos, dst_pos, summed, zeroed)


class TwistedRep(BiWindowRep):
    """A representative of a twisted space: the window table tensored with a
    twist, one element of the one-dimensional space of virtual measures
    between the window bottom F(bw.l) and the basepoint F(o).  In the pinned
    reference basis that space is Q, so ``twist`` is a nonzero Fraction: the
    reference coordinate of mu(F(bw.l) | F(o)) for a function and of
    mu(F(o) | F(bw.l)) for a distribution.  A move of the window keeps it."""

    def __post_init__(self) -> None:
        if not isinstance(self.twist, Fraction) or self.twist == 0:
            raise DomainError(f"a twist is a nonzero Fraction, not {self.twist!r}")
        super().__post_init__()

    def folded(self) -> Rows:
        return tables.scale(self.table, self.twist)


@dataclass(frozen=True, eq=False)
class D2Elem(TwistedRep):
    """Window representative of a measure-twisted test function."""

    model: C2Model
    o: int
    bw: BiWindow
    table: Rows
    twist: Fraction

    dirs = (UP, DOWN, DOWN, UP)

    def at(self, bw2: BiWindow) -> "D2Elem":
        if bw2 == self.bw:
            return self
        model, bw, moved = self.model, self.bw, self._moved(bw2)
        factor = q_power(model.field.q, model.sigma(bw.l, bw2.l, bw.m))
        return D2Elem(model, self.o, bw2, tables.scale(moved, factor), self.twist)


@dataclass(frozen=True, eq=False)
class D2Dist(TwistedRep):
    """Window representative of a measure-twisted distribution (pairing table)."""

    model: C2Model
    o: int
    bw: BiWindow
    table: Rows
    twist: Fraction

    dirs = (DOWN, UP, UP, DOWN)

    def at(self, bw2: BiWindow) -> "D2Dist":
        if bw2 == self.bw:
            return self
        model, bw, moved = self.model, self.bw, self._moved(bw2)
        # the kernel pullback is scaled at the destination inner level
        factor = q_power(model.field.q, model.sigma(bw2.l, bw.l, bw2.m))
        return D2Dist(model, self.o, bw2, tables.scale(moved, factor), self.twist)


E2_TAGS = ("E2", "E2t", "E2p", "E2tp")
GERM_TAGS = ("E2", "E2t")


@dataclass(frozen=True, eq=False)
class E2Fn(BiWindowRep):
    """Untwisted germ (E2/E2t) or compactly-supported dual (E2p/E2tp)."""

    model: C2Model
    tag: str
    bw: BiWindow
    table: Rows

    def __post_init__(self) -> None:
        if self.tag not in E2_TAGS:
            raise DomainError(f"bad tag {self.tag!r}")
        super().__post_init__()

    @property
    def dirs(self) -> tuple:
        return (DOWN,) * 4 if self.tag in GERM_TAGS else (UP,) * 4

    def at(self, bw2: BiWindow) -> "E2Fn":
        if bw2 == self.bw:
            return self
        return E2Fn(self.model, self.tag, bw2, self._moved(bw2))


def e2_constant_one(model: C2Model, bw: BiWindow) -> E2Fn:
    return E2Fn(model, "E2", bw, tables.const_kron(model.field.p, 1, model.field.q, bw_dim(model, bw)))


# ---------------------------------------------------------------------------
# pairings, module structure, basepoint change
# ---------------------------------------------------------------------------


def d2_equal(x, y) -> bool:
    """Equality of two D2Elem or two D2Dist, folded on their common window."""
    if x.model != y.model or x.o != y.o:
        return False
    bw = common_window(x.dirs, x.bw, y.dirs, y.bw)
    return x.at(bw).folded() == y.at(bw).folded()


def pairing2(f: D2Elem, G: D2Dist) -> CycNum:
    """<f, G>: twists contract through the basepoint."""
    if f.model != G.model or f.o != G.o:
        raise DomainError("pairing needs matching model and basepoint")
    bw = BiWindow(G.bw.l, G.bw.i, f.bw.m, f.bw.n)
    fa = f.at(bw)
    Ga = G.at(bw)
    val = tables.dot(fa.table, Ga.table, f.p)
    return val * (fa.twist * Ga.twist)


def pairing2_e(f: E2Fn, G: E2Fn) -> CycNum:
    """Pairing of a germ with a compactly-supported dual representative."""
    if f.model != G.model:
        raise DomainError("pairing needs a common model")
    if f.tag not in GERM_TAGS or G.tag in GERM_TAGS:
        raise DomainError("pairing needs a germ and a dual representative")
    # the germ's move refuses a dual support it does not reach down to
    return tables.dot(f.at(G.bw).table, G.table, f.p)


def module_mul(g: E2Fn, x):
    """Multiplication by a germ; twists are untouched."""
    if g.tag not in GERM_TAGS:
        raise DomainError("module action needs a germ factor")
    if isinstance(x, (D2Elem, D2Dist)):
        return replace(x, table=tables.mul_pointwise(g.at(x.bw).table, x.table))
    if isinstance(x, E2Fn):
        if x.tag not in GERM_TAGS:
            raise DomainError("a germ times a dual representative is not defined")
        bw = common_window(g.dirs, g.bw, x.dirs, x.bw)
        tag = "E2" if "E2" in (g.tag, x.tag) else "E2t"
        return E2Fn(x.model, tag, bw, tables.mul_pointwise(g.at(bw).table, x.at(bw).table))
    raise DomainError("unsupported module target")


def basepoint_change(x, vm: VirtualMeasure):
    """Retwist to a new basepoint along a comparison measure."""
    if not isinstance(x, (D2Elem, D2Dist)):
        raise DomainError("basepoint change applies to twisted representatives")
    if vm.model != x.model:
        raise DomainError("comparison measure on a different model")
    if isinstance(x, D2Elem):
        if vm.src != x.o:
            raise DomainError("comparison must start at the old basepoint")
        return D2Elem(x.model, vm.dst, x.bw, x.table, x.twist * vm.scalar)
    if vm.dst != x.o:
        raise DomainError("comparison must end at the old basepoint")
    return D2Dist(x.model, vm.src, x.bw, x.table, vm.scalar * x.twist)


# ---------------------------------------------------------------------------
# the two-dimensional Fourier transform
# ---------------------------------------------------------------------------


def fourier2(x):
    """Levelwise transform with exact reference-volume bookkeeping."""
    if not isinstance(x, (D2Elem, D2Dist, E2Fn)):
        raise DomainError("unsupported transform input")
    model, bw = x.model, x.bw
    q, dm = model.field.q, dual_model2(model)
    if isinstance(x, D2Elem):
        out = x.dual_table(q_power(q, model.sigma(bw.l, bw.i, bw.m)))
        return D2Elem(dm, -x.o, bw.dual(), out, x.twist)
    if isinstance(x, D2Dist):
        out = x.dual_table(q_power(q, -model.sigma(bw.l, bw.i, bw.n)))
        return D2Dist(dm, -x.o, bw.dual(), out, x.twist)
    if x.tag in GERM_TAGS:
        return E2Fn(dm, "E2tp" if x.tag == "E2" else "E2p", bw.dual(), x.dual_table(Fraction(1, q**x.dim)))
    return E2Fn(dm, "E2" if x.tag == "E2tp" else "E2t", bw.dual(), x.dual_table())
