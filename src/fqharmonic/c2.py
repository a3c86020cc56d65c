"""Doubly-filtered spaces: monomial region models, virtual measures, and the
two-dimensional function/distribution representatives.

A model is a region of monomial slots (a, b) in the integer plane, with the
outer filtration cutting on a and the inner one on b; each column of the
region must be a b-interval.  This family covers iterated Laurent/power
series models, their quotients, and everything the verification suites need.

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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from fqharmonic import tables
from fqharmonic.c1 import DOWN, UP, CapabilityError, TableRep, WindowError, common_window, mirror, window_move
from fqharmonic.exactnum import CycNum, DomainError, FqField
from fqharmonic.tables import Rows

Box = tuple  # (a_lo, a_hi, b_lo, b_hi), None = unbounded


def _normalize_boxes(boxes) -> tuple[Box, ...]:
    keep = []
    for (a1, a2, b1, b2) in boxes:
        if a1 is not None and a2 is not None and a1 >= a2:
            continue
        if b1 is not None and b2 is not None and b1 >= b2:
            continue
        keep.append((a1, a2, b1, b2))
    keep.sort(key=lambda bx: (bx[0] is not None, bx[0] if bx[0] is not None else 0))
    for (x, y) in itertools.combinations(keep, 2):
        lo1, hi1, lo2, hi2 = x[0], x[1], y[0], y[1]
        disjoint = (hi1 is not None and lo2 is not None and hi1 <= lo2) or (
            hi2 is not None and lo1 is not None and hi2 <= lo1
        )
        if not disjoint:
            raise DomainError("model boxes must have disjoint column ranges")
    return tuple(keep)


@dataclass(frozen=True, eq=False)
class C2Model:
    """Monomial region model: column a carries the b-interval of its box."""

    field: FqField
    boxes: tuple[Box, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", _normalize_boxes(self.boxes))
        if not self.label:
            object.__setattr__(self, "label", str(self.boxes))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, C2Model)
            and self.field == other.field
            and self.boxes == other.boxes
        )

    def __hash__(self) -> int:
        return hash((self.field, self.boxes))

    def __repr__(self) -> str:
        return f"C2Model({self.label})"

    # -- region queries

    def col_interval(self, a: int) -> Optional[tuple[Optional[int], Optional[int]]]:
        for (a1, a2, b1, b2) in self.boxes:
            if (a1 is None or a >= a1) and (a2 is None or a < a2):
                return (b1, b2)
        return None

    def in_region(self, a: int, b: int) -> bool:
        col = self.col_interval(a)
        if col is None:
            return False
        b1, b2 = col
        return (b1 is None or b >= b1) and (b2 is None or b < b2)

    def count_rect(self, a1: int, a2: int, b1: int, b2: int) -> int:
        total = 0
        for a in range(a1, a2):
            col = self.col_interval(a)
            if col is None:
                continue
            lo = b1 if col[0] is None else max(b1, col[0])
            hi = b2 if col[1] is None else min(b2, col[1])
            total += max(0, hi - lo)
        return total

    def sigma(self, a1: int, a2: int, m: int) -> int:
        """Reference-lattice volume exponent of the inner cut m over [a1, a2)."""
        if m >= 0:
            return self.count_rect(a1, a2, 0, m)
        return -self.count_rect(a1, a2, m, 0)

    def count_above(self, a1: int, a2: int) -> int:
        """Slots with b >= 0 over the column range; needs bounded columns."""
        total = 0
        for a in range(a1, a2):
            col = self.col_interval(a)
            if col is None:
                continue
            if col[1] is None:
                raise CapabilityError("column unbounded above; not fiberwise compact")
            lo = 0 if col[0] is None else max(0, col[0])
            total += max(0, col[1] - lo)
        return total

    def count_below(self, a1: int, a2: int) -> int:
        """Slots with b < 0 over the column range; needs bounded-below columns."""
        total = 0
        for a in range(a1, a2):
            col = self.col_interval(a)
            if col is None:
                continue
            if col[0] is None:
                raise CapabilityError("column unbounded below; not fiberwise discrete")
            hi = 0 if col[1] is None else min(0, col[1])
            total += max(0, hi - col[0])
        return total

    # -- classification

    @property
    def is_empty(self) -> bool:
        return not self.boxes

    @property
    def outer_sup(self) -> Optional[int]:
        """Cut at/above which all columns are empty (compact outer type)."""
        sup = None
        for (a1, a2, _b1, _b2) in self.boxes:
            if a2 is None:
                return None
            sup = a2 if sup is None else max(sup, a2)
        return 0 if sup is None else sup

    @property
    def outer_inf(self) -> Optional[int]:
        inf = None
        for (a1, a2, _b1, _b2) in self.boxes:
            if a1 is None:
                return None
            inf = a1 if inf is None else min(inf, a1)
        return 0 if inf is None else inf

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

    def inner_sup(self, a1: int, a2: int) -> Optional[int]:
        """Largest column top over the range (None if some column is unbounded)."""
        sup = None
        for a in range(a1, a2):
            col = self.col_interval(a)
            if col is None:
                continue
            if col[1] is None:
                return None
            sup = col[1] if sup is None else max(sup, col[1])
        return sup if sup is not None else 0

    def inner_inf(self, a1: int, a2: int) -> Optional[int]:
        inf = None
        for a in range(a1, a2):
            col = self.col_interval(a)
            if col is None:
                continue
            if col[0] is None:
                return None
            inf = col[0] if inf is None else min(inf, col[0])
        return inf if inf is not None else 0


def k2_model(field: FqField, label: str = "K2") -> C2Model:
    return C2Model(field, ((None, None, None, None),), label)


def box_model(field: FqField, a_lo, a_hi, b_lo, b_hi, label: str = "") -> C2Model:
    return C2Model(field, ((a_lo, a_hi, b_lo, b_hi),), label)


def dual_model2(m: C2Model) -> C2Model:
    """Region mirrored under (a, b) -> (-a-1, -b-1)."""
    boxes = []
    for (a1, a2, b1, b2) in m.boxes:
        ma = mirror(a1, a2)
        mb = mirror(b1, b2)
        boxes.append((ma[0], ma[1], mb[0], mb[1]))
    return C2Model(m.field, tuple(boxes), f"dual({m.label})")


def shift_region(m: C2Model, da: int, db: int, label: str = "") -> C2Model:
    boxes = []
    for (a1, a2, b1, b2) in m.boxes:
        boxes.append(
            (
                None if a1 is None else a1 + da,
                None if a2 is None else a2 + da,
                None if b1 is None else b1 + db,
                None if b2 is None else b2 + db,
            )
        )
    return C2Model(m.field, tuple(boxes), label or f"{m.label}+({da},{db})")


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


def positions2(model: C2Model, bw: BiWindow) -> tuple[tuple[int, int], ...]:
    return tuple(
        (a, b)
        for a in range(bw.l, bw.i)
        for b in range(bw.m, bw.n)
        if model.in_region(a, b)
    )


def bw_dim(model: C2Model, bw: BiWindow) -> int:
    return len(positions2(model, bw))


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
        if self.scalar == 0:
            raise DomainError("virtual measures are nonzero")

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


def vmeas_canonical(model: C2Model, i: int, j: int, kind: str) -> VirtualMeasure:
    """The canonical total-mass-1 (fiberwise compact) or unit-point-mass
    (fiberwise discrete) element of mu(F(i) | F(j))."""
    if kind == "one":
        if not model.is_cf:
            raise CapabilityError("canonical mass-1 elements need a fiberwise compact model")
        w = model.count_above(i, j) if i <= j else -model.count_above(j, i)
        return VirtualMeasure(model, i, j, Fraction(model.field.q) ** (-w))
    if kind == "delta":
        if not model.is_df:
            raise CapabilityError("canonical point-mass elements need a fiberwise discrete model")
        v = model.count_below(i, j) if i <= j else -model.count_below(j, i)
        return VirtualMeasure(model, i, j, Fraction(model.field.q) ** v)
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


@dataclass(frozen=True, eq=False)
class D2Elem(BiWindowRep):
    """Window representative of a measure-twisted test function."""

    model: C2Model
    o: int
    bw: BiWindow
    table: Rows
    twist: VirtualMeasure

    dirs = (UP, DOWN, DOWN, UP)

    def __post_init__(self) -> None:
        if self.twist.model != self.model or self.twist.src != self.bw.l or self.twist.dst != self.o:
            raise DomainError("twist must compare the window bottom with the basepoint")
        super().__post_init__()

    def at(self, bw2: BiWindow) -> "D2Elem":
        if bw2 == self.bw:
            return self
        model, bw, moved = self.model, self.bw, self._moved(bw2)
        factor = Fraction(model.field.q) ** model.sigma(bw.l, bw2.l, bw.m)
        return D2Elem(
            model, self.o, bw2, tables.scale(moved, factor),
            VirtualMeasure(model, bw2.l, self.o, self.twist.scalar),
        )

    def folded(self) -> Rows:
        return tables.scale(self.table, self.twist.scalar)

    def __add__(self, other: "D2Elem") -> "D2Elem":
        if self.model != other.model or self.o != other.o or self.bw != other.bw:
            raise DomainError("sum needs matching windows")
        return D2Elem(
            self.model, self.o, self.bw,
            tables.add(self.folded(), other.folded()),
            VirtualMeasure(self.model, self.bw.l, self.o, Fraction(1)),
        )


@dataclass(frozen=True, eq=False)
class D2Dist(BiWindowRep):
    """Window representative of a measure-twisted distribution (pairing table)."""

    model: C2Model
    o: int
    bw: BiWindow
    table: Rows
    twist: VirtualMeasure

    dirs = (DOWN, UP, UP, DOWN)

    def __post_init__(self) -> None:
        if self.twist.model != self.model or self.twist.src != self.o or self.twist.dst != self.bw.l:
            raise DomainError("twist must compare the basepoint with the window bottom")
        super().__post_init__()

    def at(self, bw2: BiWindow) -> "D2Dist":
        if bw2 == self.bw:
            return self
        model, bw, moved = self.model, self.bw, self._moved(bw2)
        # the kernel pullback is scaled at the destination inner level
        factor = Fraction(model.field.q) ** model.sigma(bw2.l, bw.l, bw2.m)
        return D2Dist(
            model, self.o, bw2, tables.scale(moved, factor),
            VirtualMeasure(model, self.o, bw2.l, self.twist.scalar),
        )

    def folded(self) -> Rows:
        return tables.scale(self.table, self.twist.scalar)


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
    p = model.field.p
    return E2Fn(model, "E2", bw, tables.const_table(CycNum.one(p), model.field.q, bw_dim(model, bw)))


# ---------------------------------------------------------------------------
# pairings, module structure, basepoint change
# ---------------------------------------------------------------------------


def d2_equal(x, y) -> bool:
    """Equality of two D2Elem or two D2Dist, folded on their common window."""
    if x.model != y.model or x.o != y.o:
        return False
    bw = common_window(x.dirs, x.bw, y.dirs, y.bw)
    return x.at(bw).folded() == y.at(bw).folded()


d2dist_equal = d2_equal


def pairing2(f: D2Elem, G: D2Dist) -> CycNum:
    """<f, G>: twists contract through the basepoint."""
    if f.model != G.model or f.o != G.o:
        raise DomainError("pairing needs matching model and basepoint")
    bw = BiWindow(G.bw.l, G.bw.i, f.bw.m, f.bw.n)
    fa = f.at(bw)
    Ga = G.at(bw)
    val = tables.dot(fa.table, Ga.table, f.p)
    return val * (fa.twist.scalar * Ga.twist.scalar)


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
    if isinstance(x, D2Elem):
        if vm.src != x.o:
            raise DomainError("comparison must start at the old basepoint")
        return D2Elem(x.model, vm.dst, x.bw, x.table, x.twist.compose(vm))
    if isinstance(x, D2Dist):
        if vm.dst != x.o:
            raise DomainError("comparison must end at the old basepoint")
        return D2Dist(x.model, vm.src, x.bw, x.table, vm.compose(x.twist))
    raise DomainError("basepoint change applies to twisted representatives")


# ---------------------------------------------------------------------------
# the two-dimensional Fourier transform
# ---------------------------------------------------------------------------


def _rev_fourier2(model: C2Model, bw: BiWindow, table: Rows, factor: Fraction = Fraction(1)) -> Rows:
    """Dot-pairing transform times factor, then the dual bi-window slot order."""
    q = model.field.q
    dim = bw_dim(model, bw)
    ft = tables.fourier(table, q, dim, model.field, factor)
    return tables.reverse_positions(ft, q, dim)


def fourier2(x):
    """Levelwise transform with exact reference-volume bookkeeping."""
    if isinstance(x, D2Elem):
        model, bw = x.model, x.bw
        q = model.field.q
        out = _rev_fourier2(model, bw, x.table, Fraction(q) ** model.sigma(bw.l, bw.i, bw.m))
        dm = dual_model2(model)
        return D2Elem(
            dm, -x.o, bw.dual(), out, VirtualMeasure(dm, -bw.i, -x.o, x.twist.scalar)
        )
    if isinstance(x, D2Dist):
        model, bw = x.model, x.bw
        q = model.field.q
        out = _rev_fourier2(model, bw, x.table, Fraction(q) ** (-model.sigma(bw.l, bw.i, bw.n)))
        dm = dual_model2(model)
        return D2Dist(
            dm, -x.o, bw.dual(), out, VirtualMeasure(dm, -x.o, -bw.i, x.twist.scalar)
        )
    if isinstance(x, E2Fn):
        model, bw = x.model, x.bw
        q = model.field.q
        dm = dual_model2(model)
        if x.tag in GERM_TAGS:
            dim = bw_dim(model, bw)
            out = _rev_fourier2(model, bw, x.table, Fraction(1, q**dim))
            tag = "E2tp" if x.tag == "E2" else "E2p"
        else:
            out = _rev_fourier2(model, bw, x.table)
            tag = "E2" if x.tag == "E2tp" else "E2t"
        return E2Fn(dm, tag, bw.dual(), out)
    raise DomainError("unsupported transform input")
