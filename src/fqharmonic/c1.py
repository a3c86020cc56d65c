"""Filtered F_q-spaces with integer-indexed filtrations, at window level.

A model describes a filtered space through the multiplicities of its graded
pieces: filtration index i selects the span of all graded slots strictly
below the cut i.  The model stores them as a flat list of slot intervals
(lo, hi), None meaning unbounded, as ``c2`` stores its regions as boxes:
each interval puts one graded slot at every cut k with lo <= k < hi, and at
a cut the slots come in list order.  A window (lo, hi) identifies the
finite quotient F(hi)/F(lo) with a coordinate space over the graded slots
in [lo, hi).

The Fourier transform sends a model to its index-reversed dual, whose slot
list is the primal list mirrored under k -> -k-1 and reversed, and a window
(lo, hi) to its dual window (-hi, -lo) there.  So the dual window's positions
are the primal positions mirrored, in reverse order, as ``c2``'s mirrored
boxes give in two dimensions: the transform reads its table back with the
digits reversed (``TableRep.dual_table``), and a dual point pairs with the
primal point read in reverse (``character_fn``).

Function representatives carry a window and a dense table.  The limit
structure of the six functional spaces is realized by table transport between
windows, all through the one primitive ``tables.transport``.  Each kind of
representative states once which way each window edge moves canonically,
down (v) or up (^):

    C1Fn D            lo v, hi ^    pull back below, extend by zero above
    C1Fn E / ET       lo v, hi v    pull back below, slice above
    C1Dist            lo ^, hi v    sum fibers below, slice above

and the two-dimensional representatives of ``c2`` state theirs per axis:

    D2Elem            outer as C1Dist, inner as D
    D2Dist            outer as D, inner as C1Dist
    E2Fn E2 / E2t     every edge v
    E2Fn E2p / E2tp   every edge ^

One rule, ``window_move``, turns the directions into the refusals and the
transport labels of every move, and ``common_window`` into the window on
which two representatives meet.  A distribution grows beyond its stored
window only through an extension rule (point masses at canonical lifts, or a
Haar profile), whose edges move freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from fqharmonic import tables
from fqharmonic.exactnum import CycNum, DomainError, FqField, q_power
from fqharmonic.tables import Rows


class WindowError(DomainError):
    """A representative cannot be moved to the requested window."""


class CapabilityError(DomainError):
    """A side condition of an operation is violated by the given models."""


# ---------------------------------------------------------------------------
# the window rule
# ---------------------------------------------------------------------------
#
# A window's edges are the flat tuple (lo, hi), a bi-window's (l, i, m, n):
# one (lower, upper) pair per axis, and label coordinate j lies on axis j.
# A representative gives one direction per edge.

DOWN, UP, FREE = -1, 1, 0


def window_move(dirs: tuple, src, dst, src_pos, dst_pos) -> tuple[list, list]:
    """Check the move src -> dst against dirs; the (summed, zeroed) labels of
    ``tables.transport`` for it.

    A dropped label below the target's lower edge is summed, one above its
    upper edge sliced; a new label at or above the source's upper edge is
    zeroed, one below its lower edge pulled back.
    """
    s, t = src.edges, dst.edges
    for d, a, b in zip(dirs, s, t):
        if (b - a) * d < 0:
            raise WindowError(f"representative at {src} cannot move to {dst}")
    if len(s) == 2:
        lo, hi = t[0], s[1]
        return [pos for pos in src_pos if pos[0] < lo], [pos for pos in dst_pos if pos[0] >= hi]
    l, m, i, n = t[0], t[2], s[1], s[3]
    return (
        [pos for pos in src_pos if pos[0] < l or pos[1] < m],
        [pos for pos in dst_pos if pos[0] >= i or pos[1] >= n],
    )


def common_window(dirs_a: tuple, a, dirs_b: tuple, b):
    """The window both representatives move to: each edge at its extreme in
    the common direction; against each other, the up side's edge, which must
    not lie above the down side's."""
    edges = []
    for da, db, x, y in zip(dirs_a, dirs_b, a.edges, b.edges):
        if da == db:
            edges.append(min(x, y) if da == DOWN else max(x, y))
            continue
        up, down = (x, y) if da == UP else (y, x)
        if up > down:
            raise WindowError(f"representatives at {a} and {b} have no common window")
        edges.append(up)
    return type(a)(*edges)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


Interval = tuple  # (lo, hi), None = unbounded


def mirror(lo: Optional[int], hi: Optional[int]) -> Interval:
    """The interval [lo, hi) mirrored under k -> -k-1."""
    return (None if hi is None else -hi, None if lo is None else -lo)


def shifted(lo: Optional[int], hi: Optional[int], s: int) -> Interval:
    """The interval [lo, hi) translated by s."""
    return (None if lo is None else lo + s, None if hi is None else hi + s)


def nonempty(lo: Optional[int], hi: Optional[int]) -> bool:
    return lo is None or hi is None or lo < hi


def overlap(lo: Optional[int], hi: Optional[int], a: Optional[int], b: Optional[int]) -> int:
    """Number of integers in [lo, hi) and [a, b); each side needs one finite edge."""
    if lo is None or (a is not None and a > lo):
        lo = a
    if hi is None or (b is not None and b < hi):
        hi = b
    return hi - lo if hi > lo else 0


def hull(intervals) -> tuple[Optional[int], Optional[int]]:
    """(inf, sup) over the intervals, read from the first two entries of each
    item: None where some interval is unbounded, (0, 0) for no interval."""
    if not intervals:
        return 0, 0
    los, his, *_ = zip(*intervals)
    return None if None in los else min(los), None if None in his else max(his)


@dataclass(frozen=True)
class C1Model:
    """Integer-indexed filtered space, described by its graded slot intervals.

    Each interval (lo, hi) puts one graded slot at every cut k with
    lo <= k < hi (None = unbounded); at a cut the slots come in list order.
    """

    field: FqField
    intervals: tuple[Interval, ...]
    label: str = dataclass_field(default="", compare=False)

    def __post_init__(self) -> None:
        keep = tuple((lo, hi) for lo, hi in self.intervals if nonempty(lo, hi))
        object.__setattr__(self, "intervals", keep)
        if not self.label:
            object.__setattr__(self, "label", str(keep))
        # computed once: every cached lookup keyed by the model takes it
        object.__setattr__(self, "_hash", hash((self.field, keep)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"C1Model({self.label})"

    def mult(self, k: int) -> int:
        n = 0
        for lo, hi in self.intervals:
            if (lo is None or lo <= k) and (hi is None or k < hi):
                n += 1
        return n

    def count(self, a: int, b: int) -> int:
        """Number of graded slots with cut in [a, b), a <= b."""
        n = 0
        for lo, hi in self.intervals:
            n += overlap(lo, hi, a, b)
        return n

    def dim_between(self, i: int, j: int) -> int:
        """dim F(j)/F(i), signed when j < i."""
        return self.count(i, j) if i <= j else -self.count(j, i)

    @property
    def bounds(self) -> tuple[Optional[int], Optional[int]]:
        """(inf, sup): slots vanish below inf / at or above sup; None = unbounded."""
        return hull(self.intervals)

    @property
    def is_discrete(self) -> bool:
        return self.bounds[0] is not None

    @property
    def is_compact(self) -> bool:
        return self.bounds[1] is not None


def laurent_model(field: FqField, label: str = "K") -> C1Model:
    return C1Model(field, ((None, None),), label)


def lattice_model(field: FqField, cut: int = 0, label: str = "") -> C1Model:
    """Compact model with slots below the cut (t^{-cut} O inside K)."""
    return C1Model(field, ((None, cut),), label or f"O<{cut}")


def colattice_model(field: FqField, cut: int = 0, label: str = "") -> C1Model:
    """Discrete model with slots at or above the cut (K modulo a lattice)."""
    return C1Model(field, ((cut, None),), label or f"Q>={cut}")


def segment_model(field: FqField, a: int, b: int, label: str = "") -> C1Model:
    return C1Model(field, ((a, b),), label or f"S[{a},{b})")


def sum_model(m1: C1Model, m2: C1Model, label: str = "") -> C1Model:
    if m1.field != m2.field:
        raise DomainError("summands over different fields")
    return C1Model(m1.field, m1.intervals + m2.intervals, label or f"({m1.label}+{m2.label})")


def shift_model(m: C1Model, s: int, label: str = "") -> C1Model:
    moved = tuple(shifted(lo, hi, s) for lo, hi in m.intervals)
    return C1Model(m.field, moved, label or f"{m.label}>>{s}")


def dual_model(m: C1Model) -> C1Model:
    """Index-reversed dual: the interval list mirrored under k -> -k-1 and
    reversed, so dual slot s at cut k pairs with primal slot
    m.mult(-k-1) - 1 - s at cut -k-1, and the positions of a dual window are
    the primal window's mirrored, in reverse order."""
    intervals = tuple(mirror(lo, hi) for lo, hi in reversed(m.intervals))
    return C1Model(m.field, intervals, f"dual({m.label})")


# ---------------------------------------------------------------------------
# windows and positions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Window:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise WindowError(f"window ({self.lo},{self.hi}) has lo > hi")

    @property
    def edges(self) -> tuple[int, int]:
        return self.lo, self.hi

    def dual(self) -> "Window":
        return Window(-self.hi, -self.lo)


POSITION_CACHE = 1024  # (model, window) pairs whose slot labels are kept


@lru_cache(maxsize=POSITION_CACHE)
def positions(model: C1Model, w: Window) -> tuple[tuple[int, int], ...]:
    """Graded slots (cut, slot) of the window quotient, in cut-major order.

    Kept by value: equal models (labels aside) share one entry.
    """
    return tuple(
        (k, s) for k in range(w.lo, w.hi) for s in range(model.mult(k))
    )


def window_dim(model: C1Model, w: Window) -> int:
    return len(positions(model, w))


# ---------------------------------------------------------------------------
# function and distribution representatives
# ---------------------------------------------------------------------------

FN_TAGS = ("D", "E", "ET")
DIST_TAGS = ("Dp", "Ep", "ETp", "Haar")


class TableRep:
    """The table bookkeeping shared by the window representatives here and in
    ``c2``: a frozen dataclass with a ``model``, a ``window`` and a ``table``
    (a ``Rows`` or a factored ``Kron``; a CycNum sequence is accepted) that
    gives its edge directions as ``dirs``.  ``c2.BiWindowRep`` has a
    bi-window ``bw`` in place of the window.
    """

    @property
    def dim(self) -> int:
        return window_dim(self.model, self.window)

    def __post_init__(self) -> None:
        field = self.model.field
        table = tables.as_rows(self.table, field.p)
        if table is not self.table:
            object.__setattr__(self, "table", table)
        if not tables.has_shape(table, field.q, self.dim):
            raise DomainError("table length does not match the window")

    @property
    def p(self) -> int:
        return self.model.field.p

    def __mul__(self, c):
        return replace(self, table=tables.scale(self.table, c))

    __rmul__ = __mul__

    def check(self):
        """The table read at -v."""
        fld = self.model.field
        return replace(self, table=tables.check_table(self.table, fld.q, self.dim, fld))

    def is_zero(self) -> bool:
        return tables.is_zero(self.table)

    def dual_table(self, factor=1) -> Rows:
        """The dot-pairing transform of the table times factor, read back on
        the dual (bi-)window, whose positions are these in reverse order."""
        fld, dim = self.model.field, self.dim
        return tables.apply_perm(tables.fourier(self.table, fld.q, dim, fld, factor), fld.q, range(dim)[::-1])


@dataclass(frozen=True, eq=False)
class C1Fn(TableRep):
    model: C1Model
    tag: str
    window: Window
    table: Rows

    def __post_init__(self) -> None:
        if self.tag not in FN_TAGS:
            raise DomainError(f"bad function tag {self.tag!r}")
        super().__post_init__()

    @property
    def dirs(self) -> tuple:
        return (DOWN, UP) if self.tag == "D" else (DOWN, DOWN)

    def at(self, w: Window) -> "C1Fn":
        return fn_at(self, w)


@dataclass(frozen=True, eq=False)
class C1Dist(TableRep):
    model: C1Model
    tag: str
    window: Window
    table: Rows  # pairing table: <G, f> = sum table * f-table
    extension: Optional[tuple] = None  # None | ('zero_up',) | ('haar', value, ref)

    def __post_init__(self) -> None:
        if self.tag not in DIST_TAGS:
            raise DomainError(f"bad distribution tag {self.tag!r}")
        super().__post_init__()

    @property
    def dirs(self) -> tuple:
        # an extension rule covers every window
        return (UP, DOWN) if self.extension is None else (FREE, FREE)

    def at(self, w: Window) -> "C1Dist":
        return dist_at(self, w)


# -- table transport


def fn_at(f: C1Fn, w: Window) -> C1Fn:
    if w == f.window:
        return f
    model = f.model
    src_pos, dst_pos = positions(model, f.window), positions(model, w)
    summed, zeroed = window_move(f.dirs, f.window, w, src_pos, dst_pos)
    return C1Fn(model, f.tag, w, tables.transport(f.table, model.field.q, src_pos, dst_pos, summed, zeroed))


def dist_at(G: C1Dist, w: Window) -> C1Dist:
    if w == G.window:
        return G
    model, q = G.model, G.model.field.q
    if G.extension and G.extension[0] == "haar":
        _, value, ref = G.extension
        const = value * q_power(q, model.dim_between(ref, w.lo))
        dim = window_dim(model, w)
        return C1Dist(model, G.tag, w, tables.const_kron(model.field.p, const, q, dim), G.extension)
    src_pos, dst_pos = positions(model, G.window), positions(model, w)
    summed, _ = window_move(G.dirs, G.window, w, src_pos, dst_pos)
    # target slots outside the source window carry point masses at canonical
    # lifts only (zero_up), so a nonzero digit there kills the entry
    table = tables.transport(G.table, q, src_pos, dst_pos, summed, zeroed=dst_pos)
    return C1Dist(model, G.tag, w, table, G.extension)


def fn_mul(f: C1Fn, g: C1Fn) -> C1Fn:
    """Pointwise product; a D-factor makes the product compactly supported."""
    if f.model != g.model:
        raise DomainError("mismatched models")
    w = common_window(f.dirs, f.window, g.dirs, g.window)
    tags = (f.tag, g.tag)
    tag = "D" if "D" in tags else "E" if "E" in tags else "ET"
    return C1Fn(f.model, tag, w, tables.mul_pointwise(fn_at(f, w).table, fn_at(g, w).table))


def mul_dist(f: C1Fn, G: C1Dist) -> C1Dist:
    """f . G with (f.G)(g) = G(f g), for a germ f; pointwise on pairing tables."""
    return C1Dist(G.model, G.tag, G.window, tables.mul_pointwise(fn_at(f, G.window).table, G.table), None)


def fn_equal(a: C1Fn, b: C1Fn) -> bool:
    if a.model != b.model:
        return False
    w = common_window(a.dirs, a.window, b.dirs, b.window)
    return fn_at(a, w).table == fn_at(b, w).table


def pairing1(G: C1Dist, f: C1Fn) -> CycNum:
    """<G, f>: the distribution applied to the function."""
    if G.model != f.model:
        raise DomainError("mismatched models")
    # the moves refuse a distribution that cannot see the function and a
    # germ not defined far enough down
    w = f.window
    if f.tag != "D":
        if G.extension is None:
            w = Window(max(G.window.lo, f.window.lo), min(G.window.hi, f.window.hi))
        elif G.extension[0] == "zero_up" and G.window.hi > f.window.hi:
            raise WindowError("support of the distribution escapes the germ window")
    return tables.dot(dist_at(G, w).table, fn_at(f, w).table, G.p)


# ---------------------------------------------------------------------------
# points, translation, evaluation, characters
# ---------------------------------------------------------------------------

Point = dict  # {(cut, slot): field element index}


def normalize_point(model: C1Model, a) -> Point:
    out: Point = {}
    for key, v in dict(a).items():
        pos = (key, 0) if isinstance(key, int) else tuple(key)
        if pos[1] < 0 or model.mult(pos[0]) <= pos[1]:
            raise DomainError(f"point component at missing slot {pos}")
        if not 0 <= v < model.field.q:
            raise DomainError(f"point value {v} at {pos} is not a field element index 0..{model.field.q - 1}")
        if v:
            out[pos] = v
    return out


def point_window(a: Point) -> Optional[int]:
    """Smallest cut h with the point inside F(h), or None for the origin."""
    return max((k + 1 for (k, _s) in a), default=None)


def _covering(model: C1Model, point, w: Window) -> tuple[Point, Window]:
    """The normalized point and w with its top raised to the point's window."""
    a = normalize_point(model, point)
    need = point_window(a)
    return a, w if need is None or need <= w.hi else Window(w.lo, need)


def _shift_digits(model: C1Model, w: Window, a: Point) -> list[int]:
    return [a.get(pos, 0) for pos in positions(model, w)]


def translate_fn(f: C1Fn, a) -> C1Fn:
    a, w = _covering(f.model, a, f.window)
    moved = fn_at(f, w)  # a germ refuses the move
    dim = window_dim(f.model, w)
    return C1Fn(
        f.model,
        f.tag,
        w,
        tables.translate(moved.table, f.model.field.q, dim, _shift_digits(f.model, w, a), f.model.field),
    )


def translate_dist(G: C1Dist, a) -> C1Dist:
    """T_a(G)(f) = G(T_{-a} f); pairing tables shift by -a."""
    a, w = _covering(G.model, a, G.window)
    moved = dist_at(G, w)
    fld = G.model.field
    neg = {pos: fld.neg_idx(v) for pos, v in a.items()}
    dim = window_dim(G.model, w)
    ext = G.extension
    if ext and ext[0] == "zero_up" and any(k < w.lo for (k, _s) in a):
        ext = None
    return C1Dist(
        G.model,
        G.tag,
        w,
        tables.translate(moved.table, fld.q, dim, _shift_digits(G.model, w, neg), fld),
        ext,
    )


def eval_fn_at(f: C1Fn, point) -> CycNum:
    a = normalize_point(f.model, point)
    outside = [pos for pos in a if pos[0] >= f.window.hi]
    if outside:
        if f.tag == "D":
            return CycNum.zero(f.p)
        raise WindowError("germ value not determined at this point")
    digits = _shift_digits(f.model, f.window, a)
    return f.table[tables.encode(digits, f.model.field.q)]


def dist_vanishes_at(G: C1Dist, point) -> bool:
    """Support test: G vanishes near the point iff the coset entry is zero."""
    a, w = _covering(G.model, point, G.window)
    moved = dist_at(G, w)
    digits = _shift_digits(G.model, w, a)
    return not moved.table[tables.encode(digits, G.model.field.q)]


def character_fn(model: C1Model, w: Window, b) -> C1Fn:
    """psi_b restricted to the window; b is a point of the dual model.

    The dual window's positions are the window's in reverse order, so b read
    there and reversed gives the digit at each primal slot; well-definedness
    requires supp(b) within the dual window.
    """
    dm, wd = dual_model(model), w.dual()
    b = normalize_point(dm, b)
    if any(not wd.lo <= k < wd.hi for (k, _s) in b):
        raise WindowError("character component outside the dual window")
    digits = _shift_digits(dm, wd, b)[::-1]
    return C1Fn(model, "ET", w, tables.psi_linear(model.field, window_dim(model, w), digits))


# ---------------------------------------------------------------------------
# Haar measures and integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HaarMeasure:
    """Invariant measure pinned by its value on one filtration member."""

    model: C1Model
    ref: int
    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction) or self.value == 0:
            raise DomainError(f"a Haar measure's value is a nonzero Fraction, not {self.value!r}")
        if not isinstance(self.ref, int):
            raise DomainError(f"a Haar measure's ref is an int cut, not {self.ref!r}")

    def value_at(self, i: int) -> Fraction:
        return self.value * q_power(self.model.field.q, self.model.dim_between(self.ref, i))

    def as_dist(self, w: Window) -> C1Dist:
        field, dim = self.model.field, window_dim(self.model, w)
        table = tables.const_kron(field.p, self.value_at(w.lo), field.q, dim)
        return C1Dist(self.model, "Haar", w, table, ("haar", self.value, self.ref))

    def scaled(self, c: Fraction) -> "HaarMeasure":
        return HaarMeasure(self.model, self.ref, self.value * c)

    def inverse_on_dual(self) -> "HaarMeasure":
        """mu^{-1} on the dual model: mu^{-1}(F(i)^perp) = 1 / mu(F(i))."""
        return HaarMeasure(dual_model(self.model), -self.ref, Fraction(1) / self.value)


def integrate(f: C1Fn, mu: HaarMeasure) -> CycNum:
    """Integral of a compactly-supported function against the measure."""
    if f.model != mu.model:
        raise DomainError("measure on a different model")
    if f.tag != "D":
        raise CapabilityError("only compactly supported functions integrate")
    return tables.total(f.table) * mu.value_at(f.window.lo)


def i_mu(f: C1Fn, mu: HaarMeasure) -> C1Dist:
    """Density map f -> f d(mu); pairing table = f's table scaled by mu(F(lo))."""
    if f.model != mu.model:
        raise DomainError("measure on a different model")
    tag = "Ep" if f.tag == "D" else "Dp"
    return C1Dist(
        f.model,
        tag,
        f.window,
        tables.scale(f.table, mu.value_at(f.window.lo)),
        None,
    )


def delta_lattice(model: C1Model, i: int) -> C1Fn:
    """Indicator of F(i) as a compactly-supported representative."""
    return C1Fn(model, "D", Window(i, i), (CycNum.one(model.field.p),))


def delta_point_dist(model: C1Model, point, w: Optional[Window] = None) -> C1Dist:
    """Evaluation distribution at a point with canonical-lift extension."""
    a = normalize_point(model, point)
    need = point_window(a)
    base = w or Window(min((k for (k, _s) in a), default=0), need or 0)
    if need is not None and base.hi < need:
        base = Window(base.lo, need)
    table = tables.point_kron(model.field.p, 1, model.field.q, _shift_digits(model, base, a))
    return C1Dist(model, "ETp", base, table, ("zero_up",))


# ---------------------------------------------------------------------------
# Fourier transforms
# ---------------------------------------------------------------------------


_GERM_DUAL_TAGS = {"E": "ETp", "ET": "Ep", "Ep": "ET", "ETp": "E"}


def fourier1(x, mu: Optional[HaarMeasure] = None):
    """The transform of a function or distribution; lands on the dual model.

    A measure is given exactly for the measure-dependent transforms: F_mu on
    compactly-supported functions and F_{mu^{-1}} on any distribution, the
    latter via adjointness on pairing tables.  Without one, locally-constant
    germs go to compact-dual pairing tables (the density and inverse-measure
    scalings cancel to 1/q^dim on the window) and compactly-supported
    distributions go to germs, unscaled.
    """
    q = x.model.field.q
    if mu is None:
        if x.tag not in _GERM_DUAL_TAGS:
            raise CapabilityError(f"the transform of a {x.tag} representative needs a measure")
        tag = _GERM_DUAL_TAGS[x.tag]
        factor = Fraction(1, q**x.dim) if isinstance(x, C1Fn) else Fraction(1)
    elif x.tag in ("E", "ET"):
        raise CapabilityError("the transform of a germ takes no measure")
    elif x.model != mu.model:
        raise DomainError("measure on a different model")
    elif x.tag == "D":
        tag, factor = "D", mu.value_at(x.window.lo)
    else:
        tag, factor = "Dp", Fraction(1) / mu.value_at(x.window.hi)
    table = x.dual_table(factor)
    dm, dw = dual_model(x.model), x.window.dual()
    if tag in FN_TAGS:
        return C1Fn(dm, tag, dw, table)
    return C1Dist(dm, tag, dw, table, ("zero_up",) if x.tag == "Haar" else None)
