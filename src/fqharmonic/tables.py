"""Tables of cyclotomic numbers over mixed positions with radix q.

A table holds q^D entries in Q(zeta_p) indexed by D coordinate digits, least
significant digit = position 0.  It comes in two forms:

* ``Rows``, the dense form: integer coefficient rows over one common
  denominator.  ``rows[k][i]`` is ``den`` times the coefficient of zeta^k in
  entry i.  The form is canonical (``den > 0`` and coprime to every
  numerator), so table equality is structural and exact.
* ``Kron``, the factored form: a ``CycNum`` scalar times one q-entry
  ``Rows`` factor per digit, a tensor product.  The characteristic functions
  and measure profiles of monomial regions are such products, and the
  summation identities compare nothing else.

Both forms are sequences of ``CycNum`` only at their edge: ``len``,
iteration and integer indexing build entries, for CSV, pairings, scalar
results and failure texts.  Indexing a ``Kron`` reads one entry from its
factors; ``Kron.dense()`` builds the ``Rows``.

Every dense table built to a size rather than from a table that exists
(``Kron.dense()``, a dense ``transport``, ``zero_table``,
``indicator_table``, ``psi_linear`` and ``scatter``) refuses more than
``DENSE_POINTS`` entries with ``CapacityError`` before it allocates.
Every other dense operation allocates in proportion to its input.

Every operation here works on the rows.  The window layers move tables
between windows with four moves: pull back along a coordinate projection,
extend by zero into new coordinates, slice onto a coordinate subspace, and
sum over dropped coordinates.  ``transport`` is the one primitive that makes
all four at once, on digits named by labels; function tables and pairing
(distribution) tables use it in opposite directions.

Native to ``Kron``, each in O(D*q): ``transport`` (so ``expand``,
``contract`` and ``apply_perm``), ``digit_map`` (so ``translate`` and
``check_table``), ``scale``, ``fourier`` (one q-point transform per
factor), ``is_zero`` and ``==`` (an exact comparison of factors and one
entry, with no division).  Every scalar step of the factored form is one
``CycNum`` product.  Constants (``const_kron``) and point masses
(``point_kron``) are built factored.  Every other operation, and a
comparison with a ``Rows``, works on ``Kron.dense()``.

Every dense index move is a ``MovePlan``, its index work, applied by
``apply_plan``, its table work: the size check, the fiber sums and one
gather per row.  Transport and the digit maps build their plan digit by
digit once per distinct move, reused across calls: plans are kept by value
(q and the labels, or the maps) in one least-recently-used cache of
``PLAN_CACHE`` moves.  A move with more than ``PLAN_POINTS`` source and
destination entries is planned afresh on every call, so the cache holds at
most ``PLAN_CACHE * PLAN_POINTS`` indices; a dense transport refuses an
oversized destination before it plans.  ``gather`` applies a one-off index
(pullbacks along linear maps).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add as _add, mul as _mul

from fqharmonic.exactnum import _ZERO, CapacityError, CycNum, DomainError, FqField, _cyc_ints, _cyc_product


@dataclass(frozen=True)
class Rows(Sequence):
    """A table in Q(zeta_p) as integer coefficient rows over one denominator.

    ``rows`` holds p - 1 rows of equal length, one per power-basis element;
    at construction the denominator is made positive and divided out of the
    common gcd, so equal tables have equal fields.
    """

    p: int
    den: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows, den = tuple(map(tuple, self.rows)), self.den
        if len(rows) != self.p - 1 or len(set(map(len, rows))) != 1:
            raise DomainError(f"a table over Q(zeta_{self.p}) needs {self.p - 1} rows of one length")
        if den <= 0:
            if den == 0:
                raise DomainError("zero table denominator")
            den, rows = -den, tuple(tuple(-x for x in row) for row in rows)
        g = den
        for row in rows:
            if g == 1:
                break
            g = math.gcd(g, *row)
        if g != 1:
            den, rows = den // g, tuple(tuple(x // g for x in row) for row in rows)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _of(cls, p: int, den: int, rows: tuple[tuple[int, ...], ...]) -> "Rows":
        """The table of rows already in canonical form, built without the checks."""
        table = object.__new__(cls)
        object.__setattr__(table, "p", p)
        object.__setattr__(table, "den", den)
        object.__setattr__(table, "rows", rows)
        return table

    @staticmethod
    def of(entries: Iterable[CycNum], p: int) -> "Rows":
        """The table of a sequence of entries (the edge: CSV, builders, tests)."""
        entries = tuple(entries)
        den, rows = _rows(entries, p)
        if not entries:
            rows = [()] * (p - 1)
        return Rows(p, den, rows)

    def __len__(self) -> int:
        return len(self.rows[0])

    def __iter__(self) -> Iterator[CycNum]:
        return iter(_cycs(self.rows, self.den, self.p))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Rows(self.p, self.den, tuple(row[i] for row in self.rows))
        den = self.den
        return CycNum(self.p, tuple(Fraction(row[i], den) if row[i] else _ZERO for row in self.rows))


def as_rows(table, p: int):
    """table itself when it is a table (``Rows`` or ``Kron``) over Q(zeta_p),
    else the ``Rows`` of its entries."""
    if isinstance(table, (Rows, Kron)):
        if table.p != p:
            raise DomainError("mixed cyclotomic fields")
        return table
    return Rows.of(table, p)


def decode(index: int, q: int, dim: int) -> tuple[int, ...]:
    return tuple((index // q**j) % q for j in range(dim))


def encode(digits: Sequence[int], q: int) -> int:
    return sum(d * q**j for j, d in enumerate(digits))


DENSE_POINTS = 1 << 20  # entries of the largest dense table built here


def _check_dense(size: int) -> None:
    """Refuse a dense table of more than ``DENSE_POINTS`` entries, before it is built."""
    if size > DENSE_POINTS:
        raise CapacityError(f"a dense table of {size} entries exceeds {DENSE_POINTS}")


def zero_table(p: int, q: int, dim: int) -> Rows:
    _check_dense(q**dim)
    return Rows(p, 1, ((0,) * q**dim,) * (p - 1))


def indicator_table(p: int, size: int, indices: Iterable[int]) -> Rows:
    """The table of size entries that is 1 at the given indices and zero
    elsewhere: an indicator of many points, or one factor of a point mass
    (``point_kron``)."""
    _check_dense(size)
    row = [0] * size
    for i in indices:
        row[i] = 1
    return Rows(p, 1, [row] + [[0] * size] * (p - 2))


# ---------------------------------------------------------------------------
# factored tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Kron:
    """A table held as a scalar times one q-entry factor per digit.

    The entry at the digits (d_0, ..., d_{D-1}) is ``scalar * factors[0][d_0]
    * ... * factors[D-1][d_{D-1}]``.  ``scalar`` is a ``CycNum`` (a rational
    is accepted) and every factor is a ``Rows`` of the same length q.  Equal
    tables may hold different factors, so a ``Kron`` is compared by value and
    is not hashable.
    """

    p: int
    scalar: CycNum
    factors: tuple[Rows, ...]

    __hash__ = None

    def __post_init__(self) -> None:
        scalar = _scalar(self.p, self.scalar)
        factors = tuple(as_rows(f, self.p) for f in self.factors)
        if len({len(f) for f in factors}) > 1:
            raise DomainError("the factors of a factored table need one length")
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "factors", factors)

    @classmethod
    def _of(cls, p: int, scalar: CycNum, factors: tuple[Rows, ...]) -> "Kron":
        """The table of parts already checked, built without the checks."""
        table = object.__new__(cls)
        object.__setattr__(table, "p", p)
        object.__setattr__(table, "scalar", scalar)
        object.__setattr__(table, "factors", factors)
        return table

    @property
    def dim(self) -> int:
        return len(self.factors)

    @property
    def size(self) -> int:
        return len(self.factors[0]) ** len(self.factors) if self.factors else 1

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[CycNum]:
        return iter(self.dense())

    def __getitem__(self, i):
        """One entry read from the factors, or the ``Rows`` of a slice of them."""
        size = self.size
        if isinstance(i, slice):
            return Rows.of((self[j] for j in range(*i.indices(size))), self.p)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("table index out of range")
        value = self.scalar
        for f in self.factors:
            i, d = divmod(i, len(f))
            value = value * f[d]
        return value

    def is_zero(self) -> bool:
        return self.scalar.is_zero() or any(map(is_zero, self.factors))

    def dense(self) -> Rows:
        """The ``Rows`` of every entry; more than ``DENSE_POINTS`` are refused."""
        _check_dense(self.size)
        p, (value, den) = self.p, _cyc_ints(self.scalar)
        values = [value]
        for f in self.factors:
            # digit r has weight q^r: its value d repeats the table built so far
            values = [_cyc_product(v, col, p) for col in zip(*f.rows) for v in values]
            den *= f.den
        return Rows(p, den, list(zip(*values)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Kron):
            return _kron_equal(self, other)
        if isinstance(other, Rows):
            return other.p == self.p and len(other) == self.size and self.dense() == other
        return NotImplemented


def const_kron(p: int, value, q: int, dim: int) -> Kron:
    """The table of q^dim entries equal to value, a rational or a ``CycNum``:
    the value times the all-ones factor at every digit."""
    return Kron._of(p, _scalar(p, value), (_unit_factors(p, q)[0],) * dim)


def point_kron(p: int, value, q: int, digits: Sequence[int]) -> Kron:
    """The table that is value (a rational or a ``CycNum``) at the point with
    the given digits and zero elsewhere: a delta factor per digit."""
    return Kron._of(p, _scalar(p, value), tuple(_point_factor(p, q, d) for d in digits))


def _scalar(p: int, value) -> CycNum:
    """The scalar of a factored table over Q(zeta_p): a ``CycNum``, or a
    rational made one; anything else is refused."""
    if isinstance(value, CycNum):
        if value.prime != p:
            raise DomainError("mixed cyclotomic fields")
        return value
    if not isinstance(value, (int, Fraction)):
        raise DomainError(f"the scalar of a factored table is one entry over Q(zeta_{p}), not {value!r}")
    return CycNum.from_rational(p, value)


@lru_cache(maxsize=None)
def _unit_factors(p: int, q: int) -> tuple[Rows, Rows]:
    """The all-ones factor and the delta at 0, on q entries."""
    return Rows(p, 1, [(1,) * q] + [(0,) * q] * (p - 2)), _point_factor(p, q, 0)


@lru_cache(maxsize=None)
def _point_factor(p: int, q: int, d: int) -> Rows:
    """The delta at digit d, on q entries."""
    return indicator_table(p, q, [d])


def has_shape(table, q: int, dim: int) -> bool:
    """Whether table holds q^dim entries; a ``Kron`` needs dim factors of q entries."""
    if isinstance(table, Kron):
        return len(table.factors) == dim and (not dim or len(table.factors[0]) == q)
    return len(table) == q**dim


def _check_kron(table: Kron, q: int, dim: int) -> None:
    if not has_shape(table, q, dim):
        raise DomainError(f"table has {table.size} entries, expected {q ** dim}")


def _kron_equal(a: Kron, b: Kron) -> bool:
    """Exact equality with no division.

    Both tables zero, or neither: then every pair of factors is proportional
    (by cross-multiplication against a pivot where a's factor is nonzero) and
    the tables agree at the pivot point.  A factor both tables share is
    proportional and a common nonzero multiplier of that point, so it is
    skipped.
    """
    if a.p != b.p or a.dim != b.dim or a.size != b.size:
        return False
    pairs = [(fa, fb) for fa, fb in zip(a.factors, b.factors) if fa is not fb and fa != fb]
    if not pairs:
        # one factor list: equal scalars, or a zero factor in both
        return a.scalar == b.scalar or any(map(is_zero, a.factors))
    zero_a, zero_b = a.is_zero(), b.is_zero()
    if zero_a or zero_b:
        return zero_a and zero_b
    p, va, vb = a.p, a.scalar, b.scalar
    for fa, fb in pairs:
        cols_a, cols_b = list(zip(*fa.rows)), list(zip(*fb.rows))
        j = next(i for i, col in enumerate(cols_a) if any(col))
        for xa, xb in zip(cols_a, cols_b):
            if _cyc_product(xa, cols_b[j], p) != _cyc_product(cols_a[j], xb, p):
                return False
        va, vb = va * fa[j], vb * fb[j]
    return va == vb


def _transport_kron(table: Kron, q: int, src_pos: tuple, dst_pos: tuple, summed, zeroed) -> Kron:
    """``transport`` on the factors: a kept label keeps its factor, a dropped
    one multiplies the scalar by its factor's sum (summed) or entry 0
    (sliced), and a new one gets the delta at 0 (zeroed) or all ones."""
    _check_kron(table, q, len(src_pos))
    if src_pos == dst_pos:
        return table
    p, by_label, zeroed = table.p, dict(zip(src_pos, table.factors)), set(zeroed)
    ones, delta = _unit_factors(p, q)
    # taking the kept factors out leaves the dropped ones
    factors = tuple([by_label.pop(pos) if pos in by_label else delta if pos in zeroed else ones for pos in dst_pos])
    scalar, summed = table.scalar, set(summed)
    for pos, f in by_label.items():
        scalar = scalar * (total(f) if pos in summed else f[0])
    return Kron._of(p, scalar, factors)


FACTOR_CACHE = 256  # distinct (factor, field) transforms kept; the sweeps use a few


@lru_cache(maxsize=FACTOR_CACHE)
def _fourier_factor(f: Rows, field: FqField) -> tuple[int, int, Rows]:
    """The q-point transform of one factor, as a content n / d and a factor g
    with out = (n / d) * g.

    A multiple of the all-ones factor or of the delta at 0 comes back as
    that unit factor, so that transformed tables share their factors.
    """
    g = fourier(f, field.q, 1, field)
    c = g.rows[0][0]
    for unit in _unit_factors(f.p, field.q):
        if c and g.rows == tuple(tuple(c * x for x in row) for row in unit.rows):
            return c, g.den, unit
    return 1, 1, g


def _dense(table) -> Rows:
    return table.dense() if isinstance(table, Kron) else table


# ---------------------------------------------------------------------------
# index moves
# ---------------------------------------------------------------------------


def digit_index(digits: Sequence[Sequence[int]]) -> list[int]:
    """Sum of per-digit offsets at every index, least significant digit first.

    digits[r][d] is what digit r contributes at value d; the result at index
    i is the sum over r of digits[r][digit r of i].
    """
    index = [0]
    for offs in digits:
        index = [i + o for o in offs for i in index]
    return index


PLAN_CACHE = 256  # distinct moves kept; a pass of scripts/example.cfg makes 97
PLAN_POINTS = 4096  # source plus destination entries of the largest move kept


@dataclass(frozen=True)
class MovePlan:
    """The index work of one table move, applied to any table of ``size`` entries.

    ``fibers[o][j]`` is the source index of fiber offset o at kept index j;
    the fiber sums run first, and no fiber means nothing is summed.  Then
    ``index[j]`` is the (summed) source index of destination entry j, where
    the index one past the end reads zero; None means every entry stays put.
    """

    size: int
    fibers: tuple[tuple[int, ...], ...]
    index: tuple[int, ...] | None


def apply_plan(table: Rows, plan: MovePlan) -> Rows:
    """The table work of a move: the size check, the fiber sums, one gather."""
    table = _dense(table)
    n = len(table)
    if n != plan.size:
        raise DomainError(f"table has {n} entries, expected {plan.size}")
    if not plan.fibers and plan.index is None:
        return table
    rows = table.rows
    if plan.fibers:
        rows = [tuple(map(sum, zip(*[map(row.__getitem__, f) for f in plan.fibers]))) for row in rows]
    if plan.index is not None:
        rows = [tuple(map((*row, 0).__getitem__, plan.index)) for row in rows]
    return Rows(table.p, table.den, rows)


def _plan(q: int, points: int, build, *key) -> MovePlan:
    """build(q, *key): cached by value when the move touches at most
    PLAN_POINTS entries, built afresh otherwise."""
    return _cached_plan(build, q, *key) if points <= PLAN_POINTS else build(q, *key)


@lru_cache(maxsize=PLAN_CACHE)
def _cached_plan(build, q: int, *key) -> MovePlan:
    return build(q, *key)


def _gather_plan(size: int, index: Sequence[int]) -> MovePlan:
    """The plan that reads index[j] at j; a negative index reads zero."""
    index = tuple(i if i >= 0 else size for i in index)
    return MovePlan(size, (), None if index == tuple(range(size)) else index)


def gather(table: Rows, index: Sequence[int]) -> Rows:
    """out[j] = table[index[j]]; a negative index reads zero."""
    table = _dense(table)
    return apply_plan(table, _gather_plan(len(table), index))


def scatter(table: Rows, index: Sequence[int], size: int) -> Rows:
    """out[j] = sum of table[i] over index[i] = j, on a table of the given size."""
    _check_dense(size)
    table = _dense(table)
    out = []
    for row in table.rows:
        acc = [0] * size
        for i, x in zip(index, row):
            if x:
                acc[i] += x
        out.append(acc)
    return Rows(table.p, table.den, out)


def _transport_plan(q: int, src_pos: tuple, dst_pos: tuple, summed: tuple, zeroed: tuple) -> MovePlan:
    weight = {pos: q**r for r, pos in enumerate(src_pos)}
    summed = set(summed)
    fiber = [pos for pos in src_pos if pos in summed and pos not in dst_pos]
    n, fibers = q ** len(src_pos), ()
    if fiber:
        # sum the fibers first: the summed digits leave the source labels
        kept = [pos for pos in src_pos if pos not in fiber]
        bases = digit_index([range(0, q * weight[pos], weight[pos]) for pos in kept])
        offsets = digit_index([range(0, q * weight[pos], weight[pos]) for pos in fiber])
        fibers = tuple(tuple(b + o for b in bases) for o in offsets)
        n = len(bases)
        weight = {pos: q**r for r, pos in enumerate(kept)}
    zeroed = set(zeroed)
    dead = [0] + [-n] * (q - 1)  # a nonzero digit of a zeroed label makes the index negative
    pulled = [0] * q
    digits = [
        range(0, q * weight[pos], weight[pos]) if pos in weight else dead if pos in zeroed else pulled
        for pos in dst_pos
    ]
    plan = _gather_plan(n, digit_index(digits))
    return MovePlan(q ** len(src_pos), fibers, plan.index)


def transport(
    table: Rows,
    q: int,
    src_pos: Sequence[Hashable],
    dst_pos: Sequence[Hashable],
    summed: Iterable[Hashable] = (),
    zeroed: Iterable[Hashable] = (),
) -> Rows:
    """Move a table from the digit labels src_pos to the labels dst_pos.

    A label in both lists keeps its digit.  A source-only label is summed
    over when it is in ``summed`` (fiber sum) and read at digit 0 otherwise
    (slice).  A destination-only label is ignored (pullback) unless it is in
    ``zeroed``, where the entry vanishes whenever that digit is nonzero
    (extension by zero).
    """
    src_pos, dst_pos = tuple(src_pos), tuple(dst_pos)
    if isinstance(table, Kron):
        return _transport_kron(table, q, src_pos, dst_pos, summed, zeroed)
    out = q ** len(dst_pos)
    _check_dense(out)
    points = q ** len(src_pos) + out
    return apply_plan(table, _plan(q, points, _transport_plan, src_pos, dst_pos, tuple(summed), tuple(zeroed)))


def expand(table: Rows, q: int, new_dim: int, embed: Sequence[int], mode: str) -> Rows:
    """Move a table into a larger coordinate set.

    embed[r] is the new position of old position r.  mode 'pullback' ignores
    the extra coordinates; mode 'zero' supports the value only where every
    extra coordinate vanishes.
    """
    return transport(table, q, embed, range(new_dim), zeroed=range(new_dim) if mode == "zero" else ())


def contract(table: Rows, q: int, old_dim: int, keep: Sequence[int], mode: str) -> Rows:
    """Move a table onto a coordinate subset.

    mode 'slice' reads the value at dropped coordinates = 0; mode 'sum'
    accumulates over all values of the dropped coordinates.
    """
    return transport(table, q, range(old_dim), keep, summed=() if mode == "slice" else range(old_dim))


def apply_perm(table: Rows, q: int, perm: Sequence[int]) -> Rows:
    """Permute coordinates: new digit j is the old digit perm[j]."""
    return transport(table, q, range(len(perm)), perm)


def _digit_map_plan(q: int, maps: tuple) -> MovePlan:
    """out(v) = table(w), where digit r of w is maps[r][digit r of v]."""
    return _gather_plan(q ** len(maps), digit_index([[m[d] * q**r for d in range(q)] for r, m in enumerate(maps)]))


def _map_factors(table: Kron, q: int, maps: tuple) -> Kron:
    """The move of ``_digit_map_plan(q, maps)`` on the factors: each is read
    through its digit's map, so no index of the whole table is built."""
    _check_kron(table, q, len(maps))
    factors = tuple(
        Rows._of(f.p, f.den, tuple(tuple(map(row.__getitem__, m)) for row in f.rows))
        for f, m in zip(table.factors, maps)
    )
    return Kron._of(table.p, table.scalar, factors)


def digit_map(table: Rows, q: int, maps: Sequence[Sequence[int]]) -> Rows:
    """out(v) = table(w), where digit r of w is maps[r][digit r of v].

    A ``Kron`` reads each factor through its digit's map; a dense table is
    moved by one plan, kept by the value of the maps, and a table of the
    wrong size is refused before that plan is built.
    """
    maps = tuple(map(tuple, maps))
    if isinstance(table, Kron):
        return _map_factors(table, q, maps)
    if len(table) != q ** len(maps):
        raise DomainError(f"table has {len(table)} entries, expected {q ** len(maps)}")
    return apply_plan(table, _plan(q, 2 * q ** len(maps), _digit_map_plan, maps))


def translate(table: Rows, q: int, dim: int, shift: Sequence[int], field: FqField) -> Rows:
    """out(v) = table(v + shift), coordinatewise field addition."""
    return digit_map(table, q, [[field.add_idx(d, shift[r]) for d in range(q)] for r in range(dim)])


def check_table(table: Rows, q: int, dim: int, field: FqField) -> Rows:
    """out(v) = table(-v)."""
    return digit_map(table, q, [tuple(field.neg_idx(d) for d in range(q))] * dim)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def _same_shape(a, b) -> tuple[Rows, Rows]:
    """Both tables dense, after checking that they have one field and size.

    A ``Kron`` is made dense first, so one past ``DENSE_POINTS`` entries
    raises ``CapacityError`` (its ``len`` overflows past 2^63 entries).
    """
    if a.p != b.p:
        raise DomainError("mixed cyclotomic fields")
    a, b = _dense(a), _dense(b)
    if len(a) != len(b):
        raise DomainError(f"tables of {len(a)} and {len(b)} entries")
    return a, b


def scale(table: Rows, c) -> Rows:
    """c times every entry; c is a rational or a CycNum."""
    if isinstance(table, Kron):
        return table if c == 1 else Kron._of(table.p, table.scalar * c, table.factors)
    if isinstance(c, CycNum):
        if c.prime != table.p:
            raise DomainError("mixed cyclotomic fields")
        if any(c.coeffs[1:]):
            value, den = _cyc_ints(c)
            cols = [_cyc_product(col, value, table.p) for col in zip(*table.rows)]
            return Rows(table.p, table.den * den, list(zip(*cols)))
        c = c.coeffs[0]
    if c == 1:
        return table
    c = Fraction(c)
    num = c.numerator
    return Rows(table.p, table.den * c.denominator, [[x * num for x in row] for row in table.rows])


def add(a: Rows, b: Rows) -> Rows:
    a, b = _same_shape(a, b)
    den = math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    if fa == fb == 1:
        rows = [map(_add, ra, rb) for ra, rb in zip(a.rows, b.rows)]
    else:
        rows = [[x * fa + y * fb for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]
    return Rows(a.p, den, rows)


def _products(a: Rows, b: Rows, combine):
    """combine(ra, rb) of every pair of nonzero rows, added up by the power of
    zeta they multiply to: the terms of a product in Q[x]/(x^p - 1)."""
    p = a.p
    live_b = [(k, rb) for k, rb in enumerate(b.rows) if any(rb)]
    terms: list = [[] for _ in range(p)]
    for j, ra in enumerate(a.rows):
        if any(ra):
            for k, rb in live_b:
                terms[(j + k) % p].append(combine(ra, rb))
    return terms


def mul_pointwise(a: Rows, b: Rows) -> Rows:
    """Entrywise product: one integer convolution of the rows, folded mod p.

    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) folds the top power away.
    """
    a, b = _same_shape(a, b)
    n = len(a)
    sums = [
        list(map(sum, zip(*t))) if len(t) > 1 else (t[0] if t else [0] * n)
        for t in _products(a, b, lambda ra, rb: list(map(_mul, ra, rb)))
    ]
    top = sums.pop()
    if any(top):
        sums = [list(map(int.__sub__, row, top)) for row in sums]
    return Rows(a.p, a.den * b.den, sums)


def dot(a: Rows, b: Rows, p: int) -> CycNum:
    """sum_i a[i] b[i], as one CycNum."""
    a, b = _same_shape(a, b)
    if a.p != p:
        raise DomainError("mixed cyclotomic fields")
    sums = [sum(t) for t in _products(a, b, lambda ra, rb: sum(map(_mul, ra, rb)))]
    top, den = sums.pop(), a.den * b.den
    return CycNum(p, tuple(Fraction(x - top, den) if x != top else _ZERO for x in sums))


def total(table: Rows) -> CycNum:
    """The sum of all entries."""
    table = _dense(table)
    den = table.den
    return CycNum(table.p, tuple(Fraction(sum(row), den) if any(row) else _ZERO for row in table.rows))


def is_zero(table) -> bool:
    if isinstance(table, Kron):
        return table.is_zero()
    return not any(map(any, table.rows))


def fourier(table: Rows, q: int, dim: int, field: FqField, factor: Fraction | int = 1) -> Rows:
    """Dot-pairing transform times a rational factor:
    out(u) = factor * sum_v table(v) conj(psi(u.v)).

    conj psi(u.v) = prod_j zeta^{-Tr(u_j v_j)}, so the transform factors into
    one q-point transform per coordinate (Yates' algorithm, the shape of the
    fast Walsh-Hadamard transform).  Each pass transforms the top digit and
    moves it to position 0, so after dim passes every digit is back in place.
    The rows are taken over Q[x]/(x^p - 1): a factor zeta^k only renames row
    r to row r + k, and the N = q^dim point transform costs O(N*q*dim)
    integer adds where the direct sum costs N^2 cyclotomic products.  The
    factor rides on the denominator and on the final fold of zeta^(p-1), so
    it costs no pass of its own.  The output is exact and equal to the direct
    sum.  A ``Kron`` transforms factor by factor, the factor on its scalar.
    """
    if isinstance(table, Kron):
        _check_kron(table, q, dim)
        if table.p != field.p:
            raise DomainError("mixed cyclotomic fields")
        num, den, factors, seen = 1, 1, [], {}
        for f in table.factors:
            # the factors are mostly a few shared objects: look each up once
            got = seen.get(id(f))
            if got is None:
                got = seen[id(f)] = _fourier_factor(f, field)
            n, d, g = got
            num, den = num * n, den * d
            factors.append(g)
        return Kron._of(table.p, table.scalar * (Fraction(num, den) * factor), tuple(factors))
    n = len(table)
    if n != q**dim:
        raise DomainError(f"table has {n} entries, expected q^dim = {q**dim}")
    p = field.p
    if table.p != p:
        raise DomainError("mixed cyclotomic fields")
    rows = [*table.rows, (0,) * n]  # the coefficient of zeta^(p-1), folded away at the end
    m = n // q
    for _ in range(dim):
        top = [[row[a * m:(a + 1) * m] for a in range(q)] for row in rows]
        new = [[0] * n for _ in range(p)]
        for u, shifts in enumerate(field.conj_expo):
            for k in range(p):
                terms = [top[(k - e) % p][a] for a, e in enumerate(shifts)]
                new[k][u::q] = map(sum, zip(*terms))
        rows = new
    factor = Fraction(factor)
    num = factor.numerator
    top = rows.pop()  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    out = [[(x - t) * num for x, t in zip(row, top)] for row in rows]
    return Rows(p, table.den * factor.denominator, out)


def psi_linear(field: FqField, dim: int, digits: Sequence[int]) -> Rows:
    """Table of psi(sum_r digits[r] * v_r) over all v.

    The trace is additive, so the power of zeta at v is the sum over r of
    Tr(digits[r] v_r) mod p, built digit by digit like a source index.
    """
    q, p = field.q, field.p
    _check_dense(q**dim)
    coeffs = [digits[r] if r < len(digits) else 0 for r in range(dim)]
    expo = digit_index([[field.trace_idx(field.mul_idx(c, d)) for d in range(q)] for c in coeffs])
    expo = [e % p for e in expo]
    # zeta^k is the unit row k below p - 1, and zeta^(p-1) is -1 in every row
    rows = [[1 if e == k else -1 if e == p - 1 else 0 for e in expo] for k in range(p - 1)]
    return Rows(p, 1, rows)


# ---------------------------------------------------------------------------
# the edge: entries to rows and back
# ---------------------------------------------------------------------------


def _rows(table: Sequence[CycNum], p: int) -> tuple[int, list[list[int]]]:
    """Common denominator den and integer coefficient rows of a sequence of entries.

    rows[k][i] is den times the coefficient of zeta^k in entry i.
    """
    if any(c.prime != p for c in table):
        raise DomainError("mixed cyclotomic fields")
    ratios = [[x.as_integer_ratio() for x in col] for col in zip(*(c.coeffs for c in table))]
    den = math.lcm(*{d for row in ratios for _, d in row})
    return den, [[n * (den // d) for n, d in row] for row in ratios]


def _cycs(rows: Sequence[Sequence[int]], den: int, p: int) -> tuple[CycNum, ...]:
    """The entries whose entry i has the coefficients rows[k][i] / den.

    Each nonzero coefficient is one Fraction; zero coefficients share one
    Fraction(0), and equal entries share one CycNum.
    """
    seen: dict[tuple[int, ...], CycNum] = {}
    out = []
    for col in zip(*rows):
        val = seen.get(col)
        if val is None:
            val = seen[col] = CycNum(p, tuple(Fraction(x, den) if x else _ZERO for x in col))
        out.append(val)
    return tuple(out)
