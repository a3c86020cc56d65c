"""Dense tables of cyclotomic numbers over mixed positions with radix q.

A table is a ``Rows`` value: q^D entries in Q(zeta_p) indexed by D coordinate
digits, least-significant digit = position 0, stored as integer coefficient
rows over one common denominator.  ``rows[k][i]`` is ``den`` times the
coefficient of zeta^k in entry i.  The form is canonical (``den > 0`` and
coprime to every numerator), so table equality is structural and exact.
``Rows`` is a sequence of ``CycNum`` only at its edge: ``len``, iteration
and integer indexing build entries, for CSV, pairings and scalar results.

Every operation here works on the rows.  The window layers move tables
between windows with four moves: pull back along a coordinate projection,
extend by zero into new coordinates, slice onto a coordinate subspace, and
sum over dropped coordinates.  ``transport`` is the one primitive that makes
all four at once, on digits named by labels; function tables and pairing
(distribution) tables use it in opposite directions.

Every index move is a ``MovePlan``, its index work, applied by
``apply_plan``, its table work: the size check, the fiber sums and one
gather per row.  Transport, translation and the sign flip build their plan
digit by digit once per distinct move, reused across calls: plans are kept
by value (q and the labels, or the field and the shift or dimension) in one
least-recently-used cache of ``PLAN_CACHE`` moves.  A move with more than
``PLAN_POINTS`` source and destination entries is planned afresh on every
call, so the cache holds at most ``PLAN_CACHE * PLAN_POINTS`` indices.
``gather`` applies a one-off index (relabellings, pullbacks along linear
maps).
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add as _add, mul as _mul

from fqharmonic.exactnum import _ZERO, CycNum, DomainError, FqField


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


def as_rows(table, p: int) -> Rows:
    """table itself when it is a table over Q(zeta_p), else the table of its entries."""
    if isinstance(table, Rows):
        if table.p != p:
            raise DomainError("mixed cyclotomic fields")
        return table
    return Rows.of(table, p)


def decode(index: int, q: int, dim: int) -> tuple[int, ...]:
    return tuple((index // q**j) % q for j in range(dim))


def encode(digits: Sequence[int], q: int) -> int:
    return sum(d * q**j for j, d in enumerate(digits))


def zero_table(p: int, q: int, dim: int) -> Rows:
    return Rows(p, 1, ((0,) * q**dim,) * (p - 1))


def indicator_table(p: int, size: int, indices: Iterable[int], value: Fraction | int = 1) -> Rows:
    """The table of size entries that is the rational value at the given
    indices and zero elsewhere (point masses and indicators)."""
    value = Fraction(value)
    row = [0] * size
    for i in indices:
        row[i] = value.numerator
    return Rows(p, value.denominator, [row] + [[0] * size] * (p - 2))


def const_table(value: CycNum, q: int, dim: int) -> Rows:
    den = math.lcm(*(c.denominator for c in value.coeffs))
    n = q**dim
    return Rows(value.prime, den, [(c.numerator * (den // c.denominator),) * n for c in value.coeffs])


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
    return apply_plan(table, _gather_plan(len(table), index))


def scatter(table: Rows, index: Sequence[int], size: int) -> Rows:
    """out[j] = sum of table[i] over index[i] = j, on a table of the given size."""
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
    points = q ** len(src_pos) + q ** len(dst_pos)
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


def reverse_positions(table: Rows, q: int, dim: int) -> Rows:
    return apply_perm(table, q, list(reversed(range(dim))))


def _digit_map_plan(q: int, maps: Sequence[Sequence[int]]) -> MovePlan:
    """out(v) = table(w), where digit r of w is maps[r][digit r of v]."""
    return _gather_plan(q ** len(maps), digit_index([[m[d] * q**r for d in range(q)] for r, m in enumerate(maps)]))


def _translation_plan(q: int, field: FqField, shift: tuple) -> MovePlan:
    return _digit_map_plan(q, [[field.add_idx(d, s) for d in range(q)] for s in shift])


def _negation_plan(q: int, field: FqField, dim: int) -> MovePlan:
    return _digit_map_plan(q, [[field.neg_idx(d) for d in range(q)]] * dim)


def translate(table: Rows, q: int, dim: int, shift: Sequence[int], field: FqField) -> Rows:
    """out(v) = table(v + shift), coordinatewise field addition."""
    shift = tuple(shift[r] for r in range(dim))
    return apply_plan(table, _plan(q, 2 * q**dim, _translation_plan, field, shift))


def check_table(table: Rows, q: int, dim: int, field: FqField) -> Rows:
    """out(v) = table(-v)."""
    return apply_plan(table, _plan(q, 2 * q**dim, _negation_plan, field, dim))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def _same_shape(a: Rows, b: Rows) -> None:
    if a.p != b.p:
        raise DomainError("mixed cyclotomic fields")
    if len(a) != len(b):
        raise DomainError(f"tables of {len(a)} and {len(b)} entries")


def scale(table: Rows, c) -> Rows:
    """c times every entry; c is a rational or a CycNum."""
    if isinstance(c, CycNum):
        if any(c.coeffs[1:]):
            return mul_pointwise(table, const_table(c, len(table), 1))  # len(table) copies of c
        c = c.coeffs[0]
    if c == 1:
        return table
    c = Fraction(c)
    num = c.numerator
    return Rows(table.p, table.den * c.denominator, [[x * num for x in row] for row in table.rows])


def add(a: Rows, b: Rows) -> Rows:
    _same_shape(a, b)
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
    _same_shape(a, b)
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
    _same_shape(a, b)
    if a.p != p:
        raise DomainError("mixed cyclotomic fields")
    sums = [sum(t) for t in _products(a, b, lambda ra, rb: sum(map(_mul, ra, rb)))]
    top, den = sums.pop(), a.den * b.den
    return CycNum(p, tuple(Fraction(x - top, den) if x != top else _ZERO for x in sums))


def total(table: Rows) -> CycNum:
    """The sum of all entries."""
    den = table.den
    return CycNum(table.p, tuple(Fraction(sum(row), den) if any(row) else _ZERO for row in table.rows))


def is_zero(table: Rows) -> bool:
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
    sum.
    """
    n = len(table)
    if n != q**dim:
        raise DomainError(f"table has {n} entries, expected q^dim = {q**dim}")
    p = field.p
    if table.p != p:
        raise DomainError("mixed cyclotomic fields")
    rows = [*table.rows, (0,) * n]  # the coefficient of zeta^(p-1), folded away at the end
    # expo[u][v] = -Tr(u v) mod p, the power of zeta in conj psi(u v)
    expo = [[-field.trace_idx(field.mul_idx(u, v)) % p for v in range(q)] for u in range(q)]
    m = n // q
    for _ in range(dim):
        top = [[row[a * m:(a + 1) * m] for a in range(q)] for row in rows]
        new = [[0] * n for _ in range(p)]
        for u, shifts in enumerate(expo):
            for k in range(p):
                terms = [top[(k - e) % p][a] for a, e in enumerate(shifts)]
                new[k][u::q] = map(sum, zip(*terms))
        rows = new
    factor = Fraction(factor)
    num = factor.numerator
    top = rows.pop()  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    out = [[(x - t) * num for x, t in zip(row, top)] for row in rows]
    return Rows(p, table.den * factor.denominator, out)


def psi_linear(field: FqField, dim: int, digits: Sequence[int], conj: bool = False) -> Rows:
    """Table of psi(sum_r digits[r] * v_r) over all v (or its conjugate).

    The trace is additive, so the power of zeta at v is the sum over r of
    Tr(digits[r] v_r) mod p, built digit by digit like a source index.
    """
    q, p = field.q, field.p
    sign = -1 if conj else 1
    coeffs = [digits[r] if r < len(digits) else 0 for r in range(dim)]
    expo = digit_index([[sign * field.trace_idx(field.mul_idx(c, d)) for d in range(q)] for c in coeffs])
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
