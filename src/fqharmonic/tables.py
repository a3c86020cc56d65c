"""Dense CycNum tables over mixed positions with radix q.

A "table" is a tuple of CycNum of length q^D indexed by D coordinate digits,
least-significant digit = position 0.  The window layers move tables between
windows with four moves: pull back along a coordinate projection, extend by
zero into new coordinates, slice onto a coordinate subspace, and sum over
dropped coordinates.  ``transport`` is the one primitive that makes all four
moves at once, on digits named by labels; function tables and pairing
(distribution) tables use it in opposite directions.

Arithmetic over a whole table runs on integers: ``_rows`` writes a table as
integer coefficient rows over one common denominator, and ``_cycs`` turns
rows back into entries with one Fraction per nonzero coefficient.  Fiber
sums in ``transport``, rational factors in ``scale`` and the transform in
``fourier`` all go through this pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

from fqharmonic.exactnum import _ZERO, CycNum, DomainError, FqField

Table = tuple[CycNum, ...]


def decode(index: int, q: int, dim: int) -> tuple[int, ...]:
    return tuple((index // q**j) % q for j in range(dim))


def encode(digits: Sequence[int], q: int) -> int:
    return sum(d * q**j for j, d in enumerate(digits))


def zero_table(p: int, q: int, dim: int) -> Table:
    return tuple(CycNum.zero(p) for _ in range(q**dim))


def const_table(value: CycNum, q: int, dim: int) -> Table:
    return tuple(value for _ in range(q**dim))


def transport(
    table: Table,
    q: int,
    src_pos: Sequence[Hashable],
    dst_pos: Sequence[Hashable],
    summed: Iterable[Hashable] = (),
    zeroed: Iterable[Hashable] = (),
) -> Table:
    """Move a table from the digit labels src_pos to the labels dst_pos.

    A label in both lists keeps its digit.  A source-only label is summed
    over when it is in ``summed`` (fiber sum) and read at digit 0 otherwise
    (slice).  A destination-only label is ignored (pullback) unless it is in
    ``zeroed``, where the entry vanishes whenever that digit is nonzero
    (extension by zero).
    """
    if len(table) != q ** len(src_pos):
        raise DomainError(f"table has {len(table)} entries, expected {q}^{len(src_pos)}")
    weight = {pos: q**r for r, pos in enumerate(src_pos)}
    summed, zeroed = set(summed), set(zeroed)
    # source index of each destination index, built digit by digit from the
    # least significant one; None marks an entry forced to zero
    index: list = [0]
    for pos in dst_pos:
        w = weight.get(pos)
        if w is not None:
            index = [None if i is None else i + d * w for d in range(q) for i in index]
        elif pos in zeroed:
            index = index + [None] * (len(index) * (q - 1))
        else:
            index = index * q
    dst = set(dst_pos)
    offsets = [0]  # source index offsets spanning one fiber of the summed digits
    for pos, w in weight.items():
        if pos not in dst and pos in summed:
            offsets = [o + d * w for d in range(q) for o in offsets]
    p = table[0].prime
    zero = CycNum.zero(p)
    if len(offsets) == 1:
        return tuple(zero if i is None else table[i] for i in index)
    den, rows = _rows(table, p)
    live = [i for i in index if i is not None]
    # sums[k][j]: den times coefficient k of the fiber sum at the j-th live index
    sums = [list(map(sum, zip(*([row[i + o] for i in live] for o in offsets)))) for row in rows]
    vals = iter(_cycs(sums, den, p))
    return tuple(zero if i is None else next(vals) for i in index)


def expand(table: Table, q: int, new_dim: int, embed: Sequence[int], mode: str) -> Table:
    """Move a table into a larger coordinate set.

    embed[r] is the new position of old position r.  mode 'pullback' ignores
    the extra coordinates; mode 'zero' supports the value only where every
    extra coordinate vanishes.
    """
    return transport(table, q, embed, range(new_dim), zeroed=range(new_dim) if mode == "zero" else ())


def contract(table: Table, q: int, old_dim: int, keep: Sequence[int], mode: str) -> Table:
    """Move a table onto a coordinate subset.

    mode 'slice' reads the value at dropped coordinates = 0; mode 'sum'
    accumulates over all values of the dropped coordinates.
    """
    return transport(table, q, range(old_dim), keep, summed=() if mode == "slice" else range(old_dim))


def apply_perm(table: Table, q: int, perm: Sequence[int]) -> Table:
    """Permute coordinates: new digit j is the old digit perm[j]."""
    return transport(table, q, range(len(perm)), perm)


def reverse_positions(table: Table, q: int, dim: int) -> Table:
    return apply_perm(table, q, list(reversed(range(dim))))


def translate(table: Table, q: int, dim: int, shift: Sequence[int], field: FqField) -> Table:
    """out(v) = table(v + shift), coordinatewise field addition."""
    out = []
    for idx in range(len(table)):
        digs = decode(idx, q, dim)
        moved = [field.add_idx(d, s) for d, s in zip(digs, shift)]
        out.append(table[encode(moved, q)])
    return tuple(out)


def scale(table: Table, c) -> Table:
    if isinstance(c, CycNum):
        return tuple(x * c for x in table)
    if c == 1 or not table:
        return table
    c = Fraction(c)
    p = table[0].prime
    den, rows = _rows(table, p)
    return _cycs([[x * c.numerator for x in row] for row in rows], den * c.denominator, p)


def add(a: Table, b: Table) -> Table:
    return tuple(x + y for x, y in zip(a, b))


def mul_pointwise(a: Table, b: Table) -> Table:
    return tuple(x * y for x, y in zip(a, b))


def dot(a: Table, b: Table, p: int) -> CycNum:
    acc = CycNum.zero(p)
    for x, y in zip(a, b):
        if x and y:
            acc = acc + x * y
    return acc


def fourier(table: Table, q: int, dim: int, field: FqField) -> Table:
    """Dot-pairing transform: out(u) = sum_v table(v) conj(psi(u.v)).

    conj psi(u.v) = prod_j zeta^{-Tr(u_j v_j)}, so the transform factors into
    one q-point transform per coordinate (Yates' algorithm, the shape of the
    fast Walsh-Hadamard transform).  Each pass transforms the top digit and
    moves it to position 0, so after dim passes every digit is back in place.
    Entries are held as integer coefficient rows over Q[x]/(x^p - 1) on a
    common denominator: a factor zeta^k only renames row r to row r + k, and
    the N = q^dim point transform costs O(N*q*dim) integer adds where the
    direct sum costs N^2 cyclotomic products.  The output is exact and equal
    to the direct sum.
    """
    n = len(table)
    if n != q**dim:
        raise DomainError(f"table has {n} entries, expected q^dim = {q**dim}")
    p = field.p
    den, rows = _rows(table, p)
    rows.append([0] * n)  # the coefficient of zeta^(p-1), folded away at the end
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
    top = rows.pop()  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    return _cycs([[x - t for x, t in zip(row, top)] for row in rows], den, p)


def check_table(table: Table, q: int, dim: int, field: FqField) -> Table:
    """out(v) = table(-v)."""
    out = []
    for idx in range(len(table)):
        digs = decode(idx, q, dim)
        out.append(table[encode([field.neg_idx(d) for d in digs], q)])
    return tuple(out)


def psi_linear(field: FqField, dim: int, digits: Sequence[int], conj: bool = False) -> Table:
    """Table of psi(sum_r digits[r] * v_r) over all v (or its conjugate)."""
    q = field.q
    out = []
    for idx in range(q**dim):
        v = decode(idx, q, dim)
        t = field.dot_idx(digits, v)
        out.append(field.conj_psi(t) if conj else field.psi_idx(t))
    return tuple(out)


def is_zero(table: Table) -> bool:
    return all(c.is_zero() for c in table)


def _rows(table: Table, p: int) -> tuple[int, list[list[int]]]:
    """Common denominator den and integer coefficient rows of a table.

    rows[k][i] is den times the coefficient of zeta^k in entry i, so sums and
    rational scalings of entries become integer work on the rows.
    """
    if any(c.prime != p for c in table):
        raise DomainError("mixed cyclotomic fields")
    ratios = [[x.as_integer_ratio() for x in col] for col in zip(*(c.coeffs for c in table))]
    den = math.lcm(*{d for row in ratios for _, d in row})
    return den, [[n * (den // d) for n, d in row] for row in ratios]


def _cycs(rows: Sequence[Sequence[int]], den: int, p: int) -> Table:
    """The table whose entry i has the coefficients rows[k][i] / den.

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
