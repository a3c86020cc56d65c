"""Dense CycNum tables over mixed positions with radix q.

A "table" is a tuple of CycNum of length q^D indexed by D coordinate digits,
least-significant digit = position 0.  The window layers move tables between
windows with four primitives: pull back along a coordinate projection, extend
by zero into new coordinates, slice onto a coordinate subspace, and sum over
dropped coordinates.  Function tables and pairing (distribution) tables use
these primitives in opposite directions.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from fqharmonic.exactnum import CycNum, DomainError, FqField, _reduce_cyclotomic

Table = tuple[CycNum, ...]


def table_size(q: int, dim: int) -> int:
    return q**dim


def decode(index: int, q: int, dim: int) -> tuple[int, ...]:
    return tuple((index // q**j) % q for j in range(dim))


def encode(digits: Sequence[int], q: int) -> int:
    return sum(d * q**j for j, d in enumerate(digits))


def zero_table(p: int, q: int, dim: int) -> Table:
    return tuple(CycNum.zero(p) for _ in range(q**dim))


def const_table(value: CycNum, q: int, dim: int) -> Table:
    return tuple(value for _ in range(q**dim))


def expand(table: Table, q: int, new_dim: int, embed: Sequence[int], mode: str) -> Table:
    """Move a table into a larger coordinate set.

    embed[r] is the new position of old position r.  mode 'pullback' ignores
    the extra coordinates; mode 'zero' supports the value only where every
    extra coordinate vanishes.
    """
    old_dim = len(embed)
    p = table[0].prime
    zero = CycNum.zero(p)
    embedded = set(embed)
    out = []
    for idx in range(q**new_dim):
        digs = decode(idx, q, new_dim)
        if mode == "zero" and any(digs[j] for j in range(new_dim) if j not in embedded):
            out.append(zero)
            continue
        old = encode([digs[embed[r]] for r in range(old_dim)], q)
        out.append(table[old])
    return tuple(out)


def contract(table: Table, q: int, old_dim: int, keep: Sequence[int], mode: str) -> Table:
    """Move a table onto a coordinate subset.

    mode 'slice' reads the value at dropped coordinates = 0; mode 'sum'
    accumulates over all values of the dropped coordinates.
    """
    p = table[0].prime if table else 2
    dropped = [j for j in range(old_dim) if j not in set(keep)]
    out = []
    for idx in range(q ** len(keep)):
        digs = decode(idx, q, len(keep))
        base = [0] * old_dim
        for r, pos in enumerate(keep):
            base[pos] = digs[r]
        if mode == "slice":
            out.append(table[encode(base, q)])
        else:
            acc = CycNum.zero(p)
            for combo in itertools.product(range(q), repeat=len(dropped)):
                for pos, d in zip(dropped, combo):
                    base[pos] = d
                acc = acc + table[encode(base, q)]
            out.append(acc)
    return tuple(out)


def apply_perm(table: Table, q: int, perm: Sequence[int]) -> Table:
    """Permute coordinates: new digit j is the old digit perm[j]."""
    dim = len(perm)
    out = [table[0]] * len(table)
    for idx in range(len(table)):
        digs = decode(idx, q, dim)
        out[encode([digs[perm[j]] for j in range(dim)], q)] = table[idx]
    return tuple(out)


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
    return tuple(x * c for x in table)


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
    if any(c.prime != p for c in table):
        raise DomainError("mixed cyclotomic fields")
    den = math.lcm(*(x.denominator for c in table for x in c.coeffs))
    # rows[k][i] = den * (coefficient of zeta^k in entry i); row p-1 starts empty
    rows = [
        [x.numerator * (den // x.denominator) for x in col]
        for col in zip(*(c.coeffs for c in table))
    ]
    rows.append([0] * n)
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
    out = []
    seen: dict[tuple[int, ...], CycNum] = {}  # equal entries share one reduction
    for col in zip(*rows):
        val = seen.get(col)
        if val is None:
            red = _reduce_cyclotomic(col, p)
            val = seen[col] = CycNum(p, red if den == 1 else tuple(x / den for x in red))
        out.append(val)
    return tuple(out)


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


def tables_equal(a: Table, b: Table) -> bool:
    if len(a) != len(b):
        raise DomainError("tables of different sizes")
    return all(x == y for x, y in zip(a, b))
