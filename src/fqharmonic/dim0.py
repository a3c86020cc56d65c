"""Harmonic analysis on finite-dimensional F_q-vector spaces.

Every construction at positive level reduces to the dense-table operations in
this module: pairing, direct/inverse image along a linear map, the Fourier
transform against the fixed character, and annihilator computation via exact
echelon algebra.  Tables are deliberately dense; the transform is the shared
separable one of ``tables.fourier``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from fqharmonic import tables
from fqharmonic.exactnum import CycNum, DomainError, FqField


@dataclass(frozen=True)
class FinSpace:
    """F_q^dim with points enumerated lexicographically, least index fastest."""

    field: FqField
    dim: int

    @property
    def size(self) -> int:
        return self.field.q**self.dim

    def vec(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.size:
            raise DomainError(f"{index} indexes no point of F_{self.field.q}^{self.dim}")
        return tables.decode(index, self.field.q, self.dim)

    def index(self, vec: Sequence[int]) -> int:
        q = self.field.q
        if len(vec) != self.dim or not all(0 <= d < q for d in vec):
            raise DomainError(f"{tuple(vec)} is not a vector of F_{q}^{self.dim}")
        return tables.encode(vec, q)

    def vectors(self) -> Iterator[tuple[int, ...]]:
        q, dim = self.field.q, self.dim
        return (tables.decode(i, q, dim) for i in range(self.size))


@dataclass(frozen=True)
class LinMap:
    """Linear map between FinSpaces; rows are target coordinates."""

    source: FinSpace
    target: FinSpace
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != self.target.dim or any(
            len(r) != self.source.dim for r in self.rows
        ):
            raise DomainError("matrix shape does not match source/target")

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        f = self.source.field
        return tuple(f.dot_idx(row, vec) for row in self.rows)

    def compose(self, inner: "LinMap") -> "LinMap":
        """self o inner."""
        if inner.target != self.source:
            raise DomainError("composition shape mismatch")
        f = self.source.field
        cols = [inner.apply(_unit(inner.source, j)) for j in range(inner.source.dim)]
        rows = tuple(
            tuple(f.dot_idx(row, col) for col in cols) for row in self.rows
        )
        return LinMap(inner.source, self.target, rows)

    def dual(self) -> "LinMap":
        """The conjugate map between dual spaces (matrix transpose)."""
        rows = tuple(
            tuple(self.rows[i][j] for i in range(self.target.dim))
            for j in range(self.source.dim)
        )
        return LinMap(self.target, self.source, rows)

    @staticmethod
    def identity(space: FinSpace) -> "LinMap":
        rows = tuple(
            tuple(1 if i == j else 0 for j in range(space.dim)) for i in range(space.dim)
        )
        return LinMap(space, space, rows)

    @staticmethod
    def zero(source: FinSpace, target: FinSpace) -> "LinMap":
        rows = tuple(tuple(0 for _ in range(source.dim)) for _ in range(target.dim))
        return LinMap(source, target, rows)


def _unit(space: FinSpace, j: int) -> tuple[int, ...]:
    return tuple(1 if k == j else 0 for k in range(space.dim))


@dataclass(frozen=True)
class Fn0:
    """Dense CycNum-valued function table on a FinSpace."""

    space: FinSpace
    table: tables.Rows  # a CycNum sequence is accepted and stored as Rows

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tables.as_rows(self.table, self.space.field.p))
        if len(self.table) != self.space.size:
            raise DomainError("table length must be q^dim")

    @staticmethod
    def delta(space: FinSpace, vec: Sequence[int]) -> "Fn0":
        return Fn0.indicator(space, [vec])

    @staticmethod
    def constant(space: FinSpace, value: CycNum) -> "Fn0":
        # dense: an Fn0 hashes its table, and a Kron is not hashable
        return Fn0(space, tables.const_kron(space.field.p, value, space.field.q, space.dim).dense())

    @staticmethod
    def indicator(space: FinSpace, points: Sequence[Sequence[int]]) -> "Fn0":
        return Fn0(space, tables.indicator_table(space.field.p, space.size, map(space.index, points)))

    def __add__(self, other: "Fn0") -> "Fn0":
        if self.space != other.space:
            raise DomainError("space mismatch")
        return Fn0(self.space, tables.add(self.table, other.table))

    def __mul__(self, c):
        return Fn0(self.space, tables.scale(self.table, c))

    __rmul__ = __mul__

    def check(self) -> "Fn0":
        sp = self.space
        return Fn0(sp, tables.check_table(self.table, sp.field.q, sp.dim, sp.field))


def pairing0(f: Fn0, g: Fn0) -> CycNum:
    """The nondegenerate symmetric pairing sum_v f(v) g(v)."""
    if f.space != g.space:
        raise DomainError("pairing of functions on different spaces")
    return tables.dot(f.table, g.table, f.space.field.p)


def push0(pi: LinMap, f: Fn0) -> Fn0:
    """Direct image: sums over fibers, zero off the image."""
    if f.space != pi.source:
        raise DomainError("function not on the source of the map")
    return Fn0(pi.target, tables.scatter(f.table, _image_index(pi), pi.target.size))


def pull0(pi: LinMap, g: Fn0) -> Fn0:
    """Inverse image: composition with the map."""
    if g.space != pi.target:
        raise DomainError("function not on the target of the map")
    return Fn0(pi.source, tables.gather(g.table, _image_index(pi)))


def _image_index(pi: LinMap) -> list[int]:
    """The target index of the image of every source point."""
    q = pi.target.field.q
    return [tables.encode(pi.apply(v), q) for v in pi.source.vectors()]


def fourier0(f: Fn0) -> Fn0:
    """F(f)(u) = sum_v f(v) conj(psi(u . v)) on the concretized dual space."""
    sp = f.space
    return Fn0(sp, tables.fourier(f.table, sp.field.q, sp.dim, sp.field))


# ---------------------------------------------------------------------------
# echelon algebra and subspaces
# ---------------------------------------------------------------------------


def rref(rows: Sequence[Sequence[int]], ncols: int, field: FqField):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        inv = field.inv_idx(work[r][c])
        work[r] = [field.mul_idx(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                fac = work[i][c]
                work[i] = [
                    field.sub_idx(work[i][j], field.mul_idx(fac, work[r][j]))
                    for j in range(ncols)
                ]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return [tuple(row) for row in work[:r]], pivots


def kernel_basis(rows: Sequence[Sequence[int]], ncols: int, field: FqField):
    """Canonical (RREF) basis of the right kernel of the matrix."""
    red, pivots = rref(rows, ncols, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg_idx(red[r][fc])
        basis.append(vec)
    canon, _ = rref(basis, ncols, field)
    return canon


@dataclass(frozen=True)
class Subspace0:
    """Subspace in canonical reduced-echelon representation."""

    ambient: FinSpace
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_vectors(ambient: FinSpace, vectors: Sequence[Sequence[int]]) -> "Subspace0":
        red, _ = rref(vectors, ambient.dim, ambient.field)
        return Subspace0(ambient, tuple(red))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self) -> Iterator[tuple[int, ...]]:
        fld = self.ambient.field
        zero = tuple(0 for _ in range(self.ambient.dim))
        for combo in itertools.product(range(fld.q), repeat=self.dim):
            v = zero
            for c, b in zip(combo, self.basis):
                v = tuple(fld.add_idx(x, fld.mul_idx(c, y)) for x, y in zip(v, b))
            yield v

    def size(self) -> int:
        return self.ambient.field.q**self.dim

    def indicator(self) -> Fn0:
        return Fn0.indicator(self.ambient, list(self.points()))


def annihilator0(H: Subspace0) -> Subspace0:
    """H^perp = {u in V* : u(H) = 0}, in the dual coordinates."""
    basis = kernel_basis(H.basis, H.ambient.dim, H.ambient.field)
    return Subspace0(H.ambient, tuple(tuple(b) for b in basis))


def all_subspaces(space: FinSpace) -> Iterator[Subspace0]:
    """Every subspace of the space, enumerated through RREF matrices."""
    n = space.dim
    fld = space.field
    yield Subspace0(space, ())
    for r in range(1, n + 1):
        for pivots in itertools.combinations(range(n), r):
            free_slots = []
            for i in range(r):
                for j in range(n):
                    if j > pivots[i] and j not in pivots:
                        free_slots.append((i, j))
            for fill in itertools.product(range(fld.q), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free_slots, fill):
                    rows[i][j] = val
                yield Subspace0(space, tuple(tuple(row) for row in rows))


def fibered_square(pi: LinMap, alpha: LinMap):
    """Cartesian square over a common target.

    Given pi: V -> S and alpha: W -> S, returns (P, alpha_V, pi_W) with
    P = V x_S W, alpha_V: P -> V and pi_W: P -> W, so that
    pi o alpha_V = alpha o pi_W.
    """
    if pi.target != alpha.target:
        raise DomainError("maps must share a target")
    V, W, S = pi.source, alpha.source, pi.target
    fld = V.field
    rows = []
    for i in range(S.dim):
        row = list(pi.rows[i]) + [fld.neg_idx(x) for x in alpha.rows[i]]
        rows.append(row)
    basis = kernel_basis(rows, V.dim + W.dim, fld)
    P = FinSpace(fld, len(basis))
    alpha_v = LinMap(
        P, V, tuple(tuple(basis[j][i] for j in range(len(basis))) for i in range(V.dim))
    )
    pi_w = LinMap(
        P,
        W,
        tuple(tuple(basis[j][V.dim + i] for j in range(len(basis))) for i in range(W.dim)),
    )
    return P, alpha_v, pi_w
