"""Monomial automorphisms of a doubly-filtered model, their central extension
by nonzero scalars, and the twisted representations on window tables.

The supported automorphisms are v -> c . t^a u^b . v on models whose region
is invariant under the slot shift; they move every filtration member to
another member, which is exactly the hypothesis the corollaries of the
two-dimensional summation identities need.  On a window table the action is
a transport that renames the slots by the shift, then a digit map by the
inverse unit, so a factored (``Kron``) table is acted on factor by factor
and never made dense.  Measure transport along an
automorphism rescales reference bases by an explicit power of q, and the
failure of these powers to cancel is the nontriviality of the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from fqharmonic import tables
from fqharmonic.c2 import (
    BiWindow,
    C2Model,
    D2Dist,
    D2Elem,
    E2Fn,
    VirtualMeasure,
    dual_model2,
    positions2,
    shift_region,
)
from fqharmonic.exactnum import DomainError, q_power


@dataclass(frozen=True)
class AutElem:
    """The monomial automorphism v -> unit . t^t_shift u^u_shift . v."""

    model: C2Model
    t_shift: int
    u_shift: int
    unit: int  # field element index, nonzero

    def __post_init__(self) -> None:
        if self.unit == 0:
            raise DomainError("the unit of an automorphism is nonzero")
        if shift_region(self.model, -self.t_shift, -self.u_shift) != self.model:
            raise DomainError("the shift does not preserve the model region")

    def apply_cut(self, i: int) -> int:
        """Image filtration index: g F(i) = F(i - t_shift)."""
        return i - self.t_shift

    def compose(self, other: "AutElem") -> "AutElem":
        if self.model != other.model:
            raise DomainError("automorphisms of different models")
        return AutElem(
            self.model,
            self.t_shift + other.t_shift,
            self.u_shift + other.u_shift,
            self.model.field.mul_idx(self.unit, other.unit),
        )

    def inverse(self) -> "AutElem":
        return AutElem(
            self.model, -self.t_shift, -self.u_shift, self.model.field.inv_idx(self.unit)
        )

    def is_identity(self) -> bool:
        return self.t_shift == 0 and self.u_shift == 0 and self.unit == 1

    def dual_inverse(self) -> "AutElem":
        """The conjugate-inverse automorphism acting on the dual model."""
        return AutElem(
            dual_model2(self.model),
            -self.t_shift,
            -self.u_shift,
            self.model.field.inv_idx(self.unit),
        )


def aut_identity(model: C2Model) -> AutElem:
    return AutElem(model, 0, 0, 1)


def measure_transport(g: AutElem, vm: VirtualMeasure) -> VirtualMeasure:
    """Transport of a virtual measure along an automorphism.

    In reference coordinates the basis element between cuts f and t picks up
    the volume by which the shift moves standard lattices: a power of q
    counting the region slots between inner levels 0 and u_shift over the
    outer range [f, t), signed when t < f.
    """
    if vm.model != g.model:
        raise DomainError("measure and automorphism on different models")
    factor = q_power(g.model.field.q, g.model.sigma(vm.src, vm.dst, g.u_shift))
    return VirtualMeasure(g.model, g.apply_cut(vm.src), g.apply_cut(vm.dst), vm.scalar * factor)


@dataclass(frozen=True)
class AutHatElem:
    """An automorphism together with a comparison measure at the basepoint."""

    g: AutElem
    mu: VirtualMeasure  # from o to g(o)

    def __post_init__(self) -> None:
        if self.mu.model != self.g.model:
            raise DomainError("lift measure on a different model")
        if self.mu.dst != self.g.apply_cut(self.mu.src):
            raise DomainError("lift measure must compare o with its image")

    @property
    def o(self) -> int:
        return self.mu.src

    def is_central_scalar(self) -> bool:
        return self.g.is_identity()

    def scalar(self) -> Fraction:
        return self.mu.scalar

    def dual_lift(self) -> "AutHatElem":
        return AutHatElem(self.g.dual_inverse(), self.mu.on_dual())


def authat_identity(model: C2Model, o: int) -> AutHatElem:
    return AutHatElem(aut_identity(model), VirtualMeasure(model, o, o, Fraction(1)))


def authat_mul(x: AutHatElem, y: AutHatElem) -> AutHatElem:
    """(g1, m1)(g2, m2) = (g1 g2, m1 o transport_{g1}(m2))."""
    if x.o != y.o:
        raise DomainError("lifts at different basepoints")
    g = x.g.compose(y.g)
    mu = x.mu.compose(measure_transport(x.g, y.mu))
    return AutHatElem(g, mu)


def authat_inverse(x: AutHatElem) -> AutHatElem:
    gi = x.g.inverse()
    return AutHatElem(gi, measure_transport(gi, x.mu.inverse()))


def _relabel(g: AutElem, bw: BiWindow, table):
    """Move a table along the slot relabeling of the automorphism.

    The output lives on the shifted bi-window; the output digit at slot
    (A, B) reads the input digit at (A + t_shift, B + u_shift) scaled by the
    inverse unit.  The shift is a transport that renames every source slot,
    the unit one digit map per slot, so a factored table stays factored.
    """
    model, fld = g.model, g.model.field
    bw_out = BiWindow(bw.l - g.t_shift, bw.i - g.t_shift, bw.m - g.u_shift, bw.n - g.u_shift)
    src = [(A - g.t_shift, B - g.u_shift) for A, B in positions2(model, bw)]
    dst = positions2(model, bw_out)
    table = tables.transport(table, fld.q, src, dst)
    if g.unit != 1:
        cinv = fld.inv_idx(g.unit)
        table = tables.digit_map(table, fld.q, [[fld.mul_idx(cinv, d) for d in range(fld.q)]] * len(dst))
    return bw_out, table


def rep_act(x, target):
    """Twisted action on representatives; germs accept a bare automorphism."""
    if isinstance(target, E2Fn):
        g = x.g if isinstance(x, AutHatElem) else x
        bw_out, table = _relabel(g, target.bw, target.table)
        return E2Fn(target.model, target.tag, bw_out, table)
    if not isinstance(x, AutHatElem):
        raise DomainError("twisted representatives need a lifted automorphism")
    if not isinstance(target, (D2Elem, D2Dist)):
        raise DomainError("unsupported representation target")
    if target.o != x.o:
        raise DomainError("basepoint mismatch")
    g, model = x.g, target.model
    vol = q_power(g.model.field.q, g.model.sigma(target.bw.l, x.o, g.u_shift))
    bw_out, table = _relabel(g, target.bw, target.table)
    if isinstance(target, D2Elem):
        return D2Elem(model, x.o, bw_out, table, target.twist * vol / x.mu.scalar)
    return D2Dist(model, x.o, bw_out, table, target.twist / vol * x.mu.scalar)
