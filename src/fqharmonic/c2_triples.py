"""Graded short exact sequences of doubly-filtered spaces and their images.

The sub and quotient of a triple partition the middle region column by
column.  Direct and inverse images act by slot bookkeeping on bi-window
tables, through the kind table and table move of ``c1_triples``: a twisted
function follows its kind's side-condition rule and a distribution the rule
of the conjugate kind (push and pull swapped).  Every measure identification
required by the class hypotheses (fiberwise compact or discrete sides
trivialize their virtual-measure factors through the canonical mass-1 or
point-mass elements) shows up as an explicit power of q on the twist.

A triple is a value, as in ``c1_triples``: it compares and hashes on its
three models, the label excluded, and ``c1_triples.triple_split`` keeps its
splits by value, so a dual triple rebuilt on each verifier call finds them.

``poisson2_verify`` runs both summation identities in one loop: each side
of a bi-window is widened by the identity's rule until it carries its
characteristic object, and a bi-window is certified exactly when both
widened sides have at most ``max_points`` entries (every one, for None).
The characteristic objects are factored tables (``tables.Kron``), and every
step of the loop keeps them factored, so no table of q^dim entries is built.
Bi-windows whose sides come back on one bi-window share them: a
characteristic object is keyed by its constructor's arguments and its
widened bi-window lowered by the image rule of its own quotient, the window
``images2`` moves it to.  Each distinct object is built once per call and
each distinct primal object is transformed once, so a primal and a dual
side with equal arguments share one build.  The rules widen and lower the outer edges
from the outer edges alone, so an object is kept only until the last outer
window pair keyed to its outer edges, and nothing outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from fqharmonic import tables
from fqharmonic.c1 import WindowError
from fqharmonic.c2 import (
    BiWindow,
    C2Model,
    D2Dist,
    D2Elem,
    VirtualMeasure,
    bw_dim,
    d2_equal,
    dual_model2,
    fourier2,
    positions2,
    vmeas_canonical,
)
from fqharmonic.c1_triples import (
    CONJUGATE, IMAGE_KINDS, CheckReport, _require, cell_points, image_table, image_target, require_members,
    split_flags, sweep_pairs, triple_split,
)
from fqharmonic.exactnum import DomainError, q_power


@dataclass(frozen=True)
class GradedC2Triple:
    mid: C2Model
    sub: C2Model
    quot: C2Model
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        require_members(C2Model, self.mid, self.sub, self.quot)
        if not (self.mid.field == self.sub.field == self.quot.field):
            raise DomainError("triple members over different fields")
        # region membership is constant between consecutive finite box
        # edges, so one point per cell of the edge grid decides it exactly
        boxes = self.mid.boxes + self.sub.boxes + self.quot.boxes
        b_points = cell_points(e for box in boxes for e in box[2:])
        for a in cell_points(e for box in boxes for e in box[:2]):
            for b in b_points:
                in_mid = self.mid.in_region(a, b)
                in_sub = self.sub.in_region(a, b)
                in_quot = self.quot.in_region(a, b)
                if in_sub and in_quot:
                    raise DomainError(f"sub and quot overlap at {(a, b)}")
                if in_mid != (in_sub or in_quot):
                    raise DomainError(f"region partition fails at {(a, b)}")
        object.__setattr__(self, "_hash", hash((self.mid, self.sub, self.quot)))

    def __hash__(self) -> int:
        return self._hash

    split = triple_split

    def make_split(self, bw: BiWindow) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # the sub's slots of the bi-window are its region slots there
        sub = set(positions2(self.sub, bw))
        return split_flags([pos in sub for pos in positions2(self.mid, bw)])


def dual_triple2(T: GradedC2Triple) -> GradedC2Triple:
    return GradedC2Triple(
        dual_model2(T.mid), dual_model2(T.quot), dual_model2(T.sub), f"dual({T.label})"
    )


def outer_cut_triple(mid: C2Model, cut: int, label: str = "") -> GradedC2Triple:
    sub_boxes, quot_boxes = [], []
    for (a1, a2, b1, b2) in mid.boxes:
        sub_boxes.append((a1, cut if a2 is None else min(a2, cut), b1, b2))
        quot_boxes.append((cut if a1 is None else max(a1, cut), a2, b1, b2))
    sub = C2Model(mid.field, tuple(sub_boxes), f"{mid.label}|a<{cut}")
    quot = C2Model(mid.field, tuple(quot_boxes), f"{mid.label}|a>={cut}")
    return GradedC2Triple(mid, sub, quot, label or f"outer@{cut}")


def inner_cut_triple(mid: C2Model, cut: int, label: str = "") -> GradedC2Triple:
    sub_boxes, quot_boxes = [], []
    for (a1, a2, b1, b2) in mid.boxes:
        sub_boxes.append((a1, a2, b1, cut if b2 is None else min(b2, cut)))
        quot_boxes.append((a1, a2, cut if b1 is None else max(b1, cut), b2))
    sub = C2Model(mid.field, tuple(sub_boxes), f"{mid.label}|b<{cut}")
    quot = C2Model(mid.field, tuple(quot_boxes), f"{mid.label}|b>={cut}")
    return GradedC2Triple(mid, sub, quot, label or f"inner@{cut}")


def _check_measure(vm: Optional[VirtualMeasure], model: C2Model, src: int, dst: Optional[int], what: str) -> VirtualMeasure:
    if vm is None:
        raise DomainError(f"{what} requires a virtual measure")
    if vm.model != model or vm.src != src:
        raise DomainError(f"{what}: measure endpoints do not match")
    # an empty side makes every cut equivalent, so any endpoint is fine
    if dst is not None and vm.dst != dst and not model.is_empty:
        raise DomainError(f"{what}: measure endpoints do not match")
    return vm


# ---------------------------------------------------------------------------
# the four images on twisted functions and their four conjugates
# ---------------------------------------------------------------------------


def raise_outer_top(model: C2Model, bw: BiWindow) -> BiWindow:
    """bw with its outer top raised over the outer top of an outer-compact model."""
    return BiWindow(bw.l, max(bw.i, model.outer_sup), bw.m, bw.n)


def raise_inner_top(model: C2Model, bw: BiWindow) -> BiWindow:
    """bw with its inner top raised over the model's column tops on the outer window."""
    sup = model.inner_sup(bw.l, bw.i)
    return BiWindow(bw.l, bw.i, bw.m, bw.n if sup is None else max(bw.n, sup))


def lower_outer_bottom(model: C2Model, bw: BiWindow) -> BiWindow:
    """bw with its outer bottom lowered under the outer bottom of an outer-discrete model."""
    return BiWindow(min(bw.l, model.outer_inf), bw.i, bw.m, bw.n)


def lower_inner_bottom(model: C2Model, bw: BiWindow) -> BiWindow:
    """bw with its inner bottom lowered under the model's column bottoms on the outer window."""
    inf = model.inner_inf(bw.l, bw.i)
    return BiWindow(bw.l, bw.i, bw.m if inf is None else min(bw.m, inf), bw.n)


# side-condition rules, named by the kind of twisted function that follows
# them and shared with the conjugate kind of distribution; each gives the
# bi-window to move to, the measure factor of the table and that of the twist


def _outer_compact_sub(kind: str, T: GradedC2Triple, x, aux) -> tuple[BiWindow, Fraction, Fraction]:
    top = T.sub.outer_sup
    _require(top is not None, f"{kind} needs an outer-compact sub")
    mu = _check_measure(aux, T.sub, x.o, top, kind)
    bw = raise_outer_top(T.sub, x.bw)
    return bw, q_power(T.mid.field.q, T.sub.sigma(bw.l, bw.i, bw.m)), mu.scalar


def _outer_discrete_quot(kind: str, T: GradedC2Triple, x, aux) -> tuple[BiWindow, Fraction, Fraction]:
    bot = T.quot.outer_inf
    _require(bot is not None, f"{kind} needs an outer-discrete quotient")
    nu = _check_measure(aux, T.quot, x.o, bot, kind)
    return lower_outer_bottom(T.quot, x.bw), Fraction(1), nu.scalar


def _fiberwise_compact_sub(kind: str, T: GradedC2Triple, x, aux) -> tuple[BiWindow, Fraction, Fraction]:
    canonical = vmeas_canonical(T.sub, x.bw.l, x.o, "one")
    return raise_inner_top(T.sub, x.bw), Fraction(1), canonical.scalar


def _fiberwise_discrete_quot(kind: str, T: GradedC2Triple, x, aux) -> tuple[BiWindow, Fraction, Fraction]:
    canonical = vmeas_canonical(T.quot, x.bw.l, x.o, "delta")
    return lower_inner_bottom(T.quot, x.bw), Fraction(1), canonical.scalar


_RULES2 = {
    "beta_push": _outer_compact_sub,
    "alpha_pull": _outer_discrete_quot,
    "beta_pull": _fiberwise_compact_sub,
    "alpha_push": _fiberwise_discrete_quot,
}


def images2(kind: str, T: GradedC2Triple, x, aux: Optional[VirtualMeasure] = None):
    """Direct/inverse images along a graded triple of doubly-filtered spaces.

    * beta_push / alpha_pull consume a virtual measure on the outer-compact
      sub resp. the outer-discrete quotient;
    * beta_pull / alpha_push need a fiberwise compact sub resp. fiberwise
      discrete quotient and trivialize the matching measure factor through
      the canonical elements.
    Distributions make the same table moves under the conjugate kind's
    conditions.  The move of the representative to the rule's bi-window
    raises WindowError when the window is on the wrong side.
    """
    if kind not in IMAGE_KINDS or not isinstance(x, (D2Elem, D2Dist)):
        raise DomainError(f"no image {kind!r} of a {type(x).__name__}")
    dst = image_target(kind, T, x)
    rule = _RULES2[kind if isinstance(x, D2Elem) else CONJUGATE[kind]]
    bw, factor, twist_factor = rule(kind, T, x, aux)
    moved = x.at(bw)
    table = tables.scale(image_table(kind, T, moved.table, bw), factor)
    return type(x)(dst, x.o, bw, table, moved.twist * twist_factor)


# ---------------------------------------------------------------------------
# canonical elements and characteristic distributions
# ---------------------------------------------------------------------------


def one_fn(model: C2Model, o: int, bw: BiWindow) -> D2Elem:
    """The constant 1 of a fiberwise compact model, canonically twisted."""
    twist = vmeas_canonical(model, bw.l, o, "one").scalar
    if raise_inner_top(model, bw) != bw:
        raise WindowError("window must contain the column tops")
    table = tables.const_kron(model.field.p, 1, model.field.q, bw_dim(model, bw))
    return D2Elem(model, o, bw, table, twist)


def delta0_fn(model: C2Model, o: int, bw: BiWindow) -> D2Elem:
    """The unit point mass at 0 of a fiberwise discrete model."""
    twist = vmeas_canonical(model, bw.l, o, "delta").scalar
    if lower_inner_bottom(model, bw) != bw:
        raise WindowError("window must reach below the column bottoms")
    table = tables.point_kron(model.field.p, 1, model.field.q, (0,) * bw_dim(model, bw))
    return D2Elem(model, o, bw, table, twist)


def one_mu(model: C2Model, mu: VirtualMeasure, bw: BiWindow) -> D2Dist:
    """The measure of an outer-compact model as a distribution on it."""
    top = model.outer_sup
    _require(top is not None, "the measure profile needs an outer-compact model")
    _check_measure(mu, model, mu.src, top, "one_mu")
    if bw.i < top:
        raise WindowError("window top must cover the whole model")
    q = model.field.q
    dim = bw_dim(model, bw)
    value = mu.scalar * q_power(q, model.sigma(bw.l, bw.i, bw.m))
    return D2Dist(model, mu.src, bw, tables.const_kron(model.field.p, value, q, dim), Fraction(1))


def delta_nu(model: C2Model, nu: VirtualMeasure, bw: BiWindow) -> D2Dist:
    """The evaluation at 0 of an outer-discrete model, scaled by the measure."""
    bot = model.outer_inf
    _require(bot is not None, "the point evaluation needs an outer-discrete model")
    _check_measure(nu, model, nu.src, bot, "delta_nu")
    if bw.l > bot:
        raise WindowError("window bottom must sit below the whole model")
    table = tables.point_kron(model.field.p, nu.scalar, model.field.q, (0,) * bw_dim(model, bw))
    return D2Dist(model, nu.src, bw, table, Fraction(1))


def char_dist(T: GradedC2Triple, mu: VirtualMeasure, nu: VirtualMeasure, bw: BiWindow) -> D2Dist:
    """The characteristic distribution of the sub inside the middle model."""
    return images2("alpha_push", T, one_mu(T.sub, mu, bw), nu)


def char_fn(T: GradedC2Triple, o: int, bw: BiWindow) -> D2Elem:
    """The characteristic function of a fiberwise compact sub (twist-free)."""
    return images2("alpha_push", T, one_fn(T.sub, o, bw))


# ---------------------------------------------------------------------------
# the two-dimensional Poisson identities
# ---------------------------------------------------------------------------


# the fault poisson2_verify injects into each identity as a negative control
POISSON2_FAULTS = {"I": "measure", "II": "transition"}


def poisson2_conditions(which: str, T: GradedC2Triple) -> None:
    """Refuse a triple outside the class of identity I (twisted) or II (twist-free)."""
    if which == "II":
        _require(T.sub.is_cf, "the twist-free identity needs a fiberwise compact sub")
        _require(T.quot.is_df, "the twist-free identity needs a fiberwise discrete quotient")
    elif which == "I":
        _require(T.sub.is_c, "the twisted identity needs an outer-compact sub")
        _require(T.quot.is_d, "the twisted identity needs an outer-discrete quotient")
    else:
        raise DomainError("which must be 'I' or 'II'")


def poisson2_verify(
    which: str,
    T: GradedC2Triple,
    mu: Optional[VirtualMeasure] = None,
    nu: Optional[VirtualMeasure] = None,
    o: int = 0,
    cut_lo: int = -2,
    cut_hi: int = 2,
    max_points: Optional[int] = 256,
    corrupt: Optional[str] = None,
) -> CheckReport:
    """Check the transform of the sub's characteristic object against the
    dual triple's, bi-window by bi-window, through two independent
    pipelines (the primal construction transformed, and the dual-triple
    construction built directly).  The identity's fault (``POISSON2_FAULTS``)
    scales the primal object by q before the transform; any other fault
    raises DomainError.

    Every bi-window is counted and compared, in order, and its cap is read
    on the widened bi-windows, but each distinct characteristic object and
    each distinct transform is built once (see ``_Sides``).  An object is
    kept under its constructor's arguments and its widened bi-window lowered
    by its own quotient's image rule (II lowers the inner bottom to the
    quotient's column bottoms, I the outer bottom to its outer bottom).  The
    two argument tuples get small ids once per call, so a dual object whose
    arguments equal the primal's (a self-dual triple, o = 0 and dual
    measures (nu*, mu*) equal to (mu, nu)) is the primal object.  A range
    or cap that leaves nothing to check raises DomainError."""
    poisson2_conditions(which, T)
    fault = POISSON2_FAULTS[which]
    if corrupt not in (None, fault):
        raise DomainError(f"identity {which} injects no fault {corrupt!r}, only {fault!r}")
    windows = sweep_pairs(cut_lo, cut_hi, max_points)
    Td = dual_triple2(T)
    q = T.mid.field.q
    if which == "II":
        if mu is not None or nu is not None:
            raise DomainError("the twist-free identity reads no measures")
        widen, lower, build = raise_inner_top, lower_inner_bottom, char_fn
        args, dual_args = (T, o), (Td, -o)
    else:
        if mu is None or nu is None:
            raise DomainError("the twisted identity consumes both measures")
        if mu.src != o:
            raise DomainError(f"the twisted identity runs at its measures' source {mu.src}, not at o = {o}")
        widen, lower, build = raise_outer_top, lower_outer_bottom, char_dist
        args, dual_args = (T, mu, nu), (Td, nu.on_dual(), mu.on_dual())
    dual_id = {args: 0}.setdefault(dual_args, 1)
    report = CheckReport(f"poisson2_{which}")

    def transformed(bw: BiWindow):
        x = sides.get(0, bw)
        return fourier2(x * Fraction(q) if corrupt == fault else x)

    primal_key = partial(lower, T.quot)
    kinds = {0: (partial(build, *args), primal_key), 2: (transformed, primal_key)}
    kinds.setdefault(dual_id, (partial(build, *dual_args), partial(lower, Td.quot)))
    # both rules widen and lower the outer edges from the outer edges alone,
    # so any inner pair gives an outer pair's keyed outer edges
    outer = [(widen(T.sub, bw.dual()), widen(Td.sub, bw)) for bw in (BiWindow(l, i, 0, 0) for l, i in windows)]
    sides = _Sides(kinds, [((0, p), (2, p), (dual_id, d)) for p, d in outer])
    for k, (l, i) in enumerate(windows):
        for m, n in windows:
            bw = BiWindow(l, i, m, n)
            primal_bw, dual_bw = widen(T.sub, bw.dual()), widen(Td.sub, bw)
            if max_points is not None and (
                q ** bw_dim(T.mid, primal_bw) > max_points or q ** bw_dim(Td.mid, dual_bw) > max_points
            ):
                continue
            report.cases += 1
            if not d2_equal(sides.get(2, primal_bw), sides.get(dual_id, dual_bw)):
                report.fail(f"poisson2_{which}_characteristic_transform", f"bi-window {bw}")
        sides.release(k)
    return report


class _Sides:
    """The objects of a summation sweep, each distinct one built once.

    ``kinds`` maps a side id to its builder and key rule: the primal objects
    are 0, their transforms 2, and the dual objects 0 too when their
    arguments are the primal's, else 1.  An object is asked for by id at its
    widened bi-window and kept under the id and its key, that window lowered
    by the image rule of the side's own quotient.  The objects are grouped
    by id and the outer edges of their keys, and a group is dropped after
    the last outer pair k whose asks (``asks[k]``: (id, widened outer pair)
    of either side) are keyed to it, so at most the groups either side may
    still ask for are held.  II's keys keep the outer edges; I's lowered
    outer bottom merges the groups of the outer pairs with one raised top
    whose bottoms lie at or above the quotient's outer bottom."""

    def __init__(self, kinds: dict, asks: list) -> None:
        self.kinds = kinds
        # (id, keyed outer edges) -> the index of the last outer pair keyed to them
        self.last = {(sid, *kinds[sid][1](bw).edges[:2]): k for k, ask in enumerate(asks) for sid, bw in ask}
        self.groups: dict[tuple[int, int, int], dict] = {}

    def get(self, sid: int, bw: BiWindow):
        build, key = self.kinds[sid]
        key = key(bw)
        group = self.groups.setdefault((sid, key.l, key.i), {})
        side = group.get(key)
        if side is None:
            side = group[key] = build(bw)
        return side

    def release(self, k: int) -> None:
        for g in [g for g in self.groups if self.last[g] == k]:
            del self.groups[g]
