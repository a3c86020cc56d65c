"""Admissible triples of integer-indexed filtered spaces, at window level.

A triple 0 -> E1 -> E2 -> E3 -> 0 in this package is graded: every graded
slot of the middle model is assigned to the sub or to the quotient, and the
index maps between the three filtrations are the identity on cuts (models are
pre-normalized so that filtration index = cut).  Each window of the middle
model then induces an exact sequence of finite quotients, and the direct
and inverse images act by slot bookkeeping on tables.

``IMAGE_KINDS`` is the one table of image kinds, shared with ``c2_triples``:
alpha_pull (alpha^*) slices a middle table onto the sub, alpha_push
(alpha_*) zero-extends a sub table, beta_pull (beta^*) pulls a quotient
table back and beta_push (beta_*) sums a middle table onto the quotient.
Functions and distributions are conjugate realizations of the same images:
both make the kind's one table move (``image_table``), and a distribution
meets the side conditions (capability, window widening, measure factor) of
the ``CONJUGATE`` kind, which swaps push and pull.

``poisson1_verify`` is one loop over windows that builds both sides of the
summation identity through ``char_dist1``.  No side widens and a window has
the dim of its dual, so the one cap rule reads the middle window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional

from fqharmonic import tables
from fqharmonic.c1 import (
    C1Dist,
    C1Fn,
    CapabilityError,
    HaarMeasure,
    Window,
    WindowError,
    C1Model,
    dual_model,
    dual_window,
    fourier1,
    positions,
    sum_model,
    window_dim,
)
from fqharmonic.exactnum import CycNum, DomainError


@dataclass(frozen=True, eq=False)
class TripleC1:
    """Graded short exact sequence sub -> mid -> quot."""

    mid: C1Model
    sub: C1Model
    quot: C1Model
    is_sub: Callable[[int, int], bool]
    label: str = ""
    # split by window: is_sub is a closure, so a split is kept on the triple
    # and not by value
    _splits: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (self.mid.field == self.sub.field == self.quot.field):
            raise DomainError("triple members over different fields")

    def split(self, w: Window) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Indices of sub and quot slots inside the mid window positions."""
        got = self._splits.get(w)
        if got is None:
            sub_idx, quot_idx = split_flags([self.is_sub(k, s) for k, s in positions(self.mid, w)])
            if len(sub_idx) != window_dim(self.sub, w) or len(quot_idx) != window_dim(self.quot, w):
                raise DomainError(f"graded split inconsistent on window {w}")
            got = self._splits[w] = sub_idx, quot_idx
        return got


def split_flags(in_sub: list[bool]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices of the true flags (sub slots) and of the false ones."""
    return tuple(r for r, s in enumerate(in_sub) if s), tuple(r for r, s in enumerate(in_sub) if not s)


def interval_triple(mid: C1Model, sub: C1Model, label: str = "") -> TripleC1:
    """Triple with the sub given by its own slot interval inside the mid."""
    # multiplicities are constant between consecutive interval endpoints, so
    # one cut per cell decides the inclusion exactly
    for k in cell_points(e for iv in mid.intervals + sub.intervals for e in iv):
        if sub.mult(k) > mid.mult(k):
            raise DomainError(f"sub pattern exceeds the mid pattern at cut {k}")
    quot = mid.intervals
    if sub.intervals:
        if len(sub.intervals) > 1 or len(mid.intervals) > 1:
            raise DomainError(f"not an interval pattern: {sub!r} inside {mid!r}")
        ((m1, m2),), ((s1, s2),) = mid.intervals, sub.intervals
        # the mid slots below and above the sub; an unbounded side leaves none
        quot = [(m1, s1)] if s1 is not None else []
        if s2 is not None:
            quot.append((s2, m2))

    def is_sub(k: int, s: int) -> bool:
        return s < sub.mult(k)

    quot_model = C1Model(mid.field, quot, f"{mid.label}/{sub.label}")
    return TripleC1(mid, sub, quot_model, is_sub, label or f"{sub.label}<{mid.label}")


def cell_points(edges: Iterable[Optional[int]]) -> list[int]:
    """One integer in each cell of the line cut at the finite edges."""
    cuts = sorted({e for e in edges if e is not None}) or [0]
    return [cuts[0] - 1] + cuts


def direct_sum_triple(sub: C1Model, quot: C1Model, label: str = "") -> TripleC1:
    """Split extension with the sub slots listed first at every cut."""
    mid = sum_model(sub, quot)

    def is_sub(k: int, s: int) -> bool:
        return s < sub.mult(k)

    return TripleC1(mid, sub, quot, is_sub, label or f"{sub.label}(+){quot.label}")


def dual_triple(T: TripleC1) -> TripleC1:
    """0 -> quot* -> mid* -> sub* -> 0 with mirrored slot assignment."""

    def is_sub(k: int, s: int) -> bool:
        return not T.is_sub(-k - 1, s)

    return TripleC1(
        dual_model(T.mid),
        dual_model(T.quot),
        dual_model(T.sub),
        is_sub,
        f"dual({T.label})",
    )


# -- composition and base-change plumbing


def _slot_within(pred: Callable[[int, int], bool], mid: C1Model, k: int, s: int, value: bool) -> int:
    """Index of slot (k, s) within the slots of the same truth value at cut k."""
    return sum(1 for s2 in range(s) if pred(k, s2) == value)


def _nth_slot(pred: Callable[[int, int], bool], mid: C1Model, k: int, j: int, value: bool) -> int:
    cnt = 0
    for s in range(mid.mult(k)):
        if pred(k, s) == value:
            if cnt == j:
                return s
            cnt += 1
    raise DomainError("slot index out of range")


def compose_epi(T_inner: TripleC1, T_outer: TripleC1, label: str = "") -> TripleC1:
    """Composite epimorphism H -> E2 -> E3.

    T_outer is L -> H -> E2 and T_inner is E1 -> E2 -> E3; the result is the
    triple ker -> H -> E3 with ker = the pullback of E1 to H.
    """
    if T_outer.quot != T_inner.mid:
        raise DomainError("outer quotient must be the inner middle model")
    ker = sum_model(T_outer.sub, T_inner.sub, label=f"ker({label})" if label else "")

    def is_sub(k: int, s: int) -> bool:
        if T_outer.is_sub(k, s):
            return True
        j = _slot_within(T_outer.is_sub, T_outer.mid, k, s, False)
        return T_inner.is_sub(k, j)

    return TripleC1(T_outer.mid, ker, T_inner.quot, is_sub, label or "compose_epi")


def compose_mono(T_inner: TripleC1, T_outer: TripleC1, label: str = "") -> TripleC1:
    """Composite monomorphism E1 -> E2 -> H'.

    T_inner is E1 -> E2 -> E3 and T_outer is E2 -> H' -> L'; the result is
    E1 -> H' -> coker with coker = E3 pushed out along H'.
    """
    if T_outer.sub != T_inner.mid:
        raise DomainError("outer sub must be the inner middle model")
    coker = sum_model(T_inner.quot, T_outer.quot, label=f"coker({label})" if label else "")

    def is_sub(k: int, s: int) -> bool:
        if not T_outer.is_sub(k, s):
            return False
        j = _slot_within(T_outer.is_sub, T_outer.mid, k, s, True)
        return T_inner.is_sub(k, j)

    return TripleC1(T_outer.mid, T_inner.sub, coker, is_sub, label or "compose_mono")


def base_change(T: TripleC1, Tg: TripleC1, label: str = ""):
    """Pull the triple T back along an admissible mono into its quotient.

    T is E1 -> E2 -> E3 and Tg is D -> E3 -> B.  Returns (T_fiber, T_mono)
    where T_fiber is E1 -> X' -> D on the fibered product X' and T_mono is
    X' -> E2 -> B.
    """
    if Tg.mid != T.quot:
        raise DomainError("the mono must land in the quotient of the triple")
    X = sum_model(T.sub, Tg.sub, label=f"fib({label})" if label else "")

    def in_x(k: int, s: int) -> bool:
        if T.is_sub(k, s):
            return True
        j = _slot_within(T.is_sub, T.mid, k, s, False)
        return Tg.is_sub(k, j)

    def fiber_is_sub(k: int, s: int) -> bool:
        mid_slot = _nth_slot(in_x, T.mid, k, s, True)
        return T.is_sub(k, mid_slot)

    T_mono = TripleC1(T.mid, X, Tg.quot, in_x, (label or "bc") + ":mono")
    T_fiber = TripleC1(X, T.sub, Tg.sub, fiber_is_sub, (label or "bc") + ":fiber")
    return T_fiber, T_mono


# ---------------------------------------------------------------------------
# direct and inverse images
# ---------------------------------------------------------------------------


# kind: (source member, target member, slots of T.split moved (0 sub, 1
# quotient), table mode).
# alpha_pull slices onto the sub, alpha_push zero-extends from the sub,
# beta_pull pulls back from the quotient and beta_push sums onto it.
IMAGE_KINDS = {
    "alpha_pull": ("mid", "sub", 0, "slice"),
    "alpha_push": ("sub", "mid", 0, "zero"),
    "beta_pull": ("quot", "mid", 1, "pullback"),
    "beta_push": ("mid", "quot", 1, "sum"),
}
# a distribution makes a kind's table move under its conjugate's side conditions
CONJUGATE = {
    "alpha_pull": "alpha_push",
    "alpha_push": "alpha_pull",
    "beta_pull": "beta_push",
    "beta_push": "beta_pull",
}


def image_target(kind: str, T, x):
    """The member of triple T that kind maps x to, once x sits on its source."""
    src, dst = IMAGE_KINDS[kind][:2]
    if x.model != getattr(T, src):
        raise DomainError(f"{kind} expects a representative on the {src} model")
    return getattr(T, dst)


def image_table(kind: str, T, table, w):
    """The kind's table move across the middle window (or bi-window) w."""
    src, _dst, keep, mode = IMAGE_KINDS[kind]
    slots = T.split(w)
    dim = len(slots[0]) + len(slots[1])
    if src == "mid":
        return tables.contract(table, T.mid.field.q, dim, slots[keep], mode)
    return tables.expand(table, T.mid.field.q, dim, slots[keep], mode)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CapabilityError(msg)


# side-condition rules, named by the kind of function that follows them;
# each gives the window to move to and the measure factor of the table


def _plain(kind: str, T: TripleC1, x, mu1) -> tuple[Window, Fraction]:
    return x.window, Fraction(1)


def _discrete_quot(kind: str, T: TripleC1, x, mu1) -> tuple[Window, Fraction]:
    q_inf = T.quot.bounds[0]
    _require(q_inf is not None, f"{kind} needs a discrete quotient")
    return Window(min(x.window.lo, q_inf), x.window.hi), Fraction(1)


def _cover_fibers(kind: str, T: TripleC1, x, mu1) -> tuple[Window, Fraction]:
    # a compactly supported function, and any distribution when the sub is
    # compact, widens over the sub; a germ stays where it is, and so does an
    # E-type distribution over a non-compact sub
    w, s_sup = x.window, T.sub.bounds[1]
    if isinstance(x, C1Fn):
        if x.tag != "D":
            return w, Fraction(1)
        _require(s_sup is not None, f"{kind} on compact support needs a compact sub")
    elif s_sup is None:
        _require(x.tag in ("Ep", "ETp"), f"{kind} of a general distribution needs a compact sub")
        return w, Fraction(1)
    return Window(w.lo, max(w.hi, s_sup)), Fraction(1)


def _integrate_fibers(kind: str, T: TripleC1, x, mu1) -> tuple[Window, Fraction]:
    if mu1 is None or mu1.model != T.sub:
        raise DomainError(f"{kind} consumes a measure on the sub model")
    w = x.window
    if isinstance(x, C1Fn) and x.tag != "D":
        s_sup = T.sub.bounds[1]
        _require(s_sup is not None, f"{kind} on germs needs a compact sub")
        if w.hi < s_sup:
            # germ windows must not grow
            raise WindowError("germ window does not cover the fibers")
    return w, mu1.value_at(w.lo)


_RULES1 = {
    "alpha_pull": _plain,
    "alpha_push": _discrete_quot,
    "beta_pull": _cover_fibers,
    "beta_push": _integrate_fibers,
}


def images1(kind: str, T: TripleC1, x, mu1: Optional[HaarMeasure] = None):
    """The direct and inverse images along a graded triple.

    kind is one of alpha_pull, alpha_push, beta_pull, beta_push.  A function
    and a distribution make the kind's one table move; the distribution
    follows the side conditions of the conjugate kind.
    """
    if kind not in IMAGE_KINDS or not isinstance(x, (C1Fn, C1Dist)):
        raise DomainError(f"no image {kind!r} of a {type(x).__name__}")
    dst = image_target(kind, T, x)
    rule = _RULES1[kind if isinstance(x, C1Fn) else CONJUGATE[kind]]
    w, factor = rule(kind, T, x, mu1)
    table = tables.scale(image_table(kind, T, x.at(w).table, w), factor)
    return type(x)(dst, "Dp" if x.tag == "Haar" else x.tag, w, table)


def tensor_haar(T: TripleC1, mu1: HaarMeasure, mu3: HaarMeasure, ref: int = 0) -> HaarMeasure:
    """The product measure on the middle model: value = sub value * quot value."""
    if mu1.model != T.sub or mu3.model != T.quot:
        raise DomainError("tensor factors on the wrong models")
    return HaarMeasure(T.mid, ref, mu1.value_at(ref) * mu3.value_at(ref))


def char_dist1(T: TripleC1, mu1: HaarMeasure, w: Window) -> C1Dist:
    """The characteristic distribution of the sub: push forward its measure."""
    return images1("alpha_push", T, mu1.as_dist(w))


# ---------------------------------------------------------------------------
# the one-dimensional Poisson identity
# ---------------------------------------------------------------------------


@dataclass
class CheckReport:
    """The one failure report: cases run and failures booked under a name.

    The verifiers here and in ``c2_triples`` return one; a harness suite's
    report is one as well, with its identity tags, seed and wall time.
    """

    name: str
    identity_tags: list = field(default_factory=list)
    cases: int = 0
    failures: list = field(default_factory=list)
    seed: int = 0
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, identity: str, context: str, expected: str = "", actual: str = "") -> None:
        self.failures.append(
            {"identity": identity, "context": context, "expected": expected, "actual": actual}
        )


def poisson1_verify(
    T: TripleC1,
    mu1: HaarMeasure,
    mu2: HaarMeasure,
    cut_lo: int = -3,
    cut_hi: int = 3,
    max_points: int = 256,
    corrupt: Optional[str] = None,
) -> CheckReport:
    """Check that the transform of the sub's characteristic distribution is
    the dual triple's characteristic distribution, window by window, and
    against the independent profile formula value(j) = mu1(F1(j)) / mu2(F2(j))
    on the dual-sub lattice.  ``transition`` pins the sub measure one cut too
    high, and ``measure`` scales the transform's measure by q."""
    report = CheckReport("poisson1")
    if mu1.model != T.sub or mu2.model != T.mid:
        raise DomainError("measures on the wrong models")
    q = T.mid.field.q
    Td = dual_triple(T)
    mu2_used = mu2.scaled(Fraction(q)) if corrupt == "measure" else mu2
    cuts = range(cut_lo, cut_hi + 1)
    for w in [Window(a, b) for a in cuts for b in cuts if a <= b]:
        if q ** window_dim(T.mid, w) > max_points:
            continue
        report.cases += 1
        mu = mu1.scaled(mu1.value_at(w.lo + 1) / mu1.value_at(w.lo)) if corrupt == "transition" else mu1
        lhs = fourier1(char_dist1(T, mu, w), mu2_used)
        wd = dual_window(w)
        val = mu1.value_at(w.hi) / mu2.value_at(w.hi)
        sub_idx, _ = Td.split(wd)
        const = tables.const_table(CycNum.from_rational(T.mid.field.p, val), q, len(sub_idx))
        expect = tables.expand(const, q, window_dim(Td.mid, wd), sub_idx, "zero")
        if lhs.table != expect:
            report.fail(
                "poisson1_characteristic_transform", f"window {w}",
                str(tuple(expect[:4])), str(tuple(lhs.table[:4])),
            )
        elif char_dist1(Td, HaarMeasure(Td.sub, wd.lo, val), wd).table != expect:
            report.fail("poisson1_dual_pipeline", f"window {w}")
    return report
