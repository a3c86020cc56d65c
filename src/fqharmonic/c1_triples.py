"""Admissible triples of integer-indexed filtered spaces, at window level.

A triple 0 -> E1 -> E2 -> E3 -> 0 in this package is graded: every graded
slot of the middle model is assigned to the sub or to the quotient, and the
index maps between the three filtrations are the identity on cuts (models are
pre-normalized so that filtration index = cut).  Each window of the middle
model then induces an exact sequence of finite quotients, and the direct
and inverse images act by slot bookkeeping on tables.

A triple is a value.  ``TripleC1`` keeps its slot assignment as cells of
the cut line, each with the sub flags of the middle slots at its cuts, and
each constructor computes its cells from its parts' cells.  Triples compare
and hash on their members, the label excluded, and ``triple_split`` keeps
splits by value in one bounded cache, shared with ``c2_triples``.

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
the dim of its dual, so the one cap rule reads the middle window; with no
cap, every window is certified.  Both sides and the profile oracle are
factored tables (``tables.Kron``) from end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional

from fqharmonic import tables
from fqharmonic.c1 import (
    POSITION_CACHE,
    C1Dist,
    C1Fn,
    CapabilityError,
    HaarMeasure,
    Window,
    WindowError,
    C1Model,
    dual_model,
    fourier1,
    sum_model,
    window_dim,
)
from fqharmonic.exactnum import DomainError

Cell = tuple  # (start, tuple of flags); the unbounded first cell starts at None


@lru_cache(maxsize=POSITION_CACHE)
def triple_split(T, w) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The split of the (bi-)window w of a triple of either dimension: the
    indices of the sub and the quotient slots among the middle ones."""
    return T.make_split(w)


def require_members(cls, *models) -> None:
    """Refuse a triple member of the wrong dimension before it is read."""
    for m in models:
        if not isinstance(m, cls):
            raise DomainError(f"triple members must be {cls.__name__}s, not {type(m).__name__}")


@dataclass(frozen=True)
class TripleC1:
    """Graded short exact sequence sub -> mid -> quot; ``cells`` has
    increasing starts, and adjacent cells with equal flags are merged."""

    mid: C1Model
    sub: C1Model
    quot: C1Model
    cells: tuple[Cell, ...]
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not (self.mid.field == self.sub.field == self.quot.field):
            raise DomainError("triple members over different fields")
        cells = tuple(self.cells)
        starts = [c for c, _ in cells[1:]]
        if not cells or cells[0][0] is not None or None in starts or starts != sorted(set(starts)):
            raise DomainError("cells start at None and then at increasing cuts")
        cells = cells[:1] + tuple(b for a, b in zip(cells, cells[1:]) if a[1] != b[1])
        object.__setattr__(self, "cells", cells)
        # computed once: every split lookup takes it
        object.__setattr__(self, "_hash", hash((self.mid, self.sub, self.quot, cells)))

    def __hash__(self) -> int:
        return self._hash

    def flags_at(self, k: Optional[int]) -> tuple[bool, ...]:
        """The sub flags of the mid slots at cut k (None: the first cell)."""
        return next(f for c, f in reversed(self.cells) if c is None or (k is not None and c <= k))

    split = triple_split

    def make_split(self, w: Window) -> tuple[tuple[int, ...], tuple[int, ...]]:
        flags = [f for k in range(w.lo, w.hi) for f in self.flags_at(k)]
        sub_idx, quot_idx = split_flags(flags)
        dims = tuple(window_dim(m, w) for m in (self.mid, self.sub, self.quot))
        if (len(flags), len(sub_idx), len(quot_idx)) != dims:
            raise DomainError(f"graded split inconsistent on window {w}")
        return sub_idx, quot_idx


def split_flags(in_sub: list[bool]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The indices of the true flags (sub slots) and of the false ones."""
    return tuple(r for r, s in enumerate(in_sub) if s), tuple(r for r, s in enumerate(in_sub) if not s)


def cell_points(edges: Iterable[Optional[int]]) -> list[int]:
    """One integer in each cell of the line cut at the finite edges."""
    cuts = sorted({e for e in edges if e is not None}) or [0]
    return [cuts[0] - 1] + cuts


def _leading(mid: C1Model, sub: C1Model) -> list[Cell]:
    """The cells on which the first sub.mult(k) mid slots at each cut k are the sub's."""
    # multiplicities are constant between consecutive interval endpoints, so
    # one cut per cell decides the inclusion and the flags exactly
    cells = []
    for i, k in enumerate(cell_points(e for iv in mid.intervals + sub.intervals for e in iv)):
        n, m = sub.mult(k), mid.mult(k)
        if n > m:
            raise DomainError(f"sub pattern exceeds the mid pattern at cut {k}")
        cells.append((None if i == 0 else k, (True,) * n + (False,) * (m - n)))
    return cells


def interval_triple(mid: C1Model, sub: C1Model, label: str = "") -> TripleC1:
    """Triple with the sub given by its own slot interval inside the mid."""
    require_members(C1Model, mid, sub)
    cells, quot = _leading(mid, sub), mid.intervals
    if sub.intervals:
        if len(sub.intervals) > 1 or len(mid.intervals) > 1:
            raise DomainError(f"not an interval pattern: {sub!r} inside {mid!r}")
        ((m1, m2),), ((s1, s2),) = mid.intervals, sub.intervals
        # the mid slots below and above the sub; an unbounded side leaves none
        quot = [(m1, s1)] if s1 is not None else []
        if s2 is not None:
            quot.append((s2, m2))
    quot_model = C1Model(mid.field, quot, f"{mid.label}/{sub.label}")
    return TripleC1(mid, sub, quot_model, cells, label or f"{sub.label}<{mid.label}")


def direct_sum_triple(sub: C1Model, quot: C1Model, label: str = "") -> TripleC1:
    """Split extension with the sub slots listed first at every cut."""
    mid = sum_model(sub, quot)
    return TripleC1(mid, sub, quot, _leading(mid, sub), label or f"{sub.label}(+){quot.label}")


def dual_triple(T: TripleC1) -> TripleC1:
    """0 -> quot* -> mid* -> sub* -> 0: the cell [a, b) mirrors to [-b, -a),
    its flags negated and, as ``dual_model`` lists the slots, reversed."""
    ends = [c for c, _ in T.cells[1:]] + [None]
    cells = [(None if e is None else -e, tuple(not f for f in flags[::-1])) for (_, flags), e in zip(T.cells, ends)]
    return TripleC1(dual_model(T.mid), dual_model(T.quot), dual_model(T.sub), cells[::-1], f"dual({T.label})")


# -- composition and base-change plumbing


def _joint_cells(*triples: TripleC1) -> list[tuple[Optional[int], list]]:
    """Each start of the triples' common cells, with the flags of every triple there."""
    starts = sorted({c for T in triples for c, _ in T.cells[1:]})
    return [(c, [T.flags_at(c) for T in triples]) for c in [None] + starts]


def _nest(outer: tuple, inner: tuple, at: bool) -> tuple:
    """outer's flags with its ``at`` slots, in order, flagged as inner flags them."""
    if outer.count(at) != len(inner):
        raise DomainError("the slots of the composed triples do not match")
    it = iter(inner)
    return tuple(next(it) if f == at else f for f in outer)


def compose_epi(T_inner: TripleC1, T_outer: TripleC1, label: str = "") -> TripleC1:
    """Composite epimorphism H -> E2 -> E3.

    T_outer is L -> H -> E2 and T_inner is E1 -> E2 -> E3; the result is the
    triple ker -> H -> E3 with ker = the pullback of E1 to H.
    """
    if T_outer.quot != T_inner.mid:
        raise DomainError("outer quotient must be the inner middle model")
    ker = sum_model(T_outer.sub, T_inner.sub, label=f"ker({label})" if label else "")
    cells = [(c, _nest(fo, fi, False)) for c, (fo, fi) in _joint_cells(T_outer, T_inner)]
    return TripleC1(T_outer.mid, ker, T_inner.quot, cells, label or "compose_epi")


def compose_mono(T_inner: TripleC1, T_outer: TripleC1, label: str = "") -> TripleC1:
    """Composite monomorphism E1 -> E2 -> H'.

    T_inner is E1 -> E2 -> E3 and T_outer is E2 -> H' -> L'; the result is
    E1 -> H' -> coker with coker = E3 pushed out along H'.
    """
    if T_outer.sub != T_inner.mid:
        raise DomainError("outer sub must be the inner middle model")
    coker = sum_model(T_inner.quot, T_outer.quot, label=f"coker({label})" if label else "")
    cells = [(c, _nest(fo, fi, True)) for c, (fo, fi) in _joint_cells(T_outer, T_inner)]
    return TripleC1(T_outer.mid, T_inner.sub, coker, cells, label or "compose_mono")


def base_change(T: TripleC1, Tg: TripleC1, label: str = ""):
    """Pull the triple T back along an admissible mono into its quotient.

    T is E1 -> E2 -> E3 and Tg is D -> E3 -> B.  Returns (T_fiber, T_mono)
    where T_fiber is E1 -> X' -> D on the fibered product X' and T_mono is
    X' -> E2 -> B.
    """
    if Tg.mid != T.quot:
        raise DomainError("the mono must land in the quotient of the triple")
    X = sum_model(T.sub, Tg.sub, label=f"fib({label})" if label else "")
    mono, fiber = [], []
    for c, (ft, fg) in _joint_cells(T, Tg):
        in_x = _nest(ft, fg, False)
        mono.append((c, in_x))
        # the slots of X are the mid slots in X, in order
        fiber.append((c, tuple(t for x, t in zip(in_x, ft) if x)))
    T_mono = TripleC1(T.mid, X, Tg.quot, mono, (label or "bc") + ":mono")
    T_fiber = TripleC1(X, T.sub, Tg.sub, fiber, (label or "bc") + ":fiber")
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


def tensor_haar(T: TripleC1, mu1: HaarMeasure, mu3: HaarMeasure) -> HaarMeasure:
    """The product measure on the middle model: value = sub value * quot value,
    pinned at cut 0 (the same measure at any cut)."""
    if mu1.model != T.sub or mu3.model != T.quot:
        raise DomainError("tensor factors on the wrong models")
    return HaarMeasure(T.mid, 0, mu1.value_at(0) * mu3.value_at(0))


def char_dist1(T: TripleC1, mu1: HaarMeasure, w: Window) -> C1Dist:
    """The characteristic distribution of the sub: push forward its measure,
    whose constant table is built factored."""
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


# the faults poisson1_verify injects as negative controls
POISSON1_FAULTS = ("measure", "transition")


def sweep_pairs(cut_lo: int, cut_hi: int, max_points: Optional[int]) -> list[tuple[int, int]]:
    """The cut pairs a <= b of a summation sweep, in sweep order.  A range or
    cap that leaves nothing to check raises DomainError (None is no cap)."""
    if cut_lo > cut_hi:
        raise DomainError(f"cut_lo = {cut_lo} is above cut_hi = {cut_hi}: nothing to check")
    if max_points is not None and max_points < 1:
        raise DomainError(f"max_points = {max_points} leaves nothing to check")
    cuts = range(cut_lo, cut_hi + 1)
    return [(a, b) for a in cuts for b in cuts if a <= b]


def poisson1_verify(
    T: TripleC1,
    mu1: HaarMeasure,
    mu2: HaarMeasure,
    cut_lo: int = -3,
    cut_hi: int = 3,
    max_points: Optional[int] = 256,
    corrupt: Optional[str] = None,
) -> CheckReport:
    """Check that the transform of the sub's characteristic distribution is
    the dual triple's characteristic distribution, window by window, and
    against the independent profile formula value(j) = mu1(F1(j)) / mu2(F2(j))
    on the dual-sub lattice.  ``transition`` pins the sub measure one cut too
    high, and ``measure`` scales the transform's measure by q; any other
    fault raises DomainError."""
    report = CheckReport("poisson1")
    if mu1.model != T.sub or mu2.model != T.mid:
        raise DomainError("measures on the wrong models")
    if corrupt not in (None, *POISSON1_FAULTS):
        raise DomainError(f"poisson1_verify injects no fault {corrupt!r}")
    q = T.mid.field.q
    Td = dual_triple(T)
    mu2_used = mu2.scaled(Fraction(q)) if corrupt == "measure" else mu2
    for w in [Window(a, b) for a, b in sweep_pairs(cut_lo, cut_hi, max_points)]:
        if max_points is not None and q ** window_dim(T.mid, w) > max_points:
            continue
        report.cases += 1
        mu = mu1.scaled(mu1.value_at(w.lo + 1) / mu1.value_at(w.lo)) if corrupt == "transition" else mu1
        lhs = fourier1(char_dist1(T, mu, w), mu2_used)
        wd = w.dual()
        val = mu1.value_at(w.hi) / mu2.value_at(w.hi)
        sub_idx, _ = Td.split(wd)
        const = tables.const_kron(T.mid.field.p, val, q, len(sub_idx))
        expect = tables.expand(const, q, window_dim(Td.mid, wd), sub_idx, "zero")
        if lhs.table != expect:
            report.fail(
                "poisson1_characteristic_transform", f"window {w}",
                str(tuple(expect[:4])), str(tuple(lhs.table[:4])),
            )
        elif char_dist1(Td, HaarMeasure(Td.sub, wd.lo, val), wd).table != expect:
            report.fail("poisson1_dual_pipeline", f"window {w}")
    return report
