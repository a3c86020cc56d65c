"""Named verification suites driven by the harness.

Every suite is declared once, by ``register``: its identity tags, each config
key it reads with its default, the faults it can inject as a negative
control, and the check it puts on a ``triple``.  The config checks a suite's
values, and the suite runs, with the defaults filled in.  Every suite draws
its randomness from the documented generator, runs a set of exact
identities, and books each case and each violation, under a stable identity
tag, on the report ``register`` hands it; the registry is the
machine-checkable inventory of the identities and of their controls.

The table laws are commuting squares (x, a, b): two paths a and b of steps
from one input x, run by ``_walk`` and compared by ``_same``.  A step is an
image (kind, triple, measure); ("fourier", measure) on C_1, ("fourier",) on
C_0 and C_2; ("density", measure), ("mul", factor) or ("integrate", measure)
on C_1; ("check",), the reflection, or ("scale", c); ("push0", map) or
("pull0", map) on C_0; ("module", germ), ("act", lift) of the central
extension, or ("basepoint", measure) on C_2; or, last on a path, ("pair", y),
the pairing with y on C_0 or C_2.  ``_commutes`` books one case over one or
more squares, and ``_square`` draws x on the source model of a path's first
image.  A function square and its distribution square come in pairs; ``_twin``
derives the second by reversing both paths and swapping every kind through
``CONJUGATE``, with the measures unchanged, and ``_square_and_twin`` books
both.  ``_adjoint`` builds the square of <a(f), G> == <f, b(G)>; the image
pairings take b from a through ``CONJUGATE``.  Checks that are no square
(group laws, tag exchange, lattice block, domination invariance, two
constructions compared) are direct ``_check``s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial, wraps
from typing import Callable, NamedTuple, Optional

from fqharmonic import tables
from fqharmonic.c1 import (
    C1Dist,
    C1Fn,
    HaarMeasure,
    Window,
    character_fn,
    delta_lattice,
    delta_point_dist,
    dist_at,
    dist_vanishes_at,
    dual_model,
    eval_fn_at,
    fn_at,
    fn_equal,
    fn_mul,
    fourier1,
    i_mu,
    integrate,
    lattice_model,
    laurent_model,
    colattice_model,
    mul_dist,
    segment_model,
    shift_model,
    translate_dist,
    translate_fn,
    window_dim,
)
from fqharmonic.c1_triples import (
    CONJUGATE,
    IMAGE_KINDS,
    POISSON1_FAULTS,
    TripleC1,
    base_change,
    compose_epi,
    compose_mono,
    direct_sum_triple,
    dual_triple,
    images1,
    interval_triple,
    poisson1_verify,
    tensor_haar,
)
from fqharmonic.c2 import (
    BiWindow,
    C2Model,
    D2Dist,
    D2Elem,
    E2Fn,
    VirtualMeasure,
    basepoint_change,
    box_model,
    bw_dim,
    d2_equal,
    dual_model2,
    e2_constant_one,
    fourier2,
    k2_model,
    module_mul,
    pairing2,
    shift_region,
    vmeas_canonical,
)
from fqharmonic.c2_aut import (
    AutElem,
    AutHatElem,
    authat_inverse,
    authat_mul,
    rep_act,
)
from fqharmonic.c2_triples import (
    POISSON2_FAULTS,
    GradedC2Triple,
    char_dist,
    char_fn,
    delta0_fn,
    delta_nu,
    dual_triple2,
    images2,
    inner_cut_triple,
    one_mu,
    outer_cut_triple,
    poisson2_conditions,
    poisson2_verify,
    raise_outer_top,
)
from fqharmonic.dim0 import (
    FinSpace,
    Fn0,
    LinMap,
    all_subspaces,
    annihilator0,
    fibered_square,
    fourier0,
    pairing0,
    pull0,
    push0,
)
from fqharmonic.exactnum import CycNum, DomainError, FqField, field_for, psi, q_power
from fqharmonic.harness.fanout import fan_out
from fqharmonic.harness.report import Report
from fqharmonic.harness.rng import LCG


@dataclass
class SuiteContext:
    field: FqField
    params: dict
    rng: LCG


class Declaration(NamedTuple):
    """What a suite kind reads: each config key but ``run`` with its default,
    the faults its ``corrupt`` key may name, and the check of its ``triple``."""

    defaults: dict
    faults: tuple
    triple: Optional[Callable]


SUITES: dict[str, tuple[Callable, tuple[str, ...]]] = {}
DECLARATIONS: dict[str, Declaration] = {}


def register(
    name: str, *tags: str, params: Optional[dict] = None, faults: tuple = (), triple: Optional[Callable] = None
):
    """Register a suite under its identity tags.  params maps each config key
    it reads to its default.  A suite that can inject faults names them and
    reads the one chosen, if any, as ``corrupt``; a suite that reads a
    ``triple`` gives the check it puts on one, which raises DomainError on a
    triple the suite cannot take.  Both keys default to None.  The registered
    run builds the suite's report, hands it to the body with the defaults
    filled in, and returns it."""
    defaults = dict(params or {})
    if faults:
        defaults["corrupt"] = None
    if triple is not None:
        defaults["triple"] = None
    DECLARATIONS[name] = Declaration(defaults, tuple(faults), triple)

    def wrap(body):
        @wraps(body)
        def run(ctx: SuiteContext) -> Report:
            rep = Report(name, list(tags))
            body(replace(ctx, params=with_defaults(name, ctx.params)), rep)
            return rep

        SUITES[name] = (run, tags)
        return run

    return wrap


def with_defaults(kind: str, params: dict) -> dict:
    """The values of a suite of this kind: the given params over its
    defaults.  A ``corrupt`` that names no fault it injects raises DomainError."""
    decl = DECLARATIONS[kind]
    values = {**decl.defaults, **params}
    fault = values.get("corrupt")
    if fault not in (None, *decl.faults):
        raise DomainError(f"{kind} injects no fault {fault!r}; its faults are: {', '.join(decl.faults) or 'none'}")
    return values


def _c1_triple(T) -> None:
    if not isinstance(T, TripleC1):
        raise DomainError("the one-dimensional identity needs a C_1 triple")


def _identity_triple(which: str) -> Callable:
    """The check of a triple for the two-dimensional identity I or II."""

    def check(T) -> None:
        if not isinstance(T, GradedC2Triple):
            raise DomainError(f"identity {which} needs a C_2 triple")
        poisson2_conditions(which, T)

    return check


# the monomial automorphisms (t_shift, u_shift) of poisson2_i's corollary
_COROLLARY_SHIFTS = ((1, 0), (0, 1), (-1, 1))


def _corollary_triple(T) -> None:
    """The check of poisson2_i's triple: identity I, and a middle every
    automorphism of the corollary acts on."""
    _identity_triple("I")(T)
    for t_shift, u_shift in _COROLLARY_SHIFTS:
        if shift_region(T.mid, -t_shift, -u_shift) != T.mid:
            raise DomainError(f"the monomial corollary needs a middle the shift {(t_shift, u_shift)} preserves")


def _rand_cyc(rng: LCG, p: int) -> CycNum:
    return tables.Rows(p, 6, rng.coeff_rows(1, p - 1))[0]


def _rand_table(rng: LCG, field, dim: int) -> tables.Rows:
    """q^dim random entries, each drawn as by _rand_cyc, straight into rows."""
    return tables.Rows(field.p, 6, rng.coeff_rows(field.q**dim, field.p - 1))


def _rand_fn0(rng: LCG, space: FinSpace) -> Fn0:
    return Fn0(space, _rand_table(rng, space.field, space.dim))


def _rand_map(rng: LCG, src: FinSpace, dst: FinSpace) -> LinMap:
    return LinMap(
        src, dst,
        tuple(tuple(rng.randint(0, src.field.q - 1) for _ in range(src.dim)) for _ in range(dst.dim)),
    )


def _rand_c1fn(rng: LCG, model, w, tag="D") -> C1Fn:
    return C1Fn(model, tag, w, _rand_table(rng, model.field, window_dim(model, w)))


def _rand_c1dist(rng: LCG, model, w, tag="Dp") -> C1Dist:
    return C1Dist(model, tag, w, _rand_table(rng, model.field, window_dim(model, w)))


def _rand_d2elem(rng: LCG, model, o, bw) -> D2Elem:
    table = _rand_table(rng, model.field, bw_dim(model, bw))
    return D2Elem(model, o, bw, table, abs(rng.fraction()))


def _rand_d2dist(rng: LCG, model, o, bw) -> D2Dist:
    table = _rand_table(rng, model.field, bw_dim(model, bw))
    return D2Dist(model, o, bw, table, abs(rng.fraction()))


def _rand_e2(rng: LCG, model, bw, tag="E2") -> E2Fn:
    return E2Fn(model, tag, bw, _rand_table(rng, model.field, bw_dim(model, bw)))


def _rand_lift(rng: LCG, model) -> AutHatElem:
    g = AutElem(model, rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(1, model.field.q - 1))
    return AutHatElem(g, VirtualMeasure(model, 0, g.apply_cut(0), abs(rng.fraction())))


def _check(rep: Report, identity: str, ok: bool, context: str = "") -> None:
    rep.cases += 1
    if not ok:
        rep.fail(identity, context)


def _merge(rep: Report, subs) -> None:
    """Add the cases and failures of library check reports, in order."""
    for sub in subs:
        rep.cases += sub.cases
        rep.failures.extend(sub.failures)


def _c1_draws(rng: LCG, w: Window):
    """Drawers at w of D-functions, E-germs, distributions and ETp-distributions."""
    return (
        lambda m: _rand_c1fn(rng, m, w),
        lambda m: _rand_c1fn(rng, m, w, tag="E"),
        lambda m: _rand_c1dist(rng, m, w),
        lambda m: _rand_c1dist(rng, m, w, tag="ETp"),
    )


def _d2_draws(rng: LCG, bw: BiWindow):
    """Drawers on bw, at basepoint 0, of C_2 functions and distributions."""
    return lambda m: _rand_d2elem(rng, m, 0, bw), lambda m: _rand_d2dist(rng, m, 0, bw)


# ---------------------------------------------------------------------------
# commuting squares of images
# ---------------------------------------------------------------------------


def _twin(a, b):
    """The distribution twin of the square (a, b): paths reversed, kinds conjugated."""

    def flip(path):
        return [(CONJUGATE[kind], T, mu) for kind, T, mu in reversed(path)]

    return flip(a), flip(b)


def _walk(x, path):
    # the library functions are named here, not held in a table, so that a
    # wrapper put in their place (as perfbench/tracing.py does) sees every
    # step; the image kinds are tested first, as the most frequent steps
    for kind, *args in path:
        if kind in IMAGE_KINDS:
            x = (images1 if isinstance(x, (C1Fn, C1Dist)) else images2)(kind, args[0], x, args[1])
        elif kind == "fourier":
            x = (fourier1 if isinstance(x, (C1Fn, C1Dist)) else fourier0 if isinstance(x, Fn0) else fourier2)(x, *args)
        elif kind == "density":
            x = i_mu(x, *args)
        elif kind == "mul":
            x = (fn_mul if isinstance(x, C1Fn) else mul_dist)(*args, x)
        elif kind == "integrate":
            x = integrate(x, *args)
        elif kind == "check":
            x = x.check()
        elif kind == "scale":
            x = x * args[0]
        elif kind == "push0":
            x = push0(args[0], x)
        elif kind == "pull0":
            x = pull0(args[0], x)
        elif kind == "module":
            x = module_mul(args[0], x)
        elif kind == "act":
            x = rep_act(args[0], x)
        elif kind == "basepoint":
            x = basepoint_change(x, args[0])
        elif kind == "pair":
            x = (pairing0 if isinstance(x, Fn0) else pairing2)(x, args[0])
        else:
            raise ValueError(f"unknown step {kind!r}")
    return x


def _projection(x, g, push, pull):
    """The projection formula square: push(x . pull(g)) == push(x) . g."""
    return x, [("mul", _walk(g, [pull])), push], [push, ("mul", g)]


def _same(x, y) -> bool:
    """Exact equality of two representatives or scalars, chosen by their type."""
    if isinstance(x, (CycNum, Fn0)):
        return x == y
    if isinstance(x, C1Fn):
        return fn_equal(x, y)
    if isinstance(x, C1Dist):
        return (x.model, x.window, x.table) == (y.model, y.window, y.table)
    return d2_equal(x, y)


def _commutes(rep: Report, identity: str, context: str, *squares) -> None:
    """Book one case: every square (x, a, b) has a(x) == b(x)."""
    _check(rep, identity, all(_same(_walk(x, a), _walk(x, b)) for x, a, b in squares), context)


def _square(rep: Report, identity: str, draw, a, b, context: str = "") -> None:
    """Draw x on the source model of a's first step; book a(x) == b(x)."""
    kind, T, _mu = a[0]
    _commutes(rep, identity, context, (draw(getattr(T, IMAGE_KINDS[kind][0])), a, b))


def _square_and_twin(rep: Report, identity: str, draws, a, b, context: str = "") -> None:
    """Book the function square (a, b), then its distribution twin, drawn by draws = (fn, dist)."""
    _square(rep, identity, draws[0], a, b, context)
    _square(rep, identity, draws[1], *_twin(a, b), context)


def _adjoint(f, G, a, b):
    """The square of the pairing identity <a(f), G> == <f, b(G)>."""
    return f, [*a, ("pair", G)], [("pair", _walk(G, b))]


# ---------------------------------------------------------------------------
# exact arithmetic
# ---------------------------------------------------------------------------


@register("psi_character", "psi_additive", "psi_nontrivial", "conj_involution", faults=("psi",))
def psi_character(ctx: SuiteContext, rep: Report) -> None:
    for q in (2, 3, 4, 5, 8, 9):
        fld = field_for(q)
        p = fld.p
        chi = (lambda x: CycNum.one(p)) if ctx.params["corrupt"] == "psi" else psi
        total = CycNum.zero(p)
        for x in fld:
            total = total + chi(x)
            for y in fld:
                _check(
                    rep, "psi_additive",
                    chi(x + y) == chi(x) * chi(y), f"q={q} x={x.index} y={y.index}",
                )
        _check(rep, "psi_nontrivial", total.is_zero(), f"q={q}")
        for x in fld:
            _check(rep, "conj_involution", psi(x).conj().conj() == psi(x), f"q={q}")


@register("cyc_ring", "cyc_commutative_ring", "conj_ring_hom", params={"cases": 50})
def cyc_ring(ctx: SuiteContext, rep: Report) -> None:
    p = ctx.field.p
    for _ in range(ctx.params["cases"]):
        a, b, c = (_rand_cyc(ctx.rng, p) for _ in range(3))
        _check(rep, "cyc_commutative_ring", a * b == b * a and (a + b) * c == a * c + b * c, "")
        _check(rep, "cyc_commutative_ring", (a * b) * c == a * (b * c), "")
        _check(rep, "conj_ring_hom", (a * b).conj() == a.conj() * b.conj(), "")
        r = CycNum.from_rational(p, ctx.rng.fraction())
        _check(rep, "conj_ring_hom", r.conj() == r, "")


@register("fq_axioms", "field_axioms")
def fq_axioms(ctx: SuiteContext, rep: Report) -> None:
    for q in (2, 3, 4, 5, 8, 9):
        fld = field_for(q)
        elems = list(fld)
        ok = True
        for a in elems:
            if not a.is_zero() and a * a.inverse() != fld.one():
                ok = False
            for b in elems:
                if a + b != b + a or a * b != b * a:
                    ok = False
        _check(rep, "field_axioms", ok, f"q={q}")


# ---------------------------------------------------------------------------
# level-zero suites
# ---------------------------------------------------------------------------


@register("poisson0", "poisson0_subspace_transform", params={"max_dim": 3})
def poisson0(ctx: SuiteContext, rep: Report) -> None:
    qs = (2, 3, 4)
    max_dim = ctx.params["max_dim"]
    for q in qs:
        fld = field_for(q)
        for n in range(0, max_dim + 1):
            sp = FinSpace(fld, n)
            for H in all_subspaces(sp):
                lhs = fourier0(H.indicator())
                rhs = annihilator0(H).indicator() * H.size()
                _check(
                    rep, "poisson0_subspace_transform",
                    lhs == rhs, f"q={q} n={n} dimH={H.dim}",
                )


@register(
    "fourier0_props",
    "fourier0_involution",
    "fourier0_selfadjoint",
    "image_adjointness0",
    "image_functoriality0",
    "base_change0",
    "fourier0_push_pull_squares",
    params={"cases": 200},
)
def fourier0_props(ctx: SuiteContext, rep: Report) -> None:
    F = ("fourier",)
    for q in (2, 3):
        fld, at = field_for(q), f"q={q}"
        for _ in range(ctx.params["cases"]):
            V = FinSpace(fld, ctx.rng.randint(0, 2))
            W = FinSpace(fld, ctx.rng.randint(0, 2))
            pi = _rand_map(ctx.rng, V, W)
            f, g = _rand_fn0(ctx.rng, V), _rand_fn0(ctx.rng, W)
            _commutes(rep, "fourier0_involution", at, (f, [F, F], [("check",), ("scale", V.size)]))
            h = _rand_fn0(ctx.rng, V)
            _commutes(rep, "fourier0_selfadjoint", at, _adjoint(f, h, [F], [F]))
            _commutes(rep, "image_adjointness0", at, _adjoint(g, f, [("pull0", pi)], [("push0", pi)]))
            S = FinSpace(fld, ctx.rng.randint(0, 2))
            p2 = _rand_map(ctx.rng, W, S)
            _commutes(
                rep, "image_functoriality0", at, (f, [("push0", pi), ("push0", p2)], [("push0", p2.compose(pi))])
            )
            alpha = _rand_map(ctx.rng, W, S)
            pi_s = _rand_map(ctx.rng, V, S)
            _P, alpha_v, pi_w = fibered_square(pi_s, alpha)
            _commutes(
                rep, "base_change0", at,
                (g, [("push0", alpha), ("pull0", pi_s)], [("pull0", pi_w), ("push0", alpha_v)]),
            )
            _commutes(
                rep, "fourier0_push_pull_squares", at,
                (f, [("push0", pi), F], [F, ("pull0", pi.dual())]),
                (
                    g, [("pull0", pi), F, ("scale", Fraction(1, V.size))],
                    [F, ("scale", Fraction(1, W.size)), ("push0", pi.dual())],
                ),
            )


# ---------------------------------------------------------------------------
# one-dimensional suites
# ---------------------------------------------------------------------------


@register("fourier1_delta", "fourier1_lattice_indicator", params={"i_lo": -3, "i_hi": 3})
def fourier1_delta(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    mu = HaarMeasure(K, 0, Fraction(1))
    for i in range(ctx.params["i_lo"], ctx.params["i_hi"] + 1):
        out = fourier1(delta_lattice(K, i), mu)
        expect = delta_lattice(dual_model(K), -i) * mu.value_at(i)
        _check(rep, "fourier1_lattice_indicator", fn_equal(out, expect), f"i={i}")


@register(
    "fourier1_props",
    "fourier1_inversion",
    "fourier1_translation_twist",
    "fourier1_character_twist",
    "fourier1_dist_inversion",
    "fourier1_haar_to_point",
    "density_transform_compat",
    "density_module_rule",
    "haar_uniqueness",
    "hexagon_injectivity",
    "fourier1_measure_scaling",
    params={"cases": 25},
)
def fourier1_props(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    q = ctx.field.q
    mu = HaarMeasure(K, 0, Fraction(1))
    w = Window(-2, 2)
    for _ in range(ctx.params["cases"]):
        f = _rand_c1fn(ctx.rng, K, w)
        a = {(-1, 0): ctx.rng.randint(0, q - 1), (1, 0): ctx.rng.randint(0, q - 1)}
        b = {(-1, 0): ctx.rng.randint(0, q - 1)}
        G = _rand_c1dist(ctx.rng, K, w)
        ge = _rand_c1fn(ctx.rng, K, w, tag="E")
        twice = [("fourier", mu), ("fourier", mu.inverse_on_dual())]
        _commutes(rep, "fourier1_inversion", "", (f, twice, [("check",)]))
        chi = character_fn(dual_model(K), w.dual(), a)
        _check(
            rep, "fourier1_translation_twist",
            fn_equal(fourier1(translate_fn(f, a), mu), fn_mul(chi, fourier1(f, mu))), "",
        )
        chi_b = character_fn(K, w, b)
        neg_b = {k: ctx.field.neg_idx(v) for k, v in b.items()}
        _check(
            rep, "fourier1_character_twist",
            fn_equal(fourier1(fn_mul(chi_b, f), mu), translate_fn(fourier1(f, mu), neg_b)), "",
        )
        _commutes(rep, "fourier1_dist_inversion", "", (G, twice, [("check",)]))
        _commutes(
            rep, "density_transform_compat", "",
            (f, [("density", mu), ("fourier", mu)], [("fourier", mu), ("density", mu.inverse_on_dual())]),
        )
        _commutes(
            rep, "density_module_rule", "", (f, [("mul", ge), ("density", mu)], [("density", mu), ("mul", ge)])
        )
        _check(rep, "hexagon_injectivity", f.is_zero() or not i_mu(f, mu).is_zero(), "")
        scaled = [("fourier", mu.scaled(Fraction(3, 2)))], [("fourier", mu), ("scale", Fraction(3, 2))]
        _commutes(rep, "fourier1_measure_scaling", "", (f, *scaled))
    FH = fourier1(mu.scaled(Fraction(5)).as_dist(Window(-1, 1)), mu)
    T = dist_at(FH, Window(-2, 2)).table
    _check(
        rep, "fourier1_haar_to_point",
        T[0] == CycNum.from_rational(ctx.field.p, Fraction(5)) and all(c.is_zero() for c in T[1:]),
        "",
    )
    H = mu.as_dist(Window(-2, 2))
    _check(rep, "haar_uniqueness", len(set(H.table)) == 1, "")
    _check(rep, "haar_uniqueness", _same(translate_dist(H, {(0, 0): 1}), H), "translation invariance")


@register(
    "poisson1", "poisson1_characteristic_transform",
    params={"cut_hi": 2, "deep_cut": 0, "max_points": 256},
    faults=POISSON1_FAULTS,
    triple=_c1_triple,
)
def poisson1(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    q = ctx.field.q
    cut = ctx.params["cut_hi"]
    deep = ctx.params["deep_cut"]
    values = (Fraction(1), Fraction(q), Fraction(1, q))
    sweeps = [
        (interval_triple(K, lattice_model(ctx.field, -m, label=f"shift{m}")), cut)
        for m in range(-2, 3)
    ]
    if deep:
        # full-depth sweep reaching the point cap, over the whole measure grid
        T0 = ctx.params["triple"] or interval_triple(K, lattice_model(ctx.field, 0))
        sweeps.append((T0, deep))
    _merge(rep, (
        poisson1_verify(
            T,
            HaarMeasure(T.sub, 0, v1),
            HaarMeasure(T.mid, 0, v2),
            cut_lo=-reach,
            cut_hi=reach,
            max_points=ctx.params["max_points"],
            corrupt=ctx.params["corrupt"],
        )
        for T, reach in sweeps
        for v1 in values
        for v2 in values
    ))


@register(
    "fubini_projection",
    "fubini",
    "projection_formula_compact_support",
    "projection_formula_germ",
    "projection_formula_discrete",
    "density_pullback_compat",
    "density_pushforward_compat",
    params={"cases": 100},
)
def fubini_projection(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    fn, germ, _dist, _etp = _c1_draws(ctx.rng, Window(-1, 2))
    for _ in range(ctx.params["cases"]):
        c = ctx.rng.randint(-1, 1)
        T = interval_triple(K, lattice_model(ctx.field, c))
        mu1 = HaarMeasure(T.sub, 0, abs(ctx.rng.fraction()))
        mu3 = HaarMeasure(T.quot, 0, abs(ctx.rng.fraction()))
        mu2 = tensor_haar(T, mu1, mu3)
        f, g, fe, f1, g2 = fn(T.mid), germ(T.quot), germ(T.mid), germ(T.sub), germ(T.mid)
        push, pull, at = ("beta_push", T, mu1), ("beta_pull", T, None), f"c={c}"
        discrete = ("alpha_push", T, None), ("alpha_pull", T, None)
        _commutes(rep, "fubini", at, (f, [push, ("integrate", mu3)], [("integrate", mu2)]))
        _commutes(rep, "projection_formula_compact_support", at, _projection(f, g, push, pull))
        _commutes(rep, "projection_formula_germ", at, _projection(fe, g, push, pull))
        _commutes(rep, "projection_formula_discrete", at, _projection(f1, g2, *discrete))
        _commutes(
            rep, "density_pullback_compat", at,
            (g, [pull, ("density", mu2)], [("density", mu3), ("beta_pull", T, mu1)]),
        )
        _commutes(
            rep, "density_pushforward_compat", at,
            (fe, [push, ("density", mu3)], [("density", mu2), ("beta_push", T, None)]),
        )


@register(
    "compose1",
    "compose_epi_functions",
    "compose_epi_germs",
    "compose_epi_pullbacks",
    "compose_epi_distributions",
    "compose_mono_functions",
    "compose_mono_distributions",
    params={"cases": 100},
)
def compose1(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    w = Window(-1, 2)
    fn, germ, dist, etp = _c1_draws(ctx.rng, w)
    for _ in range(ctx.params["cases"]):
        c1_, c2_ = ctx.rng.randint(-1, 1), ctx.rng.randint(-1, 1)
        T1 = interval_triple(K, lattice_model(ctx.field, c1_))
        L = lattice_model(ctx.field, c2_, label="L")
        Tb = direct_sum_triple(L, K)
        Tc = compose_epi(T1, Tb)
        nu = HaarMeasure(L, 0, abs(ctx.rng.fraction()))
        mu = HaarMeasure(T1.sub, 0, abs(ctx.rng.fraction()))
        numu = HaarMeasure(Tc.sub, 0, nu.value_at(0) * mu.value_at(0))
        epi = [("beta_push", Tb, nu), ("beta_push", T1, mu)], [("beta_push", Tc, numu)]
        pull = [("beta_pull", T1, None), ("beta_pull", Tb, None)], [("beta_pull", Tc, None)]
        _square(rep, "compose_epi_functions", fn, *epi)
        _square(rep, "compose_epi_germs", germ, *epi)
        _square(rep, "compose_epi_pullbacks", germ, *pull)
        _square(rep, "compose_epi_distributions", dist, *_twin(*epi))
        _square(rep, "compose_epi_distributions", etp, *_twin(*pull))
        T = interval_triple(K, lattice_model(ctx.field, c1_))
        Lp = colattice_model(ctx.field, c2_, label="L'")
        T2 = direct_sum_triple(K, Lp)
        Tcm = compose_mono(T, T2)
        mono_pull = (
            [("alpha_pull", T2, None), ("alpha_pull", T, None)], [("alpha_pull", Tcm, None)]
        )
        mono_push = (
            [("alpha_push", T, None), ("alpha_push", T2, None)], [("alpha_push", Tcm, None)]
        )
        _square(rep, "compose_mono_functions", fn, *mono_pull)
        _square(rep, "compose_mono_functions", fn, *mono_push)
        _square(rep, "compose_mono_distributions", dist, *_twin(*mono_pull))
        _square(rep, "compose_mono_distributions", dist, *_twin(*mono_push))


@register(
    "base_change1",
    "base_change_push_pull",
    "base_change_dist_push_pull",
    "base_change_germ_square",
    "base_change_compact_square",
    "base_change_discrete_square",
    "base_change_double_square",
    params={"cases": 100},
)
def base_change1(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    w = Window(-1, 2)
    fn, germ, dist, _etp = _c1_draws(ctx.rng, w)
    for _ in range(ctx.params["cases"]):
        c1_ = ctx.rng.randint(-1, 0)
        c2_ = ctx.rng.randint(0, 1)
        T = interval_triple(K, lattice_model(ctx.field, c1_))
        D = segment_model(ctx.field, c1_, c2_, label="D")
        Tg = interval_triple(T.quot, D)
        T_fiber, T_mono = base_change(T, Tg)
        mu = HaarMeasure(T.sub, 0, abs(ctx.rng.fraction()))
        push_pull = (
            [("beta_push", T, mu), ("alpha_pull", Tg, None)],
            [("alpha_pull", T_mono, None), ("beta_push", T_fiber, mu)],
        )
        germ_square = (
            [("beta_pull", T, None), ("alpha_pull", T_mono, None)],
            [("alpha_pull", Tg, None), ("beta_pull", T_fiber, None)],
        )
        discrete = (
            [("alpha_push", T_mono, None), ("beta_push", T, mu)],
            [("beta_push", T_fiber, mu), ("alpha_push", Tg, None)],
        )
        double = (
            [("alpha_push", Tg, None), ("beta_pull", T, None)],
            [("beta_pull", T_fiber, None), ("alpha_push", T_mono, None)],
        )
        _square(rep, "base_change_push_pull", fn, *push_pull)
        _square(rep, "base_change_dist_push_pull", dist, *_twin(*push_pull))
        _square(rep, "base_change_germ_square", germ, *germ_square)
        _square(rep, "base_change_compact_square", fn, *germ_square)
        _square(rep, "base_change_discrete_square", fn, *discrete)
        _square_and_twin(rep, "base_change_double_square", (fn, dist), *double)


@register(
    "fourier_image1",
    "fourier_image_push_restrict",
    "fourier_image_restrict_push",
    "fourier_image_dist_squares",
    "fourier_image_germ_squares",
    params={"cases": 100},
)
def fourier_image1(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    fn, germ, dist, etp = _c1_draws(ctx.rng, Window(-1, 1))
    F = ("fourier", None)
    for _ in range(ctx.params["cases"]):
        c = ctx.rng.randint(-1, 1)
        T = interval_triple(K, lattice_model(ctx.field, c))
        Td = dual_triple(T)
        mu1 = HaarMeasure(T.sub, 0, abs(ctx.rng.fraction()))
        mu3 = HaarMeasure(T.quot, 0, abs(ctx.rng.fraction()))
        mu2 = tensor_haar(T, mu1, mu3)
        f, G3, G1, f3, G2 = fn(T.mid), dist(T.quot), dist(T.sub), germ(T.quot), etp(T.mid)
        inv3, at = mu3.inverse_on_dual(), f"c={c}"
        _commutes(
            rep, "fourier_image_push_restrict", at,
            (f, [("beta_push", T, mu1), ("fourier", mu3)], [("fourier", mu2), ("alpha_pull", Td, None)]),
        )
        _commutes(
            rep, "fourier_image_restrict_push", at,
            (f, [("alpha_pull", T, None), ("fourier", mu1)], [("fourier", mu2), ("beta_push", Td, inv3)]),
        )
        _commutes(
            rep, "fourier_image_dist_squares", at,
            (G3, [("beta_pull", T, mu1), ("fourier", mu2)], [("fourier", mu3), ("alpha_push", Td, None)]),
            (G1, [("alpha_push", T, None), ("fourier", mu2)], [("fourier", mu1), ("beta_pull", Td, inv3)]),
        )
        _commutes(
            rep, "fourier_image_germ_squares", at,
            (f3, [("beta_pull", T, None), F], [F, ("alpha_push", Td, None)]),
            (G2, [("beta_push", T, None), F], [F, ("alpha_pull", Td, None)]),
        )


@register("invariance1", "reindexing_invariance", params={"cases": 10})
def invariance1(ctx: SuiteContext, rep: Report) -> None:
    O = lattice_model(ctx.field, 0)
    for s in (-2, -1, 1, 2):
        Os = shift_model(O, s)
        mu = HaarMeasure(O, 0, Fraction(1))
        mus = HaarMeasure(Os, s, Fraction(1))
        for _ in range(ctx.params["cases"]):
            f = _rand_c1fn(ctx.rng, O, Window(-2, 0))
            fs = C1Fn(Os, "D", Window(-2 + s, s), f.table)
            _check(
                rep, "reindexing_invariance",
                integrate(f, mu) == integrate(fs, mus)
                and fourier1(f, mu).table == fourier1(fs, mus).table,
                f"s={s}",
            )


@register("characterization1", "compact_support_profile", "support_detection")
def characterization1(ctx: SuiteContext, rep: Report) -> None:
    K = laurent_model(ctx.field)
    f = fn_at(delta_lattice(K, 0), Window(-1, 1))
    _check(rep, "compact_support_profile", eval_fn_at(f, {(1, 0): 1}).is_zero(), "outside")
    _check(
        rep, "compact_support_profile",
        eval_fn_at(f, {(-2, 0): 1}) == eval_fn_at(f, {}), "coset constancy",
    )
    d = delta_point_dist(K, {(0, 0): 1})
    _check(rep, "support_detection", dist_vanishes_at(d, {}) and not dist_vanishes_at(d, {(0, 0): 1}), "")


# ---------------------------------------------------------------------------
# two-dimensional suites
# ---------------------------------------------------------------------------


@register(
    "vmeasure",
    "vmeasure_associativity",
    "vmeasure_canonical_composition",
    "vmeasure_duality_scalars",
    "vmeasure_reference_stability",
)
def vmeasure(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    E1p = box_model(ctx.field, None, None, None, 0, "E1'")
    Q = dual_model2(E1p)
    rng_range = range(-4, 5)
    for i in rng_range:
        for j in rng_range:
            for k in rng_range:
                a = VirtualMeasure(K2, i, j, ctx.rng.fraction())
                b = VirtualMeasure(K2, j, k, ctx.rng.fraction())
                c = VirtualMeasure(K2, k, i, Fraction(7))
                _check(
                    rep, "vmeasure_associativity",
                    a.compose(b.compose(c)) == a.compose(b).compose(c), f"{i},{j},{k}",
                )
                one_ij = vmeas_canonical(E1p, i, j, "one")
                one_jk = vmeas_canonical(E1p, j, k, "one")
                _check(
                    rep, "vmeasure_canonical_composition",
                    one_ij.compose(one_jk) == vmeas_canonical(E1p, i, k, "one"),
                    f"{i},{j},{k}",
                )
                d_ij = vmeas_canonical(Q, i, j, "delta")
                d_jk = vmeas_canonical(Q, j, k, "delta")
                _check(
                    rep, "vmeasure_canonical_composition",
                    d_ij.compose(d_jk) == vmeas_canonical(Q, i, k, "delta"),
                    f"{i},{j},{k}",
                )
            v = VirtualMeasure(K2, i, j, Fraction(3, 2))
            _check(
                rep, "vmeasure_duality_scalars",
                v.on_dual().scalar == v.scalar and v.on_dual().src == -i, f"{i},{j}",
            )
    for l2 in range(-2, 1):
        for l in range(l2, 2):
            for i in range(l, 3):
                for m in (-2, 0, 2):
                    _check(
                        rep, "vmeasure_reference_stability",
                        K2.sigma(l2, i, m) == K2.sigma(l2, l, m) + K2.sigma(l, i, m),
                        f"{l2},{l},{i},{m}",
                    )


@register(
    "fourier2_props",
    "fourier2_involution",
    "fourier2_adjoint",
    "fourier2_tag_exchange",
    "fourier2_lattice_block",
    "fourier2_basepoint_compat",
    params={"cases": 15},
)
def fourier2_props(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    bw = BiWindow(-1, 1, -1, 1)
    F = ("fourier",)
    for _ in range(ctx.params["cases"]):
        x = _rand_d2elem(ctx.rng, K2, 0, bw)
        _commutes(rep, "fourier2_involution", "", (x, [F, F], [("check",)]))
        G = _rand_d2dist(ctx.rng, dual_model2(K2), 0, bw)
        _commutes(rep, "fourier2_adjoint", "", _adjoint(x, G, [F], [F]))
        e = _rand_e2(ctx.rng, K2, bw, "E2")
        h = fourier2(e)
        _check(
            rep, "fourier2_tag_exchange",
            h.tag == "E2tp" and fourier2(h).tag == "E2"
            and fourier2(h).table == e.check().table,
            "",
        )
        vm = VirtualMeasure(K2, 0, 1, abs(ctx.rng.fraction()))
        _commutes(rep, "fourier2_basepoint_compat", "", (x, [("basepoint", vm), F], [F, ("basepoint", vm.on_dual())]))
    T = inner_cut_triple(K2, 0)
    blk = char_fn(T, 0, bw)
    _check(rep, "fourier2_lattice_block", d2_equal(fourier2(blk), char_fn(dual_triple2(T), 0, bw)), "")


@register(
    "module2", "module_unit", "module_associativity", "module_pairing_compat", params={"cases": 15}
)
def module2(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    bw = BiWindow(-1, 1, -1, 1)
    one = ("module", e2_constant_one(K2, bw))
    for _ in range(ctx.params["cases"]):
        x = _rand_d2elem(ctx.rng, K2, 0, bw)
        _commutes(rep, "module_unit", "", (x, [one], []))
        g1, g2 = _rand_e2(ctx.rng, K2, bw), _rand_e2(ctx.rng, K2, bw)
        by_g1 = [("module", g1)]
        _commutes(rep, "module_associativity", "", (x, [("module", g2), *by_g1], [("module", _walk(g2, by_g1))]))
        G = _rand_d2dist(ctx.rng, K2, 0, bw)
        _commutes(rep, "module_pairing_compat", "", _adjoint(x, G, by_g1, by_g1))


@register(
    "images2_adjoint",
    "images2_outer_adjointness",
    "images2_inner_adjointness",
    "characteristic_two_constructions",
    "profile_transform_exchange",
    params={"cases": 10},
)
def images2_adjoint(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    for _ in range(ctx.params["cases"]):
        cut = ctx.rng.randint(-1, 1)
        T, Ti = outer_cut_triple(K2, cut), inner_cut_triple(K2, cut)
        mu = VirtualMeasure(T.sub, 0, T.sub.outer_sup, abs(ctx.rng.fraction()))
        nu = VirtualMeasure(T.quot, 0, T.quot.outer_inf, abs(ctx.rng.fraction()))
        bw = BiWindow(min(-1, T.quot.outer_inf), max(1, T.sub.outer_sup), -1, 1)
        bwi = BiWindow(-1, 1, min(-1, cut), max(1, cut))
        fn, dist = _d2_draws(ctx.rng, bw)
        f, G, G1 = fn(T.mid), dist(T.quot), dist(T.sub)
        fn, dist = _d2_draws(ctx.rng, bwi)
        g, G2, f1 = fn(Ti.quot), dist(Ti.mid), fn(Ti.sub)
        at = f"cut={cut}"
        for identity, x, y, (kind, *along) in (
            ("images2_outer_adjointness", f, G, ("beta_push", T, mu)),
            ("images2_outer_adjointness", f, G1, ("alpha_pull", T, nu)),
            ("images2_inner_adjointness", g, G2, ("beta_pull", Ti, None)),
            ("images2_inner_adjointness", f1, G2, ("alpha_push", Ti, None)),
        ):
            _commutes(rep, identity, at, _adjoint(x, y, [(kind, *along)], [(CONJUGATE[kind], *along)]))
        _check(
            rep, "characteristic_two_constructions",
            d2_equal(char_dist(T, mu, nu, bw), images2("beta_pull", T, delta_nu(T.quot, nu, bw), mu))
            and d2_equal(char_fn(Ti, 0, bwi), images2("beta_pull", Ti, delta0_fn(Ti.quot, 0, bwi))),
            at,
        )
        bws = BiWindow(-1, T.sub.outer_sup, -1, 1)
        profile = fourier2(one_mu(T.sub, mu, bws))
        _check(
            rep, "profile_transform_exchange",
            d2_equal(profile, delta_nu(dual_model2(T.sub), mu.on_dual(), bws.dual())), at,
        )


def _sweep2(ctx: SuiteContext) -> dict:
    """The sweep settings of both two-dimensional identities."""
    return dict(
        o=ctx.params["basepoint"], cut_lo=ctx.params["cut_lo"], cut_hi=ctx.params["cut_hi"],
        max_points=ctx.params["max_points"], corrupt=ctx.params["corrupt"],
    )


@register(
    "poisson2_ii", "poisson2_II_characteristic_transform",
    params={"basepoint": 0, "cut_lo": -2, "cut_hi": 2, "max_points": 256},
    faults=(POISSON2_FAULTS["II"],),
    triple=_identity_triple("II"),
)
def poisson2_ii(ctx: SuiteContext, rep: Report) -> None:
    triple = ctx.params["triple"] or inner_cut_triple(k2_model(ctx.field), 0)
    _merge(rep, [poisson2_verify("II", triple, **_sweep2(ctx))])


@register(
    "poisson2_i",
    "poisson2_I_characteristic_transform",
    "poisson2_I_monomial_corollary",
    params={"basepoint": 0, "cut_lo": -1, "cut_hi": 1, "max_points": 256},
    faults=(POISSON2_FAULTS["I"],),
    triple=_corollary_triple,
)
def poisson2_i(ctx: SuiteContext, rep: Report) -> None:
    q, o = ctx.field.q, ctx.params["basepoint"]
    triple = ctx.params["triple"] or outer_cut_triple(k2_model(ctx.field), 0)
    values = (Fraction(1), Fraction(q), Fraction(1, q))
    _merge(rep, (
        poisson2_verify(
            "I",
            triple,
            VirtualMeasure(triple.sub, o, triple.sub.outer_sup, s_mu),
            VirtualMeasure(triple.quot, o, triple.quot.outer_inf, s_nu),
            **_sweep2(ctx),
        )
        for s_mu in values
        for s_nu in values
    ))
    # the corollary under monomial automorphisms of the middle, on one
    # bi-window widened over both subs as the verifier widens each side
    mid, Td = triple.mid, dual_triple2(triple)
    mu = VirtualMeasure(triple.sub, o, triple.sub.outer_sup, Fraction(1))
    nu = VirtualMeasure(triple.quot, o, triple.quot.outer_inf, Fraction(1))
    bw = raise_outer_top(Td.sub, raise_outer_top(triple.sub, BiWindow(-1, 1, -1, 1)))
    delta, delta_d = char_dist(triple, mu, nu, bw), char_dist(Td, nu.on_dual(), mu.on_dual(), bw)
    for shifts in _COROLLARY_SHIFTS:
        g = AutElem(mid, shifts[0], shifts[1], 1)
        ghat = AutHatElem(g, VirtualMeasure(mid, o, g.apply_cut(o), Fraction(1)))
        lhs, rhs = _walk(delta, [("act", ghat), ("fourier",)]), _walk(delta_d, [("act", ghat.dual_lift())])
        _check(rep, "poisson2_I_monomial_corollary", _same(lhs, rhs), f"g={shifts}")


@register(
    "central_ext",
    "central_ext_group_law",
    "central_ext_inverse",
    "central_ext_kernel",
    "central_ext_commutator",
    "rep_homomorphism",
    "rep_module_compat",
    "rep_pairing_invariance",
    "fourier_intertwines_action",
    params={"cases": 100, "rep_cases": 10},
)
def central_ext(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    q = ctx.field.q
    bw = BiWindow(-1, 1, -1, 1)
    for _ in range(ctx.params["cases"]):
        x, y, z = (_rand_lift(ctx.rng, K2) for _ in range(3))
        lhs = authat_mul(authat_mul(x, y), z)
        rhs = authat_mul(x, authat_mul(y, z))
        _check(rep, "central_ext_group_law", lhs.g == rhs.g and lhs.mu == rhs.mu, "")
        prod = authat_mul(x, authat_inverse(x))
        _check(rep, "central_ext_inverse", prod.is_central_scalar() and prod.scalar() == 1, "")
        scaled = AutHatElem(x.g, x.mu.scaled(Fraction(9)))
        _check(
            rep, "central_ext_kernel",
            authat_mul(scaled, authat_inverse(x)).is_central_scalar(), "",
        )
    t_hat = AutHatElem(AutElem(K2, 1, 0, 1), VirtualMeasure(K2, 0, -1, Fraction(1)))
    u_hat = AutHatElem(AutElem(K2, 0, 1, 1), VirtualMeasure(K2, 0, 0, Fraction(1)))
    comm = authat_mul(authat_mul(t_hat, u_hat), authat_inverse(authat_mul(u_hat, t_hat)))
    _check(rep, "central_ext_commutator", comm.is_central_scalar() and comm.scalar() == q, "")
    F = ("fourier",)
    for _ in range(ctx.params["rep_cases"]):
        x, y = _rand_lift(ctx.rng, K2), _rand_lift(ctx.rng, K2)
        f = _rand_d2elem(ctx.rng, K2, 0, bw)
        act = ("act", x)
        _commutes(rep, "rep_homomorphism", "", (f, [("act", y), act], [("act", authat_mul(x, y))]))
        G = _rand_d2dist(ctx.rng, K2, 0, bw)
        _commutes(rep, "rep_pairing_invariance", "", (f, [act, ("pair", _walk(G, [act]))], [("pair", G)]))
        e = _rand_e2(ctx.rng, K2, bw)
        by_e, by_ge = ("module", e), ("module", _walk(e, [("act", x.g)]))
        _commutes(rep, "rep_module_compat", "", (f, [by_e, act], [act, by_ge]), (G, [by_e, act], [act, by_ge]))
        dual = ("act", x.dual_lift())
        _commutes(rep, "fourier_intertwines_action", "", (f, [act, F], [F, dual]), (G, [act, F], [F, dual]))


def _zvezda(ctx: SuiteContext, kind: str, c1_: int, c2_: int):
    K2 = k2_model(ctx.field)
    F = ctx.field
    if kind == "cc_dd":
        T = outer_cut_triple(K2, c1_)
        Tg = outer_cut_triple(T.quot, c2_)
        X = box_model(F, None, c2_, None, None, "X'")
    elif kind == "cf_df":
        T = inner_cut_triple(K2, c1_)
        Tg = inner_cut_triple(T.quot, c2_)
        X = box_model(F, None, None, None, c2_, "X'")
    elif kind == "cc_df":
        T = outer_cut_triple(K2, c1_)
        Tg = inner_cut_triple(T.quot, c2_)
        X = C2Model(F, ((None, c1_, None, None), (c1_, None, None, c2_)), "X'")
    else:  # cf_dc
        T = inner_cut_triple(K2, c1_)
        Tg = outer_cut_triple(T.quot, c2_)
        X = C2Model(F, ((None, c2_, None, None), (c2_, None, None, c1_)), "X'")
    T_mono = GradedC2Triple(K2, X, Tg.quot, "mono")
    T_fiber = GradedC2Triple(X, T.sub, Tg.sub, "fiber")
    return T, Tg, T_fiber, T_mono


@register(
    "base_change2",
    "base_change2_twisted",
    "base_change2_fiberwise",
    "base_change2_mixed",
    "composition2_epis",
    "composition2_monos",
    params={"cases": 6},
)
def base_change2(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    F = ctx.field
    for _ in range(ctx.params["cases"]):
        c1_ = ctx.rng.randint(-1, 0)
        c2_ = ctx.rng.randint(c1_, 1)
        at = f"{c1_},{c2_}"
        # twisted base change through outer cuts
        T, Tg, T_fiber, T_mono = _zvezda(ctx, "cc_dd", c1_, c2_)
        mu = VirtualMeasure(T.sub, 0, c1_, abs(ctx.rng.fraction()))
        nu = VirtualMeasure(Tg.quot, 0, c2_, abs(ctx.rng.fraction()))
        draws = _d2_draws(ctx.rng, BiWindow(min(-1, c2_), max(1, c1_), -1, 1))
        twisted = (
            [("beta_push", T, mu), ("alpha_pull", Tg, nu)],
            [("alpha_pull", T_mono, nu), ("beta_push", T_fiber, mu)],
        )
        _square_and_twin(rep, "base_change2_twisted", draws, *twisted, at)
        # fiberwise base change through inner cuts
        T, Tg, T_fiber, T_mono = _zvezda(ctx, "cf_df", c1_, c2_)
        draws = _d2_draws(ctx.rng, BiWindow(-1, 1, min(-1, c1_), max(1, c2_)))
        fiberwise = (
            [("alpha_push", Tg, None), ("beta_pull", T, None)],
            [("beta_pull", T_fiber, None), ("alpha_push", T_mono, None)],
        )
        _square_and_twin(rep, "base_change2_fiberwise", draws, *fiberwise, at)
        # mixed classes
        T, Tg, T_fiber, T_mono = _zvezda(ctx, "cc_df", c1_, c2_)
        mu = VirtualMeasure(T.sub, 0, c1_, abs(ctx.rng.fraction()))
        draws = _d2_draws(ctx.rng, BiWindow(-1, max(1, c1_), -1, max(1, c2_)))
        mixed = (
            [("alpha_push", T_mono, None), ("beta_push", T, mu)],
            [("beta_push", T_fiber, mu), ("alpha_push", Tg, None)],
        )
        _square_and_twin(rep, "base_change2_mixed", draws, *mixed, at)
        T, Tg, T_fiber, T_mono = _zvezda(ctx, "cf_dc", c1_, c2_)
        nu = VirtualMeasure(Tg.quot, 0, c2_, abs(ctx.rng.fraction()))
        draws = _d2_draws(ctx.rng, BiWindow(min(-1, c2_), 1, min(-1, c1_), max(1, c1_)))
        mixed = (
            [("beta_pull", T, None), ("alpha_pull", T_mono, nu)],
            [("alpha_pull", Tg, nu), ("beta_pull", T_fiber, None)],
        )
        _square_and_twin(rep, "base_change2_mixed", draws, *mixed, at)
        # compositions of epimorphisms, twisted and fiberwise
        T, Tg, T_fiber, T_mono = _zvezda(ctx, "cc_dd", c1_, c2_)
        mu = VirtualMeasure(T.sub, 0, c1_, abs(ctx.rng.fraction()))
        nug = VirtualMeasure(Tg.sub, 0, c2_, abs(ctx.rng.fraction()))
        munu = VirtualMeasure(T_mono.sub, 0, c2_, mu.scalar * nug.scalar)
        draws = _d2_draws(ctx.rng, BiWindow(min(-1, c2_), max(1, c2_), -1, 1))
        epis = [("beta_push", T, mu), ("beta_push", Tg, nug)], [("beta_push", T_mono, munu)]
        _square_and_twin(rep, "composition2_epis", draws, *epis, at)
        T, Tg, T_fiber, T_mono = _zvezda(ctx, "cf_df", c1_, c2_)
        draws = _d2_draws(ctx.rng, BiWindow(-1, 1, min(-1, c1_), max(1, c2_)))
        epis = [("beta_pull", Tg, None), ("beta_pull", T, None)], [("beta_pull", T_mono, None)]
        _square_and_twin(rep, "composition2_epis", draws, *epis, at)
        # compositions of monomorphisms through enlargements
        T2o = outer_cut_triple(K2, c2_)
        E1 = box_model(F, None, c1_, None, None, "E1")
        E3 = box_model(F, c1_, c2_, None, None, "E3")
        Tin = GradedC2Triple(T2o.sub, E1, E3, "in")
        coker = box_model(F, c1_, None, None, None, "coker")
        Tc = GradedC2Triple(K2, E1, coker, "comp")
        mu3 = VirtualMeasure(E3, 0, c1_, abs(ctx.rng.fraction()))
        nul = VirtualMeasure(T2o.quot, 0, c2_, abs(ctx.rng.fraction()))
        mn = VirtualMeasure(coker, 0, c1_, mu3.scalar * nul.scalar)
        draws = _d2_draws(ctx.rng, BiWindow(min(-1, c1_), 1, -1, 1))
        monos = [("alpha_pull", T2o, nul), ("alpha_pull", Tin, mu3)], [("alpha_pull", Tc, mn)]
        _square_and_twin(rep, "composition2_monos", draws, *monos, at)
        T2i = inner_cut_triple(K2, c2_)
        E1i = box_model(F, None, None, None, c1_, "E1i")
        E3i = box_model(F, None, None, c1_, c2_, "E3i")
        Tini = GradedC2Triple(T2i.sub, E1i, E3i, "ini")
        cokeri = box_model(F, None, None, c1_, None, "cokeri")
        Tci = GradedC2Triple(K2, E1i, cokeri, "compi")
        draws = _d2_draws(ctx.rng, BiWindow(-1, 1, min(-1, c1_), max(1, c2_)))
        monos = [("alpha_push", Tini, None), ("alpha_push", T2i, None)], [("alpha_push", Tci, None)]
        _square_and_twin(rep, "composition2_monos", draws, *monos, at)


@register(
    "fourier_image2",
    "fourier_image2_twisted_squares",
    "fourier_image2_fiberwise_squares",
    params={"cases": 6},
)
def fourier_image2(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    F = ("fourier",)
    for _ in range(ctx.params["cases"]):
        cut = ctx.rng.randint(-1, 1)
        T, Ti = outer_cut_triple(K2, cut), inner_cut_triple(K2, cut)
        Td, Tdi = dual_triple2(T), dual_triple2(Ti)
        mu = VirtualMeasure(T.sub, 0, cut, abs(ctx.rng.fraction()))
        nu = VirtualMeasure(T.quot, 0, cut, abs(ctx.rng.fraction()))
        fn, dist = _d2_draws(ctx.rng, BiWindow(min(-1, cut), max(1, cut), -1, 1))
        f, G3, G1 = fn(T.mid), dist(T.quot), dist(T.sub)
        fn, dist = _d2_draws(ctx.rng, BiWindow(-1, 1, min(-1, cut), max(1, cut)))
        g, f1, G2 = fn(Ti.quot), fn(Ti.sub), dist(Ti.mid)
        at = f"cut={cut}"
        _commutes(
            rep, "fourier_image2_twisted_squares", at,
            (f, [("beta_push", T, mu), F], [F, ("alpha_pull", Td, mu.on_dual())]),
            (f, [("alpha_pull", T, nu), F], [F, ("beta_push", Td, nu.on_dual())]),
            (G3, [("beta_pull", T, mu), F], [F, ("alpha_push", Td, mu.on_dual())]),
            (G1, [("alpha_push", T, nu), F], [F, ("beta_pull", Td, nu.on_dual())]),
        )
        _commutes(
            rep, "fourier_image2_fiberwise_squares", at,
            (g, [("beta_pull", Ti, None), F], [F, ("alpha_push", Tdi, None)]),
            (f1, [("alpha_push", Ti, None), F], [F, ("beta_pull", Tdi, None)]),
            (G2, [("beta_push", Ti, None), F], [F, ("alpha_pull", Tdi, None)]),
            (G2, [("alpha_pull", Ti, None), F], [F, ("beta_push", Tdi, None)]),
        )


@register("dominate2", "domination_invariance", "basepoint_change_compat", params={"cases": 10})
def dominate2(ctx: SuiteContext, rep: Report) -> None:
    K2 = k2_model(ctx.field)
    q = ctx.field.q
    bw = BiWindow(-1, 1, -1, 1)
    for _ in range(ctx.params["cases"]):
        x = _rand_d2elem(ctx.rng, K2, 0, bw)
        # an outer reindexing computes identical transform tables; an inner
        # one renormalizes the pinned reference lattice by an explicit power
        da, db = ctx.rng.randint(-1, 1), ctx.rng.randint(-1, 1)
        Ks = shift_region(K2, da, db)
        bws = BiWindow(bw.l + da, bw.i + da, bw.m + db, bw.n + db)
        xs = D2Elem(Ks, da, bws, x.table, x.twist)
        renorm = q_power(q, Ks.sigma(bws.l, bws.i, bws.m) - K2.sigma(bw.l, bw.i, bw.m))
        _check(
            rep, "domination_invariance",
            fourier2(xs).table == tables.scale(fourier2(x).table, renorm),
            f"d=({da},{db})",
        )
        vm = VirtualMeasure(K2, 0, ctx.rng.randint(-1, 1), abs(ctx.rng.fraction()))
        G = _rand_d2dist(ctx.rng, K2, 0, bw)
        moved = _walk(G, [("basepoint", vm.inverse())])
        _commutes(rep, "basepoint_change_compat", "", (x, [("basepoint", vm), ("pair", moved)], [("pair", G)]))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _suite_seed(seed: int, name: str) -> int:
    s = seed & ((1 << 64) - 1)
    for ch in name:
        s = (s * 131 + ord(ch)) & ((1 << 64) - 1)
    return s


def _run_suite(field, spec, seed: int) -> dict:
    fn, _tags = SUITES[spec.kind]
    suite_seed = _suite_seed(seed, spec.kind)
    t0 = time.monotonic()
    rep = fn(SuiteContext(field, spec.params, LCG(suite_seed)))
    rep.name = spec.name
    rep.seed = suite_seed
    rep.wall_time = time.monotonic() - t0
    # a report leaves a worker as its fields, all builtins: pickling the
    # report itself would name its class through sys.modules, which may hold
    # another copy of the library than the one that made it
    return vars(rep)


def run_suites(cfg, only=None, seed=None, jobs=None) -> list:
    """Run the config's suites (those named or of a kind in ``only``, if
    given) and return their reports in config order.

    The suites run on the CPUs this process may use, ``jobs`` workers at
    most (see ``fanout.fan_out``); ``jobs=1`` runs them here, one after
    another.  Each suite draws from its own generator, seeded from the run
    seed and its kind, so the reports, and their JSON bytes, do not depend
    on ``jobs``; only a report's wall time, that suite's own, does.  The
    first exception in config order is raised.
    """
    run_seed = seed if seed is not None else cfg.seed
    chosen = [s for s in cfg.suites if only is None or s.name in only or s.kind in only]
    fields = fan_out([partial(_run_suite, cfg.field, spec, run_seed) for spec in chosen], jobs)
    return [Report(**f) for f in fields]
