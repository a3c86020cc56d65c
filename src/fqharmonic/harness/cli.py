"""Command-line front end: verify suites, transform tables, dump elements."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from fqharmonic.c1 import (
    C1Fn,
    C1Model,
    HaarMeasure,
    Window,
    delta_lattice,
    delta_point_dist,
    dist_at,
    fn_at,
    fourier1,
)
from fqharmonic.c2 import BiWindow, C2Model, D2Elem, bw_dim, e2_constant_one, fourier2
from fqharmonic.c2_triples import delta0_fn, one_fn
from fqharmonic.dim0 import FinSpace, Fn0, fourier0
from fqharmonic.exactnum import DomainError
from fqharmonic.harness.config import ConfigError, exceeds_cap, parse_config
from fqharmonic.harness.csvio import context_line, parse_table, render_table
from fqharmonic.harness.report import emit_report
from fqharmonic.harness.suites import run_suites


def _file(path: str, text: Optional[str] = None):
    """The UTF-8 text of the file at path, or, given text, write it there.  A
    file that cannot be read or written prints ``path: message`` and exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8") if text is None else Path(path).write_text(text)
    except (OSError, UnicodeError) as exc:
        print(f"{path}: {getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        sys.exit(2)


def _load_config(path: str):
    try:
        return parse_config(_file(path))
    except ConfigError as exc:
        for ln, msg in exc.errors:
            print(f"{path}:{ln}: {msg}", file=sys.stderr)
        sys.exit(2)


def _spec_ints(spec: Optional[str], *tokens: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise DomainError(f"malformed spec {spec!r}") from None


def _parse_window(spec: Optional[str]) -> Window:
    lo, _, hi = (spec or "").partition(":")
    return Window(*_spec_ints(spec, lo, hi))


def _parse_biwindow(spec: Optional[str]) -> BiWindow:
    outer, _, inner = (spec or "").partition(",")
    l, _, i = outer.partition(":")
    m, _, n = inner.partition(":")
    return BiWindow(*_spec_ints(spec, l, i, m, n))


def _parse_measure(spec: str) -> tuple[Fraction, int]:
    val, _, ref = spec.partition("@")
    num, _, den = val.partition("/")
    num, den, ref = _spec_ints(spec, num, den or "1", ref or "0")
    if den == 0:
        raise DomainError(f"zero denominator in measure {spec!r}")
    return Fraction(num, den), ref


def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    only = set(args.suite) if args.suite else None
    unknown = sorted((only or set()) - {name for s in cfg.suites for name in (s.name, s.kind)})
    if unknown:
        print(f"{args.config}: no suite named or of kind {', '.join(map(repr, unknown))}", file=sys.stderr)
        return 2
    reports = run_suites(cfg, only=only, seed=args.seed)
    text = emit_report(reports, args.format)
    out = args.out or cfg.out
    if out:
        _file(out, text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.passed for r in reports) else 1


def cmd_transform(args) -> int:
    cfg = _load_config(args.config)
    try:
        return _transform(cfg, args)
    except DomainError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 2


def _transform(cfg, args) -> int:
    p = cfg.field.p
    q, dim, table, edges = parse_table(_file(args.input), p)
    if q != cfg.field.q:
        raise DomainError(f"table is over q={q}, config field has q={cfg.field.q}")
    if args.op == "fourier0":
        out_fn = fourier0(Fn0(FinSpace(cfg.field, dim), table))
        text = render_table(q, out_fn.table)
    elif args.op == "fourier1":
        model = _op_model(cfg, args, C1Model, "one-dimensional")
        w = _op_window(args.op, edges, _parse_window(args.window))
        value, ref = _parse_measure(args.measure or "1@0")
        # counted, not listed: a window's slot labels are listed only once
        # the table is known to fit it
        if model.count(w.lo, w.hi) != dim:
            raise DomainError("table length does not match the window")
        f = C1Fn(model, "D", w, table)
        out_f = fourier1(f, HaarMeasure(model, ref, value))
        text = render_table(q, out_f.table, out_f.window.edges)
    else:  # fourier2, the last of the op's choices
        model = _op_model(cfg, args, C2Model, "two-dimensional")
        bw = _op_window(args.op, edges, _parse_biwindow(args.biwindow))
        o = args.basepoint
        x = D2Elem(model, o, bw, table, Fraction(1))
        y = fourier2(x)
        text = render_table(q, y.table, y.bw.edges)
    _file(args.out, text)
    return 0


def _op_window(op: str, edges, window):
    """The window the op reads, unless the table's context line names another."""
    if edges not in (None, window.edges):
        raise DomainError(f"the table is on {context_line(edges)}, but {op} reads {context_line(window.edges)}")
    return window


def _op_model(cfg, args, cls, kind: str):
    """The named model; DomainError unless it is a ``cls``."""
    model = cfg.models.get(args.model)
    if model is None:
        raise DomainError(f"unknown model {args.model!r}")
    if not isinstance(model, cls):
        raise DomainError(f"{args.op} needs a {kind} model; {args.model!r} is not one")
    return model


def _build_elem(model, spec: str, w: Window):
    kind, _, rest = spec.partition(":")
    if kind == "deltaF":
        (cut,) = _spec_ints(spec, rest)
        return fn_at(delta_lattice(model, cut), w).table
    if kind == "haar":
        value, ref = _parse_measure(rest)
        return HaarMeasure(model, ref, value).as_dist(w).table
    if kind == "point":
        point = {}
        if rest:
            for item in rest.split(";"):
                k, _, v = item.partition("=")
                k, v = _spec_ints(spec, k, v)
                point[k] = v
        return dist_at(delta_point_dist(model, point, w), w).table
    raise DomainError(f"unknown element spec {spec!r}")


def _check_table_cap(cfg, dim: int) -> None:
    """Refuse a window table of more than ``table_cap`` entries before it is built."""
    q, cap = cfg.field.q, cfg.table_cap
    if exceeds_cap(q, dim, cap):
        raise DomainError(f"the window table has {q}^{dim} entries, more than table_cap = {cap}")


def cmd_dump(args) -> int:
    cfg = _load_config(args.config)
    model = cfg.models.get(args.model)
    try:
        if model is None:
            raise DomainError(f"unknown model {args.model!r}")
        if isinstance(model, C2Model):
            bw = _parse_biwindow(args.window)
            _check_table_cap(cfg, bw_dim(model, bw))
            kind = args.elem.partition(":")[0]
            if kind == "ones":
                ones = one_fn(model, args.basepoint, bw) if model.is_cf else e2_constant_one(model, bw)
                table = ones.table
            elif kind == "delta0":
                table = delta0_fn(model, args.basepoint, bw).table
            else:
                raise DomainError(f"unknown element spec {args.elem!r}")
            text = render_table(cfg.field.q, table, bw.edges)
        else:
            w = _parse_window(args.window)
            _check_table_cap(cfg, model.count(w.lo, w.hi))
            table = _build_elem(model, args.elem, w)
            text = render_table(cfg.field.q, table, w.edges)
    except DomainError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.out:
        _file(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fqharmonic",
        description="Exact window-level verification of harmonic analysis on filtered spaces",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="run verification suites from a config")
    v.add_argument("config")
    v.add_argument("--suite", action="append", help="run only the named suites")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--format", choices=("text", "json"), default="text")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    t = sub.add_parser("transform", help="apply a transform to a CSV table")
    t.add_argument("config")
    t.add_argument("--op", required=True, choices=("fourier0", "fourier1", "fourier2"))
    t.add_argument("--input", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--model")
    t.add_argument("--window")
    t.add_argument("--biwindow")
    t.add_argument("--measure")
    t.add_argument("--basepoint", type=int, default=0)
    t.set_defaults(fn=cmd_transform)

    d = sub.add_parser("dump", help="dump a window table of a named element")
    d.add_argument("config")
    d.add_argument("--model", required=True)
    d.add_argument("--window", required=True, help="lo:hi, or l:i,m:n for 2d models")
    d.add_argument("--elem", required=True)
    d.add_argument("--basepoint", type=int, default=0)
    d.add_argument("--out")
    d.set_defaults(fn=cmd_dump)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
