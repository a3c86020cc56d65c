"""Line-based sectioned key=value configuration for the harness.

The format is deliberately minimal so that configs diff cleanly:

    [field]
    spec = 2,1,[0,1]

    [run]
    seed = 42
    table_cap = 4096

    [model K]
    c1 = full

    [model O]
    c1 = below 0

    [model K2]
    c2 = box * * * *

    [triple T]
    mid = K
    sub = O

    [suite poisson1]
    run = poisson1
    triple = T
    cut_hi = 2

Unknown keys, unresolved names and cap violations are reported with line
numbers; a suite section accepts only the keys its suite kind reads, a
``triple`` only when it passes the suite kind's triple check, and a
``corrupt`` only when it names a fault the suite kind injects.  The keys and
their defaults come from the suite registry in ``harness.suites``, and a
suite's values are checked with the defaults filled in.  A value that leaves
a suite nothing to check (a case count or point cap below 1, a range whose
ends are in reverse order, with one end given or both, a negative poisson1
reach) is refused at its line.
``table_cap`` also bounds the field: a spec whose q x q tables would exceed
it is refused before the field is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from fqharmonic.c1 import C1Model, laurent_model, lattice_model, colattice_model, segment_model
from fqharmonic.c1_triples import interval_triple
from fqharmonic.c2 import C2Model, box_model, k2_model
from fqharmonic.c2_triples import GradedC2Triple, inner_cut_triple, outer_cut_triple
from fqharmonic.exactnum import DomainError, FqField, split_field_spec
from fqharmonic.harness.suites import DECLARATIONS, with_defaults


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        msg = "; ".join(f"line {ln}: {m}" for ln, m in self.errors)
        super().__init__(msg or "invalid configuration")


_DEFAULT_TABLE_CAP = 4096


@dataclass
class SuiteSpec:
    name: str
    kind: str
    params: dict


@dataclass
class SuiteConfig:
    field: FqField
    models: dict
    triples: dict
    suites: list
    seed: int = 1
    table_cap: int = _DEFAULT_TABLE_CAP
    out: Optional[str] = None


_RUN_KEYS = {"seed", "table_cap", "out"}
_MODEL_KEYS = {"c1", "c2"}
_TRIPLE_KEYS = {"mid", "sub", "quot", "outer_cut", "inner_cut"}


def _parse_sections(text: str, errors):
    sections = []
    current = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            head = line[1:-1].strip()
            current = {"head": head, "line": ln, "items": []}
            sections.append(current)
            continue
        if "=" not in line:
            errors.append((ln, f"expected key = value, got {line!r}"))
            continue
        if current is None:
            errors.append((ln, "key outside of any section"))
            continue
        key, _, val = line.partition("=")
        current["items"].append((ln, key.strip(), val.strip()))
    return sections


def _c1_model(field: FqField, spec: str, name: str) -> C1Model:
    parts = spec.split()
    kind = parts[0]
    if kind == "full":
        return laurent_model(field, name)
    if kind == "below":
        return lattice_model(field, int(parts[1]), name)
    if kind == "atleast":
        return colattice_model(field, int(parts[1]), name)
    if kind == "segment":
        return segment_model(field, int(parts[1]), int(parts[2]), name)
    raise DomainError(f"unknown c1 model kind {kind!r}")


def exceeds_cap(base: int, exp: int, cap: int) -> bool:
    """Whether base**exp > cap, for base >= 2 and exp >= 0.  An exp past the
    cap's bit length is over the cap, so a huge power is never formed."""
    return exp > cap.bit_length() or base**exp > cap


def _field(spec: str, table_cap: int) -> FqField:
    """The field of a spec, refused before it is built when a q x q table
    (the field's own addition and multiplication tables) exceeds the cap."""
    p, n, coeffs = split_field_spec(spec)
    # any other p or n is left to FqField to refuse
    if p >= 2 and n >= 1 and exceeds_cap(p, 2 * n, table_cap):
        raise DomainError(f"the field has q^2 = {p}^{2 * n} table entries, more than table_cap = {table_cap}")
    return FqField(p, n, coeffs)


def _bound(tok: str) -> Optional[int]:
    return None if tok == "*" else int(tok)


def _c2_model(field: FqField, spec: str, name: str) -> C2Model:
    parts = spec.split()
    if parts[0] == "box" and len(parts) == 5:
        return box_model(field, *(_bound(t) for t in parts[1:]), label=name)
    if parts[0] == "full":
        return k2_model(field, name)
    raise DomainError(f"unknown c2 model kind {spec!r}")


def _value_errors(spec: SuiteSpec, given: dict, table_cap: Optional[int]) -> list:
    """The errors of suite values that break the table cap or leave the suite
    nothing to check, read with the suite's defaults filled in; a default is
    named as one, and is never compared with the table cap."""
    line = {key: ln for key, (ln, _val) in spec.params.items()}
    got = with_defaults(spec.kind, given)
    errors = [(line[k], f"{k} = {got[k]} leaves the suite nothing to check; give at least 1")
              for k in ("cases", "rep_cases", "max_points") if k in given and got[k] < 1]
    for lo, hi in (("cut_lo", "cut_hi"), ("i_lo", "i_hi")):
        ends = [k for k in (lo, hi) if k in line]  # a malformed end is its own error
        if lo in got and ends and all(k in given for k in ends) and got[lo] > got[hi]:
            at, other, side = (lo, hi, "above") if lo in given else (hi, lo, "below")
            where = f"line {line[other]}" if other in given else "the default"
            msg = f"{at} = {got[at]} is {side} {other} = {got[other]} ({where}): the range is empty"
            errors.append((line[at], msg))
    if table_cap is not None and given.get("max_points", 0) > table_cap:
        errors.append((line["max_points"], f"max_points {got['max_points']} exceeds table cap {table_cap}"))
    if "max_dim" in given:
        # poisson0's largest table has 4^max_dim entries, over F_4
        n = got["max_dim"]
        if n < 0:
            errors.append((line["max_dim"], f"max_dim = {n} leaves the suite nothing to check; give at least 0"))
        elif table_cap is not None and exceeds_cap(4, n, table_cap):
            msg = f"max_dim {n} makes tables of 4^{n} entries, more than table cap {table_cap}"
            errors.append((line["max_dim"], msg))
    if spec.kind == "poisson1":
        if got["triple"] is not None and not got["deep_cut"]:
            # the triple runs only in the deep sweep, so without it the triple is ignored
            errors.append((line["triple"], "poisson1 runs its triple only in the deep_cut sweep; set deep_cut"))
        errors += [(line[k], f"{k} = {got[k]} is a sweep's reach and must not be negative")
                   for k in ("cut_hi", "deep_cut") if got[k] < 0]
    return errors


def parse_config(text: str) -> SuiteConfig:
    errors: list = []
    sections = _parse_sections(text, errors)
    field_obj: Optional[FqField] = None
    run_items = {}
    models: dict = {}
    triples: dict = {}
    suites: list = []

    # the run settings come first: the table cap bounds the field
    for sec in sections:
        if sec["head"] == "run":
            for ln, key, val in sec["items"]:
                if key not in _RUN_KEYS:
                    errors.append((ln, f"unknown run key {key!r}"))
                else:
                    run_items[key] = (ln, val)
    ints = {"seed": 1, "table_cap": _DEFAULT_TABLE_CAP}
    for key in ints:
        if key in run_items:
            ln, val = run_items[key]
            try:
                ints[key] = int(val)
            except ValueError:
                errors.append((ln, f"bad integer {val!r}"))
                ints[key] = None  # no cap to compare max_points against
    seed, table_cap = ints["seed"], ints["table_cap"]
    out = run_items.get("out", (0, None))[1]

    for sec in sections:
        head, ln0, items = sec["head"], sec["line"], sec["items"]
        if head == "field":
            for ln, key, val in items:
                if key != "spec":
                    errors.append((ln, f"unknown field key {key!r}"))
                    continue
                try:
                    # a malformed cap leaves the default one bounding the field
                    field_obj = _field(val, _DEFAULT_TABLE_CAP if table_cap is None else table_cap)
                except (DomainError, ValueError) as exc:
                    # every later section needs the field: stop at its line
                    raise ConfigError(sorted(errors + [(ln, str(exc))])) from None
        elif head == "run":
            pass  # read above
        elif head.startswith("model "):
            name = head.split(None, 1)[1]
            if field_obj is None:
                errors.append((ln0, "the [field] section must come first"))
                continue
            for ln, key, val in items:
                if key not in _MODEL_KEYS:
                    errors.append((ln, f"unknown model key {key!r}"))
                    continue
                try:
                    if key == "c1":
                        models[name] = _c1_model(field_obj, val, name)
                    else:
                        models[name] = _c2_model(field_obj, val, name)
                except (DomainError, ValueError, IndexError) as exc:
                    errors.append((ln, f"bad model {name!r}: {exc}"))
        elif head.startswith("triple "):
            name = head.split(None, 1)[1]
            data = {}
            for ln, key, val in items:
                if key not in _TRIPLE_KEYS:
                    errors.append((ln, f"unknown triple key {key!r}"))
                else:
                    data[key] = (ln, val)
            if "mid" not in data:
                errors.append((ln0, f"triple {name!r} needs a mid model"))
                continue
            ln_mid, mid_name = data["mid"]
            if mid_name not in models:
                errors.append((ln_mid, f"undeclared model {mid_name!r}"))
                continue
            mid = models[mid_name]
            try:
                if isinstance(mid, C1Model):
                    ln_s, sub_name = data.get("sub", (ln0, ""))
                    if sub_name not in models:
                        errors.append((ln_s, f"undeclared model {sub_name!r}"))
                        continue
                    triples[name] = interval_triple(mid, models[sub_name], name)
                elif "outer_cut" in data:
                    triples[name] = outer_cut_triple(mid, int(data["outer_cut"][1]), name)
                elif "inner_cut" in data:
                    triples[name] = inner_cut_triple(mid, int(data["inner_cut"][1]), name)
                else:
                    ln_s, sub_name = data.get("sub", (ln0, ""))
                    ln_q, quot_name = data.get("quot", (ln0, ""))
                    if sub_name not in models or quot_name not in models:
                        errors.append((ln0, f"triple {name!r} needs declared sub and quot"))
                        continue
                    triples[name] = GradedC2Triple(mid, models[sub_name], models[quot_name], name)
            except (DomainError, ValueError) as exc:
                errors.append((ln0, f"bad triple {name!r}: {exc}"))
        elif head.startswith("suite "):
            name = head.split(None, 1)[1]
            runs = [(ln, val) for ln, key, val in items if key == "run"]
            ln_run, kind = runs[-1] if runs else (ln0, name)
            if kind not in DECLARATIONS:
                errors.append((ln_run, f"unknown suite kind {kind!r}"))
                continue
            params: dict = {}
            for ln, key, val in items:
                if key in DECLARATIONS[kind].defaults:
                    params[key] = (ln, val)
                elif key != "run":
                    errors.append((ln, f"unknown suite key {key!r}"))
            suites.append(SuiteSpec(name, kind, params))
        else:
            errors.append((ln0, f"unknown section {head!r}"))

    if field_obj is None:
        errors.append((0, "missing [field] section"))

    # resolve names and caps inside suite parameters
    for spec in suites:
        resolved = {}
        for key, (ln, val) in spec.params.items():
            if key == "triple":
                if val not in triples:
                    errors.append((ln, f"undeclared triple {val!r}"))
                    continue
                try:
                    DECLARATIONS[spec.kind].triple(triples[val])
                except DomainError as exc:
                    errors.append((ln, f"triple {val!r} cannot run {spec.kind}: {exc}"))
                    continue
                resolved[key] = triples[val]
            elif key == "corrupt":
                try:
                    resolved[key] = with_defaults(spec.kind, {key: val})[key]
                except DomainError as exc:
                    errors.append((ln, str(exc)))
            else:
                try:
                    resolved[key] = int(val)
                except ValueError:
                    errors.append((ln, f"bad integer {val!r}"))
        errors += _value_errors(spec, resolved, table_cap)
        spec.params = resolved

    if errors:
        raise ConfigError(sorted(errors))
    return SuiteConfig(field_obj, models, triples, suites, seed, table_cap, out)
