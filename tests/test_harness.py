import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fqharmonic import c1
from fqharmonic.c2 import k2_model
from fqharmonic.c2_triples import outer_cut_triple
from fqharmonic.dim0 import FinSpace, Fn0
from fqharmonic.exactnum import CycNum, DomainError, field_for
from fqharmonic.harness.cli import main as cli_main
from fqharmonic.harness.config import ConfigError, parse_config
from fqharmonic.harness.csvio import parse_table, render_table
from fqharmonic.harness.report import emit_report
from fqharmonic.harness.rng import LCG
from fqharmonic.harness import suites
from fqharmonic.harness.suites import DECLARATIONS, SUITES, run_suites

SRC = Path(__file__).resolve().parents[1] / "src"
EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "example.cfg"

MINIMAL = """\
[field]
spec = 2,1,[0,1]

[run]
seed = 7

[model K]
c1 = full

[model O]
c1 = below 0

[triple T]
mid = K
sub = O

[suite poisson1]
run = poisson1
triple = T
deep_cut = 1
cut_hi = 1
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.field == field_for(2)
    assert cfg.seed == 7
    assert "T" in cfg.triples and len(cfg.suites) == 1


def test_unknown_key_reports_line(tmp_path):
    # a key the suite kind does not read is an error, never silently ignored
    cases = [("poisson1", key) for key in ("bogus", "mu1", "mu2", "mu", "nu", "qs", "cases")]
    for kind, key in cases + [("vmeasure", "cases")]:
        bad = MINIMAL + f"\n[suite x]\nrun = {kind}\n{key} = 3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        lines = [ln for ln, _ in exc.value.errors]
        assert any(key in msg for _, msg in exc.value.errors)
        assert all(isinstance(ln, int) for ln in lines)
        assert exc.value.errors == [(len(bad.splitlines()), f"unknown suite key {key!r}")]
        cfg_path = tmp_path / f"{key}.cfg"
        cfg_path.write_text(bad)
        with pytest.raises(SystemExit) as stop:
            cli_main(["verify", str(cfg_path)])
        assert stop.value.code == 2


def test_suite_keys_are_checked_per_kind(tmp_path):
    # the kind decides wherever its run line stands; an unknown kind is a
    # config error at its run line
    bad = MINIMAL + "\n[suite x]\ncorrupt = psi\nrun = cyc_ring\ncases = 3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.errors == [(len(bad.splitlines()) - 2, "unknown suite key 'corrupt'")]
    bad = MINIMAL + "\n[suite x]\nrun = nosuch\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.errors == [(len(bad.splitlines()), "unknown suite kind 'nosuch'")]
    cfg_path = tmp_path / "kind.cfg"
    cfg_path.write_text(bad)
    with pytest.raises(SystemExit) as stop:
        cli_main(["verify", str(cfg_path)])
    assert stop.value.code == 2
    cfg = parse_config(MINIMAL + "\n[suite cyc_ring]\ncases = 3\n")
    assert (cfg.suites[-1].kind, cfg.suites[-1].params) == ("cyc_ring", {"cases": 3})


# the smallest sweep of each suite kind that injects faults
FAULT_SWEEPS = {
    "psi_character": "",
    "poisson1": "cut_hi = 1\n",
    "poisson2_ii": "cut_lo = -1\ncut_hi = 1\n",
    "poisson2_i": "cut_lo = 0\ncut_hi = 0\n",
}


def test_every_declared_fault_fails_its_suite():
    # the negative controls are inventoried: each fault a suite declares
    # makes that suite fail, under one of its own identity tags
    faults = {kind: decl.faults for kind, decl in DECLARATIONS.items() if decl.faults}
    assert faults == {
        "psi_character": ("psi",),
        "poisson1": ("measure", "transition"),
        "poisson2_ii": ("transition",),
        "poisson2_i": ("measure",),
    }
    for kind, names in faults.items():
        for fault in names:
            cfg = parse_config(MINIMAL + f"\n[suite x]\nrun = {kind}\n{FAULT_SWEEPS[kind]}corrupt = {fault}\n")
            (rep,) = run_suites(cfg, only={"x"}, jobs=1)
            assert rep.cases > 0 and not rep.passed, (kind, fault)
            assert {f["identity"] for f in rep.failures} <= set(SUITES[kind][1]), (kind, fault)


@pytest.mark.parametrize("kind, fault", [
    ("poisson2_ii", "measure"), ("psi_character", "pxi"), ("poisson2_i", "transition"), ("poisson1", "psi"),
])
def test_an_undeclared_fault_is_refused_at_its_line(tmp_path, kind, fault):
    bad = MINIMAL + f"\n[suite x]\nrun = {kind}\ncorrupt = {fault}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    ((ln, msg),) = exc.value.errors
    assert ln == len(bad.splitlines()) and msg.startswith(f"{kind} injects no fault {fault!r}")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    with pytest.raises(SystemExit) as stop:
        cli_main(["verify", str(cfg_path)])
    assert stop.value.code == 2


def _cli_exit(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr()


@pytest.mark.parametrize("command, bad", [
    ("verify {missing}", "{missing}"),
    ("verify {latin1}", "{latin1}"),
    ("verify {cfg} --out {nodir}", "{nodir}"),
    ("transform {cfg} --op fourier0 --input {missing} --out {out}", "{missing}"),
    ("transform {cfg} --op fourier0 --input {csv} --out {nodir}", "{nodir}"),
    ("dump {missing} --model K --window=-1:1 --elem deltaF:0", "{missing}"),
    ("dump {cfg} --model K --window=-1:1 --elem deltaF:0 --out {nodir}", "{nodir}"),
])
def test_a_file_that_cannot_be_read_or_written_exits_2(tmp_path, capsys, command, bad):
    # a missing or non-UTF-8 input, or an output in a missing directory, is
    # named with its message and exits 2, never a traceback
    paths = {
        "cfg": tmp_path / "ok.cfg", "csv": tmp_path / "in.csv", "out": tmp_path / "out.csv",
        "missing": tmp_path / "nope", "latin1": tmp_path / "latin1.cfg", "nodir": tmp_path / "no" / "x",
    }
    paths["cfg"].write_text(MINIMAL)
    paths["csv"].write_text(render_table(2, (CycNum.one(2), CycNum.zero(2))))
    paths["latin1"].write_bytes(MINIMAL.replace("[field]", "# caf\xe9\n[field]").encode("latin-1"))
    code, captured = _cli_exit(command.format(**paths).split(), capsys)
    assert code == 2 and captured.err.startswith(f"{bad.format(**paths)}: "), captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not paths["out"].exists()


def test_undeclared_model_reports_identifier():
    bad = MINIMAL.replace("sub = O", "sub = NOPE")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("NOPE" in msg for _, msg in exc.value.errors)


def test_cap_violation():
    bad = MINIMAL + "max_points = 99999\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert any("table cap" in msg for _, msg in exc.value.errors)


def test_field_section_required():
    with pytest.raises(ConfigError):
        parse_config("[run]\nseed = 1\n")


def test_lcg_documented_recurrence():
    gen = LCG(42)
    state = (6364136223846793005 * 42 + 1442695040888963407) % 2**64
    assert gen.next_u32() == state >> 32


def test_reports_deterministic_bytes():
    cfg = parse_config(MINIMAL)
    a = emit_report(run_suites(cfg), "json")
    b = emit_report(run_suites(cfg), "json")
    assert a == b
    assert json.loads(a)[0]["suite"] == "poisson1"


F3_IMAGES = """\
[field]
spec = 3,1,[0,1]

[run]
seed = 20260808
table_cap = 4096

[suite cyc_ring]
run = cyc_ring
cases = 5

[suite compose1]
run = compose1
cases = 4

[suite base_change1]
run = base_change1
cases = 3

[suite module2]
run = module2
cases = 3
"""


def test_f3_image_report_bytes_are_pinned():
    # the JSON report of a small F_3 image run; any change to the draw stream,
    # the case counts or an identity's outcome moves this digest
    text = emit_report(run_suites(parse_config(F3_IMAGES)), "json")
    assert [r["cases"] for r in json.loads(text)] == [20, 36, 21, 9]
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "1370042da2e231912999ca8112dd5f91075f3160d33a35ef8edbbb7884511d29"


F3_IMAGES2 = """\
[field]
spec = 3,1,[0,1]

[run]
seed = 20260808
table_cap = 4096

[suite images2_adjoint]
run = images2_adjoint
cases = 2

[suite base_change2]
run = base_change2
cases = 1

[suite fourier_image2]
run = fourier_image2
cases = 1
"""


def test_f3_images2_report_bytes_are_pinned():
    # the JSON report of a small F_3 run of the C_2 image suites, pinned the
    # same way as the C_1 run above
    text = emit_report(run_suites(parse_config(F3_IMAGES2)), "json")
    assert [r["cases"] for r in json.loads(text)] == [12, 16, 2]
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "242e96bfc6dbd01c69faf24db9ae4a15bee8b2b433df774ccfd08f6c48f7cf7e"


@pytest.mark.parametrize("seed, digest", [
    (5, "55501d6815ebe2345866daafe79023b7fcc85402dcb807eb0aceaa594482747d"),
    (20260808, "58e4bb0eb82532f5c3168673685e2cc046f52d3da487861a804ed181469de97e"),
])
def test_example_report_bytes_are_pinned(seed, digest):
    # the bytes of `verify scripts/example.cfg --format json --seed N`,
    # pinned the same way as the F_3 runs above
    text = emit_report(run_suites(parse_config(EXAMPLE.read_text()), seed=seed), "json")
    assert sum(r["cases"] for r in json.loads(text)) == 6232
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_lcg_fraction_grid_has_no_zero():
    # suites take rng.fraction() as a measure value with no zero fallback
    from fqharmonic.harness.rng import _FRACTIONS

    assert len(_FRACTIONS) == 6 and all(len(row) == 3 for row in _FRACTIONS)
    assert all(v != 0 for row in _FRACTIONS for v in row)
    gen = LCG(20260808)
    assert all(gen.fraction() != 0 for _ in range(1000))


def test_seed_changes_draws_not_validity():
    cfg = parse_config(MINIMAL)
    r1 = run_suites(cfg, seed=1)
    r2 = run_suites(cfg, seed=2)
    assert all(r.passed for r in r1 + r2)
    assert r1[0].seed != r2[0].seed


def test_exit_codes_and_formats(tmp_path):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(MINIMAL)
    out = tmp_path / "rep.json"
    code = cli_main(["verify", str(cfg_path), "--format", "json", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload and payload[0]["passed"]
    # a corrupted run fails with the violated identity in the record
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text(MINIMAL + "corrupt = measure\n")
    out2 = tmp_path / "rep2.json"
    code = cli_main(["verify", str(bad_cfg), "--format", "json", "--out", str(out2)])
    assert code == 1
    payload = json.loads(out2.read_text())
    assert payload[0]["failures"][0]["identity"] == "poisson1_characteristic_transform"


def test_csv_round_trip():
    fld = field_for(3)
    sp = FinSpace(fld, 2)
    f = Fn0.delta(sp, (1, 2)) * Fraction(5, 3)
    text = render_table(3, f.table, (-1, 1))
    q, dim, table, edges = parse_table(text, 3)
    assert (q, dim, edges) == (3, 2, (-1, 1)) and table == tuple(f.table)


def test_cli_transform_fourier0(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL)
    sp = FinSpace(field_for(2), 2)
    f = Fn0.delta(sp, (1, 0))
    src = tmp_path / "in.csv"
    src.write_text(render_table(2, f.table))
    mid = tmp_path / "mid.csv"
    assert cli_main(["transform", str(cfg_path), "--op", "fourier0", "--input", str(src), "--out", str(mid)]) == 0
    out = tmp_path / "out.csv"
    assert cli_main(["transform", str(cfg_path), "--op", "fourier0", "--input", str(mid), "--out", str(out)]) == 0
    _, _, table, edges = parse_table(out.read_text(), 2)
    assert edges is None
    assert table == tuple((f.check() * sp.size).table)


def test_cli_transform_fourier1(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL)
    one, zero = CycNum.one(2), CycNum.zero(2)
    src = tmp_path / "in.csv"
    src.write_text(render_table(2, (one, one, zero, zero), (-1, 1)))
    out = tmp_path / "out.csv"
    code = cli_main([
        "transform", str(cfg_path), "--op", "fourier1", "--input", str(src),
        "--out", str(out), "--model", "K", "--window=-1:1", "--measure", "1@0",
    ])
    assert code == 0
    assert "window=-1:1" in out.read_text()


# K2 is not fiberwise discrete, so delta0 is dumped on the half plane H2
PIN_MODELS = "\n[model K2]\nc2 = full\n\n[model H2]\nc2 = box * * -1 *\n"

# name: (command and its options, entries of the input table or None, sha256 of the CSV written)
CSV_PINS = {
    "fourier1_K": (["transform", "--op", "fourier1", "--model", "K", "--window=-2:1"], 8,
                   "3f4f81e6b29a11e175fce28137766413e18b10f1792c958a42d2eb95574c8a66"),
    "fourier1_O": (["transform", "--op", "fourier1", "--model", "O", "--window=-3:0", "--measure", "3/2@-1"], 8,
                   "16d310e42b8f35593747b63760fa630f2ab9f43e12a929a869ede5867d05f9c2"),
    "fourier2_K2": (["transform", "--op", "fourier2", "--model", "K2", "--biwindow=0:2,-1:1", "--basepoint", "1"],
                    16, "ddc449c43161be1c198fa5edf92338422fe76de71e5134928e1e1ecacc566a75"),
    "ones_K2": (["dump", "--model", "K2", "--window=0:2,-1:1", "--elem", "ones"], None,
                "1642097dc594e750bbe6e42052befcee95cb06f54dd725c051f9c4ff56e393f8"),
    "delta0_H2": (["dump", "--model", "H2", "--window=0:2,-1:1", "--elem", "delta0"], None,
                  "c2f59b21ab0ab62bb64f262bb87afeae9d7bb65e1ae82bda3aa08874a6f33d07"),
    "deltaF_K": (["dump", "--model", "K", "--window=-2:1", "--elem", "deltaF:-1"], None,
                 "d6a62ee7a875cc16bb8a850fa0546e89ff3966b7cb5bd09643690e0455dbf6d9"),
    "haar_K": (["dump", "--model", "K", "--window=-2:1", "--elem", "haar:3/2@-1"], None,
               "a9bfdcf861f96ded4512aa9cab4f7caaacc3acc079db316cc8002d981c717f54"),
    "point_K": (["dump", "--model", "K", "--window=-2:1", "--elem", "point:-1=1;0=1"], None,
                "4aab5dddca3f6eb4ef4e0aea10f316da1cba922ff3134959ea11bfb594aa4a18"),
}


@pytest.mark.parametrize("name", list(CSV_PINS))
def test_cli_csv_bytes_are_pinned(tmp_path, name):
    # the CSV of transform and dump stays byte for byte the same; the input
    # entries are distinct, so a change of slot order changes the bytes
    (cmd, *options), entries, digest = CSV_PINS[name]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + PIN_MODELS)
    if entries is not None:
        src = tmp_path / "in.csv"
        src.write_text(render_table(2, [CycNum.from_rational(2, Fraction(k + 1, 3)) for k in range(entries)]))
        options += ["--input", str(src)]
    out = tmp_path / "out.csv"
    assert cli_main([cmd, str(cfg_path), *options, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, out.read_text()


@pytest.mark.parametrize("cell,reason", [
    ("1/0", "zero denominator"),
    ("x/2", "not an integer"),
    ("1.5", "not an integer"),
])
def test_parse_table_rejects_bad_cells(cell, reason):
    text = f"2,1,enumeration=lex\n0,1/1\n1,{cell}\n"
    with pytest.raises(DomainError, match=f"line 3: row 1.*{reason}"):
        parse_table(text, 2)


def test_parse_table_rejects_bad_header():
    with pytest.raises(DomainError, match="line 1: dim"):
        parse_table("2,two,enumeration=lex\n0,1/1\n", 2)
    with pytest.raises(DomainError, match="row count"):
        parse_table("2,1000000000,enumeration=lex\n0,1/1\n", 2)


@pytest.mark.parametrize("line", ["window=-1:one", "window=-1:1,0:1", "biwindow=0:1", "window=0:1\nwindow=0:1"])
def test_parse_table_rejects_bad_context_lines(line):
    with pytest.raises(DomainError, match="line [12]: "):
        parse_table(f"{line}\n2,1,enumeration=lex\n0,1/1\n1,1/1\n", 2)


def _transform_exit(tmp_path, capsys, csv_text, *extra):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + "\n[model K2]\nc2 = full\n")
    src = tmp_path / "bad.csv"
    src.write_text(csv_text)
    code = cli_main([
        "transform", str(cfg_path), "--input", str(src), "--out", str(tmp_path / "out.csv"), *extra,
    ])
    err = capsys.readouterr().err
    assert "Traceback" not in err and not (tmp_path / "out.csv").exists()
    return code, err


def test_cli_transform_zero_denominator_exits_2(tmp_path, capsys):
    code, err = _transform_exit(
        tmp_path, capsys, "2,1,enumeration=lex\n0,1/1\n1,1/0\n", "--op", "fourier0"
    )
    assert code == 2 and "bad.csv" in err and "zero denominator" in err


@pytest.mark.parametrize("extra", [
    ("--op", "fourier1", "--model", "K", "--window=-1:1"),
    ("--op", "fourier2", "--model", "K2", "--biwindow=0:1,-1:1"),
    ("--op", "fourier1", "--model", "K", "--window=-1:one"),
])
def test_cli_transform_misfit_table_exits_2(tmp_path, capsys, extra):
    # a 3-dimensional table cannot sit on a 2-dimensional window
    one = CycNum.one(2)
    code, err = _transform_exit(tmp_path, capsys, render_table(2, (one,) * 8), *extra)
    assert code == 2 and "bad.csv" in err


@pytest.mark.parametrize("edges, entries, extra, expect", [
    # each table fits both windows by its length, so only its context line
    # tells them apart
    ((-1, 2), 8, ("--op", "fourier1", "--model", "K", "--window=5:8"),
     "the table is on window=-1:2, but fourier1 reads window=5:8"),
    ((0, 1, -1, 1), 4, ("--op", "fourier1", "--model", "K", "--window=0:2"),
     "the table is on biwindow=0:1,-1:1, but fourier1 reads window=0:2"),
    ((0, 2), 4, ("--op", "fourier2", "--model", "K2", "--biwindow=0:1,-1:1"),
     "the table is on window=0:2, but fourier2 reads biwindow=0:1,-1:1"),
])
def test_cli_transform_reads_the_window_of_its_input(tmp_path, capsys, edges, entries, extra, expect):
    one = CycNum.one(2)
    code, err = _transform_exit(tmp_path, capsys, render_table(2, (one,) * entries, edges), *extra)
    assert code == 2 and f"bad.csv: {expect}" in err


@pytest.mark.parametrize("op, model, window, expect", [
    ("fourier1", "K2", "--window=0:1", "fourier1 needs a one-dimensional model; 'K2'"),
    ("fourier2", "K", "--biwindow=0:1,0:1", "fourier2 needs a two-dimensional model; 'K'"),
    ("fourier1", "X", "--window=0:1", "unknown model 'X'"),
])
def test_cli_transform_wrong_model_dimension_exits_2(tmp_path, op, model, window, expect):
    # a model of the other dimension is named in the message, never a traceback
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + "\n[model K2]\nc2 = full\n")
    src = tmp_path / "in.csv"
    src.write_text(render_table(2, (CycNum.one(2), CycNum.zero(2))))
    out = subprocess.run(
        [sys.executable, "-m", "fqharmonic.harness.cli", "transform", str(cfg_path), "--op", op,
         "--model", model, window, "--input", str(src), "--out", str(tmp_path / "out.csv")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 2 and "Traceback" not in out.stderr, out.stderr
    assert expect in out.stderr and not (tmp_path / "out.csv").exists()


def test_cli_dump(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL)
    assert cli_main(["dump", str(cfg_path), "--model", "K", "--window=-1:1", "--elem", "deltaF:0"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("window=-1:1")
    q, dim, table, _ = parse_table(captured, 2)
    assert dim == 2 and table[0] == CycNum.one(2)


def test_cli_dump_biwindow(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + "\n[model K2]\nc2 = full\n")
    assert cli_main(["dump", str(cfg_path), "--model", "K2", "--window=0:1,-1:1", "--elem", "ones"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("biwindow=0:1,-1:1")
    q, dim, table, _ = parse_table(captured, 2)
    assert dim == 2 and all(c == CycNum.one(2) for c in table)


@pytest.mark.parametrize(
    "model, window", [("K", "--window=-40:40"), ("K", "--window=-6:7"), ("K2", "--window=0:4,-2:2")]
)
def test_cli_dump_over_table_cap_exits_2(tmp_path, capsys, model, window):
    # 2^80, 2^13 and 2^16 entries against the default table_cap of 4096
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + "\n[model K2]\nc2 = full\n")
    elem = "deltaF:0" if model == "K" else "ones"
    assert cli_main(["dump", str(cfg_path), "--model", model, window, "--elem", elem]) == 2
    captured = capsys.readouterr()
    assert "table_cap" in captured.err and captured.out == ""


def test_cli_wide_window_is_counted_not_listed(tmp_path, capsys, monkeypatch):
    # a window from the command line is refused by its slot count before
    # its slot labels (one per slot) are listed
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL)
    src = tmp_path / "in.csv"
    src.write_text(render_table(2, (CycNum.one(2),) * 8))

    def listed(model, w):
        raise AssertionError(f"slot labels listed for {w}")

    monkeypatch.setattr(c1, "positions", listed)
    wide = "--window=-1000000000:1000000000"
    dump = ["dump", str(cfg_path), "--model", "K", wide, "--elem", "deltaF:0"]
    transform = ["transform", str(cfg_path), "--op", "fourier1", "--model", "K", wide,
                 "--input", str(src), "--out", str(tmp_path / "out.csv")]
    for argv, expect in ((dump, "more than table_cap"), (transform, "does not match the window")):
        code = cli_main(argv)
        err = capsys.readouterr().err
        assert code == 2 and expect in err, err
    assert not (tmp_path / "out.csv").exists()


def test_bad_table_cap_is_the_only_error():
    # a malformed cap is reported once, not again as a cap every max_points exceeds
    bad = MINIMAL.replace("seed = 7", "table_cap = 1e4") + "max_points = 5000\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.errors == [(5, "bad integer '1e4'")]


def _verify_subprocess(cfg_path, *extra, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "fqharmonic.harness.cli", "verify", str(cfg_path), *extra],
        capture_output=True, text=True, timeout=timeout, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_verify_unknown_suite_name_exits_2(tmp_path):
    # a --suite that names no suite and no suite kind of the config runs nothing
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL)
    out = _verify_subprocess(cfg_path, "--suite", "nosuch", "--suite", "poisson1", "--format", "json")
    assert out.returncode == 2 and out.stdout == ""
    assert "'nosuch'" in out.stderr and "Traceback" not in out.stderr, out.stderr
    # a suite kind selects as well as a suite name
    named = MINIMAL.replace("[suite poisson1]", "[suite mine]")
    assert parse_config(named).suites[0].name == "mine"
    cfg_path.write_text(named)
    for name in ("mine", "poisson1"):
        out = _verify_subprocess(cfg_path, "--suite", name, "--format", "json")
        assert out.returncode == 0 and json.loads(out.stdout)[0]["suite"] == "mine"


TRIPLES_2D = """
[model K2]
c2 = full

[triple T2t]
mid = K2
outer_cut = 0

[triple T2u]
mid = K2
inner_cut = 0
"""


@pytest.mark.parametrize("kind, triple, expect", [
    ("poisson1", "T2t", "needs a C_1 triple"),
    ("poisson2_ii", "T", "identity II needs a C_2 triple"),
    ("poisson2_i", "T2u", "the twisted identity needs an outer-compact sub"),
    ("poisson2_ii", "T2t", "the twist-free identity needs a fiberwise compact sub"),
])
def test_suite_triple_its_identity_cannot_take(tmp_path, kind, triple, expect):
    # the registry states what a suite's triple must satisfy; a triple that
    # fails it is a config error at the triple line, never a traceback
    bad = MINIMAL + TRIPLES_2D + f"\n[suite x]\nrun = {kind}\ntriple = {triple}\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    ((ln, msg),) = exc.value.errors
    assert ln == len(bad.splitlines()) and expect in msg and f"{triple!r}" in msg
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    out = _verify_subprocess(cfg_path)
    assert out.returncode == 2 and out.stdout == ""
    assert f"c.cfg:{ln}: " in out.stderr and "Traceback" not in out.stderr, out.stderr
    # each suite still takes a triple its identity accepts
    good = {"poisson1": "T\ndeep_cut = 1", "poisson2_i": "T2t", "poisson2_ii": "T2u"}[kind]
    parse_config(MINIMAL + TRIPLES_2D + f"\n[suite x]\nrun = {kind}\ntriple = {good}\n")


MIXED_TRIPLES = """
[model K2]
c2 = full

[triple M2]
mid = K2
sub = O
quot = K

[triple M1]
mid = K
sub = K2
"""


@pytest.mark.parametrize("o", [1, -1])
def test_poisson2_i_runs_at_its_basepoint(monkeypatch, o):
    # the suite builds identity I's measures, and the corollary its measures
    # and lifts, at the basepoint; the measure fault fails every bi-window of
    # identity I and leaves the corollary passing
    sources = set()
    verify, char_dist = suites.poisson2_verify, suites.char_dist

    def verify_at(which, T, mu, nu, **sweep):
        sources.add((mu.src, nu.src, sweep["o"]))
        return verify(which, T, mu, nu, **sweep)

    def char_dist_at(T, mu, nu, bw):
        sources.add((mu.src, nu.src))
        return char_dist(T, mu, nu, bw)

    monkeypatch.setattr(suites, "poisson2_verify", verify_at)
    monkeypatch.setattr(suites, "char_dist", char_dist_at)
    for corrupt in ("", "corrupt = measure\n"):
        cfg = parse_config(MINIMAL + f"\n[suite x]\nrun = poisson2_i\nbasepoint = {o}\n{corrupt}")
        (rep,) = run_suites(cfg, only={"x"}, jobs=1)
        failed = [f["identity"] for f in rep.failures]
        assert rep.cases == 9 * 36 + 3
        assert failed == (["poisson2_I_characteristic_transform"] * 9 * 36 if corrupt else [])
    # the corollary's dual object sits at the mirrored basepoint
    assert sources == {(o, o, o), (o, o), (-o, -o)}


def test_triple_of_mixed_dimensions_is_refused_at_its_line(tmp_path):
    # a 2d middle with 1d members, and a 1d middle with a 2d sub: each is a
    # config error at the triple's line and exit 2, never a traceback
    bad = MINIMAL + MIXED_TRIPLES
    lines = bad.splitlines()
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.errors == [
        (lines.index("[triple M2]") + 1, "bad triple 'M2': triple members must be C2Models, not C1Model"),
        (lines.index("[triple M1]") + 1, "bad triple 'M1': triple members must be C1Models, not C2Model"),
    ]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    out = _verify_subprocess(cfg_path)
    assert out.returncode == 2 and out.stdout == ""
    assert "bad triple 'M2'" in out.stderr and "bad triple 'M1'" in out.stderr
    assert "Traceback" not in out.stderr, out.stderr
    # the two formats README documents: a 2d triple given by its sub and
    # quot, and a segment model
    good = MINIMAL + (
        "\n[model K2]\nc2 = full\n\n[model S]\nc2 = box * 0 * *\n\n[model Q]\nc2 = box 0 * * *\n"
        "\n[triple T2]\nmid = K2\nsub = S\nquot = Q\n\n[model G]\nc1 = segment -1 2\n"
    )
    cfg = parse_config(good)
    assert cfg.triples["T2"] == outer_cut_triple(k2_model(cfg.field), 0)
    assert cfg.models["G"] == c1.segment_model(cfg.field, -1, 2)


def test_poisson2_i_refuses_a_middle_its_corollary_cannot_act_on(tmp_path):
    # identity I takes the inner cut of a box middle, but the corollary's
    # monomial automorphisms do not preserve the box: a config error at the
    # triple line, exit 2, where the corollary used to die in a traceback
    box = "\n[model B]\nc2 = box -1 2 * *\n\n[triple TB]\nmid = B\ninner_cut = 0\n"
    bad = MINIMAL + box + "\n[suite x]\nrun = poisson2_i\ntriple = TB\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    ((ln, msg),) = exc.value.errors
    assert ln == len(bad.splitlines()) and "the monomial corollary needs a middle" in msg
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    out = _verify_subprocess(cfg_path)
    assert out.returncode == 2 and out.stdout == ""
    assert f"c.cfg:{ln}: " in out.stderr and "Traceback" not in out.stderr, out.stderr
    # a K2 middle whose sub reaches above the corollary's bi-window runs it
    # on the bi-window widened over both subs
    shifted = MINIMAL + TRIPLES_2D + "\n[triple T3]\nmid = K2\nouter_cut = 3\n"
    cfg = parse_config(shifted + "\n[suite x]\nrun = poisson2_i\ntriple = T3\ncut_lo = 0\ncut_hi = 0\n")
    (rep,) = run_suites(cfg, only=["x"])
    assert rep.passed and rep.cases > 3


@pytest.mark.parametrize("suite, key, expect", [
    ("run = poisson2_ii\ntriple = T2u\ncut_lo = 2\ncut_hi = -2", "cut_lo", "is above cut_hi = -2"),
    ("run = fourier1_delta\ni_lo = 1\ni_hi = 0", "i_lo", "is above i_hi = 0"),
    ("run = fubini_projection\ncases = 0", "cases", "nothing to check"),
    ("run = central_ext\nrep_cases = -1", "rep_cases", "nothing to check"),
    ("run = poisson2_i\nmax_points = 0", "max_points", "nothing to check"),
    ("run = poisson1\ncut_hi = -1", "cut_hi", "must not be negative"),
    ("run = poisson0\nmax_dim = -1", "max_dim", "max_dim = -1 leaves the suite nothing to check"),
    # F_4's 4^7 entries against the default table cap of 4096
    ("run = poisson0\nmax_dim = 7", "max_dim", "max_dim 7 makes tables of 4^7 entries, more than table cap 4096"),
    # a huge max_dim is refused by its size, its power never formed
    ("run = poisson0\nmax_dim = 10000000000000000000000", "max_dim", "more than table cap 4096"),
    # one end given: checked against the suite's default other end
    ("run = poisson2_ii\ntriple = T2u\ncut_lo = 3", "cut_lo", "cut_lo = 3 is above cut_hi = 2 (the default)"),
    ("run = fourier1_delta\ni_hi = -4", "i_hi", "i_hi = -4 is below i_lo = -3 (the default)"),
    ("run = poisson2_i\ncut_hi = -2", "cut_hi", "cut_hi = -2 is below cut_lo = -1 (the default)"),
])
def test_suite_left_nothing_to_check_exits_2(tmp_path, suite, key, expect):
    # a value that leaves a suite no case to run used to pass it as
    # "[ok] x: 0 cases": refused at the key's line, exit 2, no traceback
    bad = MINIMAL + TRIPLES_2D + f"\n[suite x]\n{suite}\n"
    lines = bad.splitlines()
    ln = max(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    ((got_ln, msg),) = exc.value.errors
    assert got_ln == ln and expect in msg
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    out = _verify_subprocess(cfg_path)
    assert out.returncode == 2 and out.stdout == ""
    assert f"c.cfg:{ln}: " in out.stderr and "Traceback" not in out.stderr, out.stderr


def test_malformed_range_end_is_not_compared_with_a_default():
    # a range end that is no integer is refused as such; the other end is
    # not then compared with the default the malformed one left in place
    bad = MINIMAL + "\n[suite x]\nrun = poisson2_ii\ncut_lo = abc\ncut_hi = -3\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.errors == [(len(bad.splitlines()) - 1, "bad integer 'abc'")]


def test_poisson1_triple_needs_the_deep_sweep(tmp_path):
    # poisson1 runs its config triple only in the deep_cut sweep, so a triple
    # without deep_cut would be ignored: refused at the triple line, exit 2
    bad = MINIMAL.replace("deep_cut = 1\n", "")
    ln = bad.splitlines().index("triple = T") + 1
    for text in (bad, bad.replace("cut_hi = 1", "deep_cut = 0\ncut_hi = 1")):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == [(ln, "poisson1 runs its triple only in the deep_cut sweep; set deep_cut")]
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    out = _verify_subprocess(cfg_path)
    assert out.returncode == 2 and out.stdout == ""
    assert f"c.cfg:{ln}: " in out.stderr and "Traceback" not in out.stderr, out.stderr
    # without a triple the suite runs its own default sweeps
    parse_config(bad.replace("triple = T\n", ""))


@pytest.mark.parametrize("spec", ["101,2,[2,0,1]", "1000000000000000003,1,[0,1]"])
def test_field_over_table_cap_is_refused_at_once(tmp_path, spec):
    # q x q field tables past table_cap are refused at the spec line, before
    # the field or its primality test runs; the subprocess bounds a hang
    bad = MINIMAL.replace("spec = 2,1,[0,1]", f"spec = {spec}")
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(bad)
    out = _verify_subprocess(cfg_path, timeout=10)
    assert out.returncode == 2 and out.stdout == "", out.stderr
    assert out.stderr.startswith(f"{cfg_path}:2: ") and "Traceback" not in out.stderr
    t0 = time.monotonic()
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert time.monotonic() - t0 < 1.0
    ((ln, msg),) = exc.value.errors
    assert ln == 2 and "table_cap = 4096" in msg


def test_field_table_cap_decides():
    f9 = MINIMAL.replace("spec = 2,1,[0,1]", "spec = 3,2,[1,0,1]")
    assert parse_config(f9.replace("seed = 7", "table_cap = 81")).field.q == 9
    with pytest.raises(ConfigError) as exc:
        parse_config(f9.replace("seed = 7", "table_cap = 80"))
    assert exc.value.errors == [(2, "the field has q^2 = 3^4 table entries, more than table_cap = 80")]


@pytest.mark.parametrize("run_line, elem, expect", [
    ("seed = abc", "deltaF:0", "c.cfg:5: bad integer 'abc'"),
    ("table_cap = 1e3", "deltaF:0", "c.cfg:5: bad integer '1e3'"),
    ("seed = 7", "deltaF:abc", "malformed spec 'deltaF:abc'"),
    ("seed = 7", "point:x=1", "malformed spec 'point:x=1'"),
    ("seed = 7", "point:1", "malformed spec 'point:1'"),
    # a point value is a field element index, never reduced mod q
    ("seed = 7", "point:0=7", "point value 7 at (0, 0) is not a field element index 0..1"),
    ("seed = 7", "point:0=2", "point value 2 at (0, 0) is not a field element index 0..1"),
    ("seed = 7", "point:0=-1", "point value -1 at (0, 0) is not a field element index 0..1"),
])
def test_cli_malformed_integers_exit_2(tmp_path, run_line, elem, expect):
    # a non-integer config value or element spec, or a point value outside
    # the field, is a typed error, never a traceback
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL.replace("seed = 7", run_line))
    out = subprocess.run(
        [sys.executable, "-m", "fqharmonic.harness.cli",
         "dump", str(cfg_path), "--model", "K", "--window=-1:1", "--elem", elem],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 2 and "Traceback" not in out.stderr, out.stderr
    assert expect in out.stderr and out.stdout == ""


def test_suite_registry_covers_expected_identities():
    covered = set()
    for _name, (_fn, tags) in SUITES.items():
        covered.update(tags)
    expected = {
        "psi_additive", "psi_nontrivial", "conj_involution",
        "cyc_commutative_ring", "conj_ring_hom", "field_axioms",
        "poisson0_subspace_transform",
        "fourier0_involution", "fourier0_selfadjoint", "image_adjointness0",
        "image_functoriality0", "base_change0", "fourier0_push_pull_squares",
        "fourier1_lattice_indicator", "fourier1_inversion",
        "fourier1_translation_twist", "fourier1_character_twist",
        "fourier1_dist_inversion", "fourier1_haar_to_point",
        "density_transform_compat", "density_module_rule", "haar_uniqueness",
        "hexagon_injectivity", "fourier1_measure_scaling",
        "poisson1_characteristic_transform",
        "fubini", "projection_formula_compact_support", "projection_formula_germ",
        "projection_formula_discrete", "density_pullback_compat",
        "density_pushforward_compat",
        "compose_epi_functions", "compose_epi_germs", "compose_epi_pullbacks",
        "compose_epi_distributions", "compose_mono_functions",
        "compose_mono_distributions",
        "base_change_push_pull", "base_change_dist_push_pull",
        "base_change_germ_square", "base_change_compact_square",
        "base_change_discrete_square", "base_change_double_square",
        "fourier_image_push_restrict", "fourier_image_restrict_push",
        "fourier_image_dist_squares", "fourier_image_germ_squares",
        "reindexing_invariance", "compact_support_profile", "support_detection",
        "vmeasure_associativity", "vmeasure_canonical_composition",
        "vmeasure_duality_scalars", "vmeasure_reference_stability",
        "fourier2_involution", "fourier2_adjoint", "fourier2_tag_exchange",
        "fourier2_lattice_block", "fourier2_basepoint_compat",
        "module_unit", "module_associativity", "module_pairing_compat",
        "images2_outer_adjointness", "images2_inner_adjointness",
        "characteristic_two_constructions", "profile_transform_exchange",
        "poisson2_II_characteristic_transform",
        "poisson2_I_characteristic_transform", "poisson2_I_monomial_corollary",
        "central_ext_group_law", "central_ext_inverse", "central_ext_kernel",
        "central_ext_commutator", "rep_homomorphism", "rep_module_compat",
        "rep_pairing_invariance", "fourier_intertwines_action",
        "base_change2_twisted", "base_change2_fiberwise", "base_change2_mixed",
        "composition2_epis", "composition2_monos",
        "fourier_image2_twisted_squares", "fourier_image2_fiberwise_squares",
        "domination_invariance", "basepoint_change_compat",
    }
    assert covered == expected


def test_default_config_parses_and_names_resolve():
    # scripts/example.cfg runs every suite kind, so the tests that run it
    # green over F_2 and F_4 cover every suite
    cfg = parse_config(EXAMPLE.read_text())
    kinds = {s.kind for s in cfg.suites}
    assert kinds == set(SUITES)


def test_traced_names_resolve():
    # perfbench/tracing.py patches these names through getattr; one that a
    # refactor deletes would only fail at trace time
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, name) for _l, mod, names, _m, _t in tracing.SPANS for name in names]
    targets += [(mod, name) for _l, mod, name in tracing.COUNTERS]
    assert len(targets) > 30
    for mod_name, name in targets:
        obj = importlib.import_module("fqharmonic." + mod_name)
        for part in name.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{name}"
    # perfbench/run.py reads the hit counts of the cached powers of zeta on
    # every pass
    assert callable(importlib.import_module("fqharmonic.exactnum")._zeta_pow_cached.cache_info)
