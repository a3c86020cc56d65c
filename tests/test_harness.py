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
from fqharmonic.dim0 import FinSpace, Fn0, fourier0
from fqharmonic.exactnum import CycNum, DomainError, field_for
from fqharmonic.harness.cli import main as cli_main
from fqharmonic.harness.config import ConfigError, parse_config
from fqharmonic.harness.csvio import parse_table, render_table
from fqharmonic.harness.report import emit_report
from fqharmonic.harness.rng import LCG
from fqharmonic.harness.suites import DEFAULT_CONFIG, SUITES, run_suites

SRC = Path(__file__).resolve().parents[1] / "src"

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
    text = render_table(3, f.table, window=(-1, 1))
    q, dim, table = parse_table(text, 3)
    assert (q, dim) == (3, 2) and table == tuple(f.table)


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
    _, _, table = parse_table(out.read_text(), 2)
    assert table == tuple((f.check() * sp.size).table)


def test_cli_transform_fourier1(tmp_path):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL)
    one, zero = CycNum.one(2), CycNum.zero(2)
    src = tmp_path / "in.csv"
    src.write_text(render_table(2, (one, one, zero, zero), window=(-1, 1)))
    out = tmp_path / "out.csv"
    code = cli_main([
        "transform", str(cfg_path), "--op", "fourier1", "--input", str(src),
        "--out", str(out), "--model", "K", "--window=-1:1", "--measure", "1@0",
    ])
    assert code == 0
    assert "window=-1:1" in out.read_text()


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
    q, dim, table = parse_table(captured, 2)
    assert dim == 2 and table[0] == CycNum.one(2)


def test_cli_dump_biwindow(tmp_path, capsys):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(MINIMAL + "\n[model K2]\nc2 = full\n")
    assert cli_main(["dump", str(cfg_path), "--model", "K2", "--window=0:1,-1:1", "--elem", "ones"]) == 0
    captured = capsys.readouterr().out
    assert captured.startswith("biwindow=0:1,-1:1")
    q, dim, table = parse_table(captured, 2)
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
])
def test_cli_malformed_integers_exit_2(tmp_path, run_line, elem, expect):
    # a non-integer config value or element spec is a typed error, never a traceback
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
    cfg = parse_config(DEFAULT_CONFIG)
    kinds = {s.kind for s in cfg.suites}
    assert kinds <= set(SUITES)


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
