"""The end-to-end runs complete with every check passing.

``scripts/poisson_windows.py`` sweeps both two-dimensional summation
identities over F_2 at ranges +-1, +-2 and +-3 under the default cap, and
uncapped at +-6 over F_2, F_3 and F_4, and ``verify scripts/example.cfg``
runs every suite of the bundled example config.  Each runs as its own
process, the way a user runs it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300, env=env)


def test_poisson_windows_certifies_every_sweep():
    out = run(str(SCRIPTS / "poisson_windows.py"))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    for identity in ("twist-free", "twisted"):
        for rng, count in ((1, 36), (2, 216), (3, 588)):
            prefix = f"[ok] {identity} range +-{rng}: {count} bi-windows"
            assert any(line.startswith(prefix) for line in lines), (prefix, out.stdout)
        for q in (2, 3, 4):
            prefix = f"[ok] {identity} range +-6 over F_{q} uncapped: 8281 bi-windows"
            assert any(line.startswith(prefix) for line in lines), (prefix, out.stdout)
    assert not any(line.startswith("[FAIL") for line in lines)


def test_verify_example_passes():
    out = run("-m", "fqharmonic.harness.cli", "verify", str(SCRIPTS / "example.cfg"), "--format", "text")
    assert out.returncode == 0, out.stderr
    assert "24 suites, 0 failing checks" in out.stdout
