"""Suites fanned out over forked workers report what one process reports.

``fan_out`` runs tasks on forked workers and returns their results in task
order, re-raising the first exception in task order.  Run with one worker
and with two, ``verify``'s JSON bytes must be equal, negative controls must
fail alike, and no child may be left behind.  Two tasks that wait for each
other (``meet``) run in two processes, which puts one of them in a child
whatever the order of the claims.
"""

import os
import select
import threading
import time
from pathlib import Path

import pytest

from fqharmonic.exactnum import DomainError
from fqharmonic.harness import fanout
from fqharmonic.harness.config import parse_config
from fqharmonic.harness.report import Report, emit_report
from fqharmonic.harness.suites import SUITES, run_suites
from test_harness import F3_IMAGES

EXAMPLE = (Path(__file__).resolve().parents[1] / "scripts" / "example.cfg").read_text()

# the negative controls of scripts/example.cfg's suites, one corrupt key each
CORRUPTED = {
    "[suite psi_character]\n": "corrupt = psi\n",
    "[suite poisson1]\n": "corrupt = transition\n",
    "[suite poisson2_ii]\n": "corrupt = transition\n",
    "[suite poisson2_i]\n": "corrupt = measure\n",
}


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The number of forks made, counted through a wrapped ``os.fork``."""
    assert threading.active_count() == 1, "fan_out forks only from a single-threaded process"
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


@pytest.fixture
def meet():
    """meet(role) for roles 0 and 1 returns once the other role's task has
    started too; it fails after 30 s."""
    a, b = os.pipe(), os.pipe()

    def wait(role):
        mine, theirs = (a, b) if role == 0 else (b, a)
        os.write(mine[1], b"x")
        ready, _, _ = select.select([theirs[0]], [], [], 30)
        assert ready, "the other task never started"
        os.read(theirs[0], 1)

    yield wait
    for fd in (*a, *b):
        os.close(fd)


@pytest.mark.parametrize("text, seed", [(EXAMPLE, 5), (EXAMPLE, 20260808), (F3_IMAGES, None)])
def test_json_bytes_do_not_depend_on_jobs(text, seed, forks):
    cfg = parse_config(text)
    one = emit_report(run_suites(cfg, seed=seed, jobs=1), "json")
    assert forks[0] == 0
    no_child_left()
    two = emit_report(run_suites(cfg, seed=seed, jobs=2), "json")
    assert forks[0] == 1
    no_child_left()
    assert one == two


def test_negative_controls_fail_alike(forks):
    text = EXAMPLE
    for section, line in CORRUPTED.items():
        kind = section[len("[suite "):-2]
        text = text.replace(section + f"run = {kind}\n", section + f"run = {kind}\n" + line)
    cfg = parse_config(text)
    assert sum(s.corrupt is not None for s in cfg.suites) == len(CORRUPTED)
    reports = {jobs: run_suites(cfg, jobs=jobs) for jobs in (1, 2)}
    assert forks[0] == 1
    no_child_left()
    for reps in reports.values():
        failing = {r.name for r in reps if not r.passed}
        assert failing == {s.name for s in cfg.suites if s.corrupt}
    assert emit_report(reports[1], "json") == emit_report(reports[2], "json")


def _raising(kind, when=lambda: True):
    """A suite of this kind that raises DomainError naming it when ``when()``."""
    _fn, tags = SUITES[kind]

    def run(ctx):
        if when():
            raise DomainError(f"{kind} refused its input in process {os.getpid()}")
        return Report(kind, list(tags))

    return run, tags


def test_a_suite_that_raises_in_a_child_raises_in_the_parent(monkeypatch, forks, meet):
    parent = os.getpid()
    in_child = lambda: os.getpid() != parent  # noqa: E731
    for role, kind in enumerate(("psi_character", "cyc_ring")):
        fn, tags = _raising(kind, in_child)
        monkeypatch.setitem(SUITES, kind, (lambda ctx, fn=fn, role=role: (meet(role), fn(ctx))[1], tags))
    cfg = parse_config(EXAMPLE)
    with pytest.raises(DomainError, match="refused its input") as exc:
        run_suites(cfg, jobs=2)
    assert f"in process {parent}" not in str(exc.value)
    assert forks[0] == 1
    no_child_left()


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_earliest_failing_suite_wins(monkeypatch, forks, jobs):
    for kind in ("cyc_ring", "poisson0", "dominate2"):
        monkeypatch.setitem(SUITES, kind, _raising(kind))
    with pytest.raises(DomainError, match="^cyc_ring refused"):
        run_suites(parse_config(EXAMPLE), jobs=jobs)
    assert forks[0] == jobs - 1
    no_child_left()


def test_no_more_forks_than_tasks_and_none_for_one_job(forks):
    tasks = [lambda i=i: (i, os.getpid()) for i in range(3)]
    assert [i for i, _pid in fanout.fan_out(tasks, jobs=64)] == [0, 1, 2]
    assert forks[0] == 2
    no_child_left()
    assert fanout.fan_out(tasks, jobs=1) == [(i, os.getpid()) for i in range(3)]
    assert fanout.fan_out(tasks[:1], jobs=2) == [(0, os.getpid())]
    assert forks[0] == 2
    with pytest.raises(ValueError, match="at least 1"):
        fanout.fan_out(tasks, jobs=0)


def test_more_workers_than_cpus_claim_each_task_once(forks):
    # every task reports its index on a side pipe: a lost or doubled claim shows
    r, w = os.pipe()
    try:
        tasks = [lambda i=i: os.write(w, bytes([i])) for i in range(200)]
        t0 = time.monotonic()
        assert fanout.fan_out(tasks, jobs=4) == [1] * 200
        assert time.monotonic() - t0 < 60
        assert sorted(os.read(r, 4096)) == list(range(200))
    finally:
        os.close(r)
        os.close(w)
    assert forks[0] == 3
    no_child_left()


def test_no_task_after_a_failing_one_starts_in_one_process():
    ran = []

    def task(i):
        ran.append(i)
        if i == 1:
            raise DomainError("task 1")
        return i

    with pytest.raises(DomainError, match="task 1"):
        fanout.fan_out([lambda i=i: task(i) for i in range(4)], jobs=1)
    assert ran == [0, 1]


def test_an_interrupted_parent_kills_its_children(forks, meet):
    parent = os.getpid()

    def task(role):
        meet(role)
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        fanout.fan_out([lambda: task(0), lambda: task(1)], jobs=2)
    assert time.monotonic() - t0 < 30
    assert forks[0] == 1
    no_child_left()


def test_a_child_that_dies_is_an_error(forks, meet):
    parent = os.getpid()

    def task(role):
        meet(role)
        if os.getpid() != parent:
            os._exit(3)
        return role

    with pytest.raises(ChildProcessError, match="exit code"):
        fanout.fan_out([lambda: task(0), lambda: task(1)], jobs=2)
    no_child_left()
