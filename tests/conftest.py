import errno
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import fishbone.hill
from fishbone.integrator import IntegratorConfig, make_initial, simulate
from fishbone.model import ModelSpec


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test after which a child process (a threshold look-ahead, a
    ``_fork._fan_out`` child, a simulate CSV writer) is still running;
    kills it first, so that the next test starts without it."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
        child.join()
    if left:
        pytest.fail(f"child processes outlived the test: {left}")


@pytest.fixture(scope="session")
def run_standard():
    """Memoized standard runs (fixed RK4, h=1e-3), shared across tests.

    The integrator is bit-deterministic, so caching by parameters is safe.
    """
    cache = {}

    def run(variant, delta, sigma, onset_gain=100.0, t_end=200.0):
        key = (variant, delta, sigma, onset_gain, t_end)
        if key not in cache:
            spec = ModelSpec(variant, delta=delta)
            config = IntegratorConfig(t_end=t_end)
            cache[key] = simulate(spec, make_initial(sigma), config, onset_gain)
        return cache[key]

    return run


@pytest.fixture
def charted_energies(monkeypatch):
    """Energies ``fishbone.hill`` makes a mode of while the test runs: one
    a chart row, forced or not."""
    calls = []
    real = fishbone.hill.mode_from_energy

    def counting(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(fishbone.hill, "mode_from_energy", counting)
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs this process may run on: 2 turns every fork
    (``_fork._fork_context``) on, 1 turns them off."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


@pytest.fixture
def refused_forks(monkeypatch):
    """Makes every fork fail with EAGAIN, as where no process is left to
    spare; returns the pipe ends made meanwhile, to check they were closed."""

    def refuse(self):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    ctx = multiprocessing.get_context("fork")
    real_pipe, made = ctx.Pipe, []

    def pipe(*args, **kwargs):
        ends = real_pipe(*args, **kwargs)
        made.extend(ends)
        return ends

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", refuse)
    monkeypatch.setattr(ctx, "Pipe", pipe)
    return made


# Runs fishbone.cli.main(argv) on 2 CPUs with MODULE.NAME wrapped: in a
# child it sleeps until the child is killed, and its first call in this
# process waits until every child ignores SIGINT (10 s at most), then
# sends SIGINT to the whole process group, as Ctrl-C does
CTRL_C_SCRIPT = """
import importlib, multiprocessing, os, signal, sys, time
import fishbone.cli
os.sched_getaffinity = lambda pid: {0, 1}
here = os.getpid()
module, name = importlib.import_module(sys.argv[1]), sys.argv[2]
real = getattr(module, name)

def ignores_sigint(pid):
    with open(f"/proc/{pid}/status") as fh:
        mask = next(line.split()[1] for line in fh if line.startswith("SigIgn:"))
    return int(mask, 16) >> (signal.SIGINT - 1) & 1

def interrupting(*args, **kwargs):
    if os.getpid() == here:
        children = multiprocessing.active_children()
        assert children, "no child is up"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if all(ignores_sigint(child.pid) for child in children):
                break
            time.sleep(0.01)
        # this process takes its SIGINT half a second late, so that a child
        # that does not ignore it has the time to report it
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        os.killpg(0, signal.SIGINT)
        for child in children:
            child.join(0.5)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    time.sleep(60)
    return real(*args, **kwargs)

setattr(module, name, interrupting)
sys.exit(fishbone.cli.main(sys.argv[3:]))
"""


@pytest.fixture
def ctrl_c(tmp_path):
    """Runs ``fishbone.cli.main(argv)`` in a script in a session of its
    own, interrupted (``CTRL_C_SCRIPT``) in the first call of ``target``
    (a 'module.name') in the parent; returns its exit code and stderr, and
    fails the test if a process of its group outlived it."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("reads /proc")
    script = tmp_path / "ctrl_c.py"
    script.write_text(CTRL_C_SCRIPT)
    env = dict(os.environ, PYTHONPATH=str(Path(fishbone.hill.__file__).parents[1]))

    def run(target, *argv):
        proc = subprocess.Popen([sys.executable, str(script), *target.rsplit(".", 1), *argv],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                                env=env, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("still running 60 s after the interrupt")
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group is empty
            return proc.returncode, err
        pytest.fail(f"a process of the group outlived the parent; stderr: {err}")

    return run
