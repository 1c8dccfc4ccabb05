import errno
import multiprocessing
import os

import pytest

import fishbone.hill
from fishbone.integrator import IntegratorConfig, make_initial, simulate
from fishbone.model import ModelSpec


@pytest.fixture(autouse=True)
def no_child_left():
    """Fails a test after which a child process (a threshold look-ahead, a
    ``_fan_out`` child, a simulate CSV writer) is still running; kills it
    first, so that the next test starts without it."""
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
def classify_calls(monkeypatch):
    """Modes passed to ``fishbone.hill.classify`` while the test runs."""
    calls = []
    real = fishbone.hill.classify

    def counting(mode):
        calls.append(mode)
        return real(mode)

    monkeypatch.setattr(fishbone.hill, "classify", counting)
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """Sets how many CPUs this process may run on: 2 turns the threshold
    look-ahead and the fan-outs on, 1 turns them off."""

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
