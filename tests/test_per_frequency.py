"""Per-frequency LAPACK calls split into contiguous frequency slices across cores."""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import random_model
from svarpg import spectral
from svarpg.model import check_stability
from svarpg.simulate import simulate
from svarpg.spectral import _in_slices, _per_frequency, spectral_density

SRC = str(Path(spectral.__file__).resolve().parents[1])


class CountedThread(threading.Thread):
    """threading.Thread that counts the threads started through it."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.fixture
def three_cores(monkeypatch):
    """Every batch of two or more frequencies split over three cores; counts the helpers."""
    monkeypatch.setattr(spectral, "_PARALLEL_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(CountedThread, "started", 0)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    return CountedThread


def _stack(n: int, d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng([seed, n, d])
    return rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)) + 2.0 * np.eye(d)


def _dense_model(n: int = 20):
    """Random stable model whose spectra and loop radius are large enough to be split."""
    names = tuple(f"P{i}" for i in range(n))
    edges = tuple((names[i], names[(i + k) % n]) for i in range(n) for k in (1, 3))
    return random_model(np.random.default_rng(14), names, (), edges, order=2)


@pytest.mark.parametrize("n", [1, 2, 3, 129, 257, 2049])
def test_slices_are_bit_identical_to_the_direct_call(three_cores, n):
    a = _stack(n, 5)
    rhs = _stack(n, 5, seed=1)[:, :, :2]
    diag = np.broadcast_to(np.diag(np.arange(1.0, 6.0)), a.shape)
    assert np.array_equal(_per_frequency(np.linalg.solve, a, rhs), np.linalg.solve(a, rhs))
    assert np.array_equal(_per_frequency(np.linalg.solve, a, diag), np.linalg.solve(a, diag))
    assert np.array_equal(_per_frequency(np.linalg.eigvals, a), np.linalg.eigvals(a))
    assert three_cores.started == 3 * (min(n, 3) - 1)


def test_an_r40_sized_stack_is_bit_identical_at_the_default_cutoff():
    a = _stack(129, 42)
    assert np.array_equal(_per_frequency(np.linalg.eigvals, a), np.linalg.eigvals(a))
    b = np.broadcast_to(np.eye(42), a.shape)
    assert np.array_equal(_per_frequency(np.linalg.solve, a, b), np.linalg.solve(a, b))


def test_the_earliest_failing_slice_is_raised_after_every_helper_joined(three_cores):
    a = np.arange(9.0)[:, None, None] * np.ones((1, 2, 2))

    def fail_after_the_first_slice(x):
        if x[0, 0, 0] > 0:
            raise ValueError(f"slice from {x[0, 0, 0]:.0f}")
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match="slice from 3"):
        _per_frequency(fail_after_the_first_slice, a)
    assert three_cores.started == 2
    assert threading.active_count() == before


def test_slices_cover_the_range_in_order(three_cores):
    assert _in_slices(10, 10, lambda lo, hi: (lo, hi)) == [(0, 3), (3, 6), (6, 10)]
    assert _in_slices(2, 10, lambda lo, hi: (lo, hi)) == [(0, 1), (1, 2)]
    assert _in_slices(10, 1, lambda lo, hi: (lo, hi)) == [(0, 10)]
    assert three_cores.started == 3


def test_a_helper_slice_exception_reaches_the_caller(three_cores):
    def fail_in_the_last_slice(lo, hi):
        if hi == 9:
            raise KeyError(lo)
        return lo

    before = threading.active_count()
    with pytest.raises(KeyError, match="6"):
        _in_slices(9, 9, fail_in_the_last_slice)
    assert three_cores.started == 2
    assert threading.active_count() == before


def test_small_batches_start_no_thread(monkeypatch, graph_c):
    def no_thread(*args, **kwargs):
        raise AssertionError("a batch below the cutoff started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    d = 4
    n = 2 * spectral._PARALLEL_WORK // d**3 - 1
    a = _stack(n, d)
    assert np.array_equal(_per_frequency(np.linalg.eigvals, a), np.linalg.eigvals(a))
    spectral_density(graph_c, 256)
    check_stability(graph_c)
    simulate(graph_c, 2 * spectral._PARALLEL_WORK // graph_c.n_processes - 1024, burn_in=1023)


def _repeat_in_child(m, queue) -> None:
    queue.put((spectral_density(m, 512).values, check_stability(m).loop_spectral_radius))


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork")
def test_a_forked_child_repeats_the_split_results():
    m = _dense_model()
    s, rho = spectral_density(m, 512).values, check_stability(m).loop_spectral_radius
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_repeat_in_child, args=(m, queue))
    child.start()
    try:
        child_s, child_rho = queue.get(timeout=10)
    finally:
        child.kill()
        child.join(timeout=10)
    assert not child.is_alive()
    assert np.array_equal(child_s, s)
    assert child_rho == rho


ONE_CORE_CHILD = textwrap.dedent(
    """
    import hashlib, os, sys, threading

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    threading.Thread = Counted
    from svarpg.model import check_stability, parse_model
    from svarpg.spectral import spectral_density

    m = parse_model(sys.stdin.read())
    s = spectral_density(m, 512).values
    print(hashlib.sha256(s.tobytes()).hexdigest(), repr(check_stability(m).loop_spectral_radius), len(started))
    """
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_one_core_gives_the_same_bytes_on_the_callers_thread():
    m = _dense_model()
    s, rho = spectral_density(m, 512).values, check_stability(m).loop_spectral_radius
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", ONE_CORE_CHILD], input=m.to_json(), env=env,
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout.split()
    assert out == [hashlib.sha256(s.tobytes()).hexdigest(), repr(rho), "0"]
