"""Self-tests of the benchmark's host-speed probe.

    python3 -m pytest -q bench/test_calibrate.py
"""

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibrate import HISTORY, PROBES, SpeedLog  # noqa: E402


def test_factor_is_reference_over_mean_probe():
    log = SpeedLog()
    log.samples = [0.050] * 4 + [0.010] * HISTORY + [0.020] * HISTORY
    n = len(log.samples)
    assert log.mark() == n
    # a call with HISTORY probes or more inside rests on those alone
    assert log.factor(n - HISTORY) == pytest.approx(log.reference_s / 0.020)
    assert log.factor(0) == pytest.approx(log.reference_s * n / (0.2 + 0.030 * HISTORY))
    # fewer inside, or none: the HISTORY latest probes
    assert log.factor(n - 1) == pytest.approx(log.reference_s / 0.020)
    assert log.factor(n) == pytest.approx(log.reference_s / 0.020)
    log.samples = [0.010] * HISTORY + [0.030] * (HISTORY // 2)
    assert log.factor(len(log.samples)) == pytest.approx(log.reference_s / 0.020)
    assert SpeedLog().factor(0) == 1.0


def test_clock_leaves_out_probe_time():
    log = SpeedLog("memory")
    wall0, clock0 = time.perf_counter(), log.clock()
    log.sample()
    log.sample()
    wall, clock = time.perf_counter() - wall0, log.clock() - clock0
    assert log.mark() == 2
    assert log.paused >= sum(log.samples)
    assert clock == pytest.approx(wall - log.paused, abs=1e-3)


def test_running_probes_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    log = SpeedLog(every=0.02)
    with log.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert log.mark() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_every_probe_kind_runs():
    for make_probe, reference_s in PROBES.values():
        assert make_probe()() > 0.0 and reference_s > 0.0
