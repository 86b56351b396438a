"""Scaling measured times to the reference host speed."""

from __future__ import annotations

import pytest

from perfbench import hostspeed
from perfbench.hostspeed import HostSpeed, REFERENCE_MS


def _speed(probes) -> HostSpeed:
    speed = HostSpeed()
    for start, ms in probes:
        speed.starts.append(start)
        speed.costs.append(ms / 1000.0)
    return speed


def test_slowdown_is_the_median_probe_near_the_measurement():
    slow = [(10.0 + k * 0.05, 2.0 * REFERENCE_MS) for k in range(10)]
    fast = [(20.0 + k * 0.05, REFERENCE_MS) for k in range(10)]
    speed = _speed(slow + fast)
    assert speed.slowdown(10.2, 10.3) == pytest.approx(2.0)
    assert speed.slowdown(20.2, 20.3) == pytest.approx(1.0)
    # Half a second at twice the reference's time is a quarter second
    # at the reference speed.
    assert speed.scaled(0.5, 10.1, 10.4) == pytest.approx(0.25)


def test_window_widens_until_it_holds_enough_probes():
    speed = _speed([(0.0, 3.0), (1.0, 3.0), (2.0, 3.0), (3.0, 1.0), (4.0, 1.0)])
    # Nothing within PAD_S of 2.5; the window doubles to take in all five.
    assert speed.slowdown(2.5, 2.5) * REFERENCE_MS == pytest.approx(3.0)


def test_no_probe_is_an_error():
    with pytest.raises(RuntimeError):
        HostSpeed().slowdown(0.0, 1.0)


def test_timed_probes_on_both_sides_and_scales():
    speed = HostSpeed()
    result, raw, scaled = speed.timed(lambda: 42)
    assert result == 42
    assert len(speed.costs) == 2 * hostspeed.BURST
    assert scaled == pytest.approx(raw / speed.slowdown(speed.starts[0], speed.starts[-1]))


def test_kernel_is_deterministic():
    assert hostspeed.kernel() == hostspeed.kernel()
