"""Peak memory counts only what happens inside a measured window."""

from __future__ import annotations

from perfbench.common import PeakRss, vm_hwm_mb

MB = 1024 * 1024


def _touch(n_mb: int) -> bytearray:
    block = bytearray(n_mb * MB)
    block[::4096] = b"x" * len(block[::4096])
    return block


def test_window_excludes_earlier_peak_and_sees_its_own():
    block = _touch(120)
    del block
    earlier_peak = vm_hwm_mb()
    rss = PeakRss()
    with rss.window():
        pass
    quiet = rss.mb
    assert quiet < earlier_peak - 100  # the earlier 120 MB is not counted
    with rss.window():
        block = _touch(60)
        del block
    assert rss.mb >= quiet + 50
