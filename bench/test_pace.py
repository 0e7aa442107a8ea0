"""Host-speed scaling of request latencies (``pace.Pacer``).

    python3 -m pytest bench/test_pace.py
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pace  # noqa: E402


def test_each_latency_scaled_by_the_reference_timings_around_it(monkeypatch):
    refs = iter([0.004, 0.012, 0.008])
    monkeypatch.setattr(pace, "time_reference", lambda: next(refs))
    latencies = [0.3, 0.1, 0.1, 0.05]
    pacer = pace.Pacer()
    for i, latency in enumerate(latencies):
        pacer.before(i)
        pacer.ran(latency)
    # sampled before request 0, before request 1 (0.3 s passed), and at the end
    assert [i for i, _ in pacer.samples] == [0, 1]
    scaled = pacer.scaled(latencies)
    assert [i for i, _ in pacer.samples] == [0, 1, 4]
    r = pace.REFERENCE_S
    assert scaled == pytest.approx([0.3 * r / 0.008, 0.1 * r / 0.010, 0.1 * r / 0.010, 0.05 * r / 0.010])


def test_reference_speed_leaves_latencies_unchanged(monkeypatch):
    monkeypatch.setattr(pace, "time_reference", lambda: pace.REFERENCE_S)
    pacer = pace.Pacer()
    pacer.before(0)
    pacer.ran(1.5)
    assert pacer.scaled([1.5]) == pytest.approx([1.5])
