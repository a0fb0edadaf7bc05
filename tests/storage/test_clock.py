"""The makespan clock: overlap booking arithmetic on a scripted timer."""

from __future__ import annotations

import contextvars
import types

import pytest

from repro.storage import clock as clock_module
from repro.storage.clock import book_overlap, clock


@pytest.fixture()
def timer(monkeypatch):
    """A perf_counter that only moves when the test advances it."""
    now = [100.0]
    monkeypatch.setattr(
        clock_module, "time", types.SimpleNamespace(perf_counter=lambda: now[0])
    )

    def advance(seconds: float) -> None:
        now[0] += seconds

    return advance


def _fresh(scenario):
    """Run ``scenario`` in an empty context: nothing booked yet."""
    return contextvars.Context().run(scenario)


def test_region_reads_as_its_makespan(timer):
    def scenario():
        started = clock()
        timer(3.0)  # three 1 s units run in turn...
        book_overlap(started, [1.0, 1.0, 1.0], n_workers=2)
        return clock() - started  # ...on two workers: makespan 2 s

    assert _fresh(scenario) == pytest.approx(2.0)


def test_nested_region_is_counted_once(timer):
    def scenario():
        outer = clock()
        unit_a = clock()
        inner = clock()
        timer(2.0)  # unit A is itself two parallel 1 s units
        book_overlap(inner, [1.0, 1.0], n_workers=2)
        units = [clock() - unit_a]
        unit_b = clock()
        timer(1.0)
        units.append(clock() - unit_b)
        book_overlap(outer, units, n_workers=2)
        return units, clock() - outer

    units, elapsed = _fresh(scenario)
    assert units == pytest.approx([1.0, 1.0])
    assert elapsed == pytest.approx(1.0)


def test_single_unit_and_negative_overlap_book_nothing(timer):
    def scenario():
        started = clock()
        timer(1.0)
        book_overlap(started, [0.5], n_workers=4)
        book_overlap(started, [2.0, 2.0], n_workers=1)  # makespan > wall
        return clock() - started

    assert _fresh(scenario) == pytest.approx(1.0)


def test_booking_stays_in_its_context(timer):
    def booker():
        started = clock()
        timer(2.0)
        book_overlap(started, [1.0, 1.0], n_workers=2)
        return clock()

    def reader():
        return clock()

    booked_reading = _fresh(booker)
    assert _fresh(reader) == pytest.approx(booked_reading + 1.0)
