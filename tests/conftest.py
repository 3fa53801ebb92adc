"""Shared fixtures."""

import dataclasses

import pytest

from bergmanlab import battery, checks

TIGHT_TRACE_TOL = 1e-21


@pytest.fixture()
def tight_trace_limit(monkeypatch):
    """Replace the trace-identity row of the limit table with a 1e-21 limit.

    Roundoff alone then breaks the identity, so a battery goes red without
    any change to the instances it draws.
    """
    old = checks.LIMIT_BY_METRIC["trace_error"]
    new = dataclasses.replace(old, constant=TIGHT_TRACE_TOL)

    def swap(limits):
        return tuple(new if lim is old else lim for lim in limits)

    monkeypatch.setattr(checks, "LIMITS", swap(checks.LIMITS))
    monkeypatch.setitem(checks.LIMIT_BY_METRIC, "trace_error", new)
    monkeypatch.setattr(battery, "BATTERY_LIMITS", swap(battery.BATTERY_LIMITS))
    return new
