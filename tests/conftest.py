"""Shared fixtures."""

import dataclasses

import pytest

from bergmanlab import checks

TIGHT_TRACE_TOL = 1e-21


@pytest.fixture()
def tight_trace_limit(monkeypatch):
    """Replace the trace-identity row of the limit table with a 1e-21 limit.

    Roundoff alone then breaks the identity, so a battery goes red without
    any change to the instances it draws.
    """
    old = checks.limit("trace_error")
    new = dataclasses.replace(old, constant=TIGHT_TRACE_TOL)
    rows = tuple(new if lim is old else lim for lim in checks.LIMITS)
    monkeypatch.setattr(checks, "LIMITS", rows)
    return new
