"""Fixtures shared by the test modules."""

import os

import pytest

from hyperwalk import simulator


@pytest.fixture
def fork_calls(monkeypatch):
    """The os.fork calls made during the test, one None each, on a host that
    offers two cores."""
    calls, fork = [], os.fork
    monkeypatch.setattr(simulator.os, "fork", lambda: calls.append(None) or fork())
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


@pytest.fixture
def forks(monkeypatch, fork_calls):
    """`fork_calls`, with the fork floors lowered to one walk and one
    walk-step, so that an ensemble of a few walks forks as a large one does."""
    monkeypatch.setattr(simulator, "FORK_MIN_WALKS", 1)
    monkeypatch.setattr(simulator, "FORK_MIN_WALK_STEPS", 1)
    return fork_calls
