"""Shared fixtures: one full validation run serves every test that reads it."""

import time

import pytest

from diracbeams.validation import run_checks


@pytest.fixture(scope="session")
def validation_run():
    """(checks by name, all passed, wall seconds) of one full suite run."""
    t0 = time.perf_counter()
    checks, ok = run_checks(quick=False)
    elapsed = time.perf_counter() - t0
    return {c.name: c for c in checks}, ok, elapsed
