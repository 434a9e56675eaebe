"""Shared fixtures: one run per bundled scenario, reused across tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from stormctl.simulation import SimTrace, preset, run


@pytest.fixture(scope="session")
def normal_trace() -> SimTrace:
    return run(preset("normal"))


@pytest.fixture(scope="session")
def loop_trace() -> SimTrace:
    return run(preset("loop-storm"))


@pytest.fixture(scope="session")
def loop_trace_unprotected() -> SimTrace:
    return run(preset("loop-storm", agents=False))


@pytest.fixture(scope="session")
def smurf_trace() -> SimTrace:
    return run(preset("smurf"))


@pytest.fixture(scope="session")
def faulty_trace() -> SimTrace:
    return run(preset("faulty-nic"))


@pytest.fixture(scope="session")
def table5_trace() -> SimTrace:
    return run(preset("table5-control"))


@pytest.fixture(scope="session")
def table5_trace_unprotected() -> SimTrace:
    return run(preset("table5-control", agents=False))


# Tier 1 runs Hypothesis's default profile, at the example counts the
# tests name.  `--hypothesis-profile=soak` runs every property whose count
# comes from `tests/oracles.oracle_examples` at 3000 examples instead: the
# ones checked against `reference_run`, and the growth fit's contract.
settings.register_profile("soak", max_examples=3000)
