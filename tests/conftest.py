"""Shared fixtures.

Most scheduler/simulator tests run on a *small* configuration (4 channels
× 4 PEs, dependency distance 4) so that hand-checkable schedules stay
small; paper-shape tests use the published configurations.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

# The suite's golden/determinism tests compare reports byte for byte, so
# every test runs at the exact fidelity tier unless it opts in to the
# estimator explicitly (fidelity tests pass the tier as an argument,
# which always wins over the environment).
os.environ.setdefault("REPRO_FIDELITY", "exact")

from repro.config import ChasonConfig, HBMConfig, SerpensConfig
from repro.matrices import generators
from repro.pipeline.runner import PipelineRunner


class HookRunner:
    """A serving engine's runner that calls ``hook()`` on the stepping
    thread right before ``source`` next executes (at ``fidelity``, if
    given: a request, not its exact-tier audit).  A hook may submit,
    drain, shut down, sleep, or raise ``ReproError`` to fail the run.
    A shutdown in a hook emits the engine's final read-outs before the
    batch in flight is answered (``docs/serving.md``)."""

    def __init__(self):
        self._runner = PipelineRunner()
        self._hooks = {}

    def before(self, source, hook, fidelity=None):
        self._hooks[id(source), fidelity] = hook

    def analyze(self, source, spec, config, **kwargs):
        for tier in (kwargs.get("fidelity"), None):
            hook = self._hooks.pop((id(source), tier), None)
            if hook is not None:
                hook()
                break
        return self._runner.analyze(source, spec, config, **kwargs)


@pytest.fixture
def hooks() -> HookRunner:
    return HookRunner()


@pytest.fixture
def small_hbm() -> HBMConfig:
    return HBMConfig(total_channels=8)


@pytest.fixture
def small_serpens(small_hbm) -> SerpensConfig:
    return SerpensConfig(
        sparse_channels=4,
        pes_per_channel=4,
        accumulator_latency=4,
        column_window=64,
        row_window=256,
        hbm=small_hbm,
    )


@pytest.fixture
def small_chason(small_hbm) -> ChasonConfig:
    return ChasonConfig(
        sparse_channels=4,
        pes_per_channel=4,
        accumulator_latency=4,
        column_window=64,
        row_window=256,
        scug_size=4,
        hbm=small_hbm,
    )


@pytest.fixture
def paper_serpens() -> SerpensConfig:
    return SerpensConfig()


@pytest.fixture
def paper_chason() -> ChasonConfig:
    return ChasonConfig()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_matrix():
    """16x16, a handful of entries, fits one tile of the small config."""
    return generators.uniform_random(16, 16, 24, seed=7)


@pytest.fixture
def small_matrix():
    """200x180 uniform matrix spanning several column windows (W=64)."""
    return generators.uniform_random(200, 180, 900, seed=11)


@pytest.fixture
def skewed_matrix():
    """Power-law rows: the imbalanced case CrHCS targets."""
    return generators.power_law_rows(300, 300, 1500, alpha=1.6, seed=13)
