"""The CrHCS walk tests again, on the Python walk.

Where a C compiler is at hand, ``migrate_elements`` runs its ring walk on
the compiled kernel (:mod:`repro.scheduling.walk_kernel`), so the tests
imported below exercise the kernel in their own modules.  Here a fixture
removes the loaded kernel, and pytest collects the same tests once more:
the legacy differentials, the walk-work counters and the hand-built
migration cases also pin the Python walk, the only walk on hosts without
a compiler."""

import pytest

from repro.scheduling import walk_kernel

from tests.test_crhcs_internals import TestMigrateGrids  # noqa: F401
from tests.test_differential_legacy import (  # noqa: F401
    test_coordinates_past_16_bits_match_legacy,
    test_empty_and_one_element_tiles_match_legacy,
    test_jump_in_a_nonempty_destination_with_span_2_matches_legacy,
    test_jump_in_an_empty_destination_matches_legacy,
    test_migrate_grids_matches_legacy_walk,
    test_steal_tries_beyond_the_donor_queue_matches_legacy,
    test_tables_holding_foreign_elements_match_legacy,
)
from tests.test_telemetry import TestMigrationCounters  # noqa: F401


@pytest.fixture(scope="module", autouse=True)
def python_walk():
    """Every test of this module runs without the kernel.  Module scope:
    the hypothesis test draws many examples under one fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk_kernel, "compiled_walk", lambda: None)
        assert walk_kernel.backend() == "python"
        yield
