"""The CrHCS build and walk tests again, on the NumPy build and the
Python walk.

Where a C compiler is at hand, ``pe_aware_elements`` builds each tile's
table and ``migrate_elements`` runs its index and ring walk on the
compiled kernels (:mod:`repro.scheduling.walk_kernel`), so the tests
imported below exercise the kernels in their own modules.  Here a
fixture removes both loaded kernels, and pytest collects the same tests
once more: the legacy differentials of both schemes, the sort-free build
check, the walk-work counters and the hand-built migration cases also
pin the NumPy build and the Python walk, the only path on hosts without
a compiler."""

import pytest

from repro.scheduling import walk_kernel

from tests.test_crhcs_internals import TestMigrateGrids  # noqa: F401
from tests.test_differential_legacy import (  # noqa: F401
    test_all_migrate_regime_matches_legacy,
    test_coordinates_past_16_bits_match_legacy,
    test_crhcs_matches_legacy,
    test_empty_and_one_element_tiles_match_legacy,
    test_jump_in_a_nonempty_destination_with_span_2_matches_legacy,
    test_jump_in_an_empty_destination_matches_legacy,
    test_migrate_grids_matches_legacy_walk,
    test_pe_aware_matches_legacy,
    test_shuffled_coo_with_repeated_coordinates_matches_legacy,
    test_steal_tries_beyond_the_donor_queue_matches_legacy,
    test_tables_holding_foreign_elements_match_legacy,
)
from tests.test_grid_values import (  # noqa: F401
    test_a_cold_crhcs_build_sorts_without_lexsort_or_unique,
)
from tests.test_telemetry import TestMigrationCounters  # noqa: F401


@pytest.fixture(scope="module", autouse=True)
def numpy_build_and_python_walk():
    """Every test of this module runs without the kernels.  Module
    scope: the hypothesis test draws many examples under one fixture."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk_kernel, "compiled_build", lambda: None)
        patch.setattr(walk_kernel, "compiled_walk", lambda: None)
        assert walk_kernel.backend() == "python"
        yield
