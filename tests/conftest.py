"""Suite-wide fixtures."""

import pytest

from tests.oracle import all_heap_systems


@pytest.fixture
def all_heap():
    """``with all_heap(): ...`` builds every system inside the block on the
    all-heap reference scheduler (see :mod:`tests.oracle`) and fails the
    test if the block built none — the one way tests obtain a reference run,
    so a "product vs oracle" assertion cannot compare the product with
    itself."""
    return all_heap_systems
