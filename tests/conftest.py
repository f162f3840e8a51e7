"""Suite-wide fixtures."""

import pytest

from repro.sim.trace import Tracer
from tests.oracle import all_heap_systems


@pytest.fixture
def all_heap():
    """``with all_heap(): ...`` builds every system inside the block on the
    all-heap reference scheduler (see :mod:`tests.oracle`) and fails the
    test if the block built none — the one way tests obtain a reference run,
    so a "product vs oracle" assertion cannot compare the product with
    itself."""
    return all_heap_systems


@pytest.fixture
def phases_of():
    """``phases_of(system, op_thunk)`` runs ``op_thunk()`` with a tracer
    bound to ``system``'s simulator and returns the op's span fold
    (:class:`~repro.sim.trace.OpAggregate`) — phases are recorded only as
    spans, so this is how a test reads one op's phase times."""
    def run(system, op_thunk):
        tracer = Tracer()
        tracer.bind(system.sim)
        system.sim.tracer = tracer
        op_thunk()
        (agg,) = tracer.aggregates.values()
        return agg
    return run
