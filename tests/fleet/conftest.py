"""Fleet-test fixtures: one prepared store on disk (worker processes
warm-start from it) and harness factories."""

from __future__ import annotations

import pytest

from repro.server import DatasetRegistry
from repro.service import ServiceConfig, TransitService

from tests.fleet.harness import FleetHarness
from tests.server.harness import ServerHarness

#: Same recipe as the server suite: flat kernel + distance table, so
#: fleet answers exercise the pruned query paths — and so a direct
#: in-process twin service is bitwise-comparable to fleet answers.
FLEET_CONFIG = ServiceConfig(
    num_threads=2,
    use_distance_table=True,
    transfer_fraction=0.25,
)


@pytest.fixture(scope="session")
def fleet_store(tmp_path_factory, oahu_tiny):
    """One prepared ``oahu`` artifact store shared by every fleet (the
    whole point: N worker processes over the same store directory)."""
    store = tmp_path_factory.mktemp("fleet-stores") / "oahu"
    TransitService(oahu_tiny, FLEET_CONFIG).save(store)
    return store


@pytest.fixture(scope="session")
def twin_service(fleet_store):
    """An in-process service loaded from the same store the workers
    serve — the oracle for bitwise-identity assertions."""
    return TransitService.load(fleet_store)


@pytest.fixture()
def make_fleet(fleet_store, tmp_path):
    """Factory for fleets torn down at test end."""
    fleets: list[FleetHarness] = []

    def _make(num_workers: int = 2, **kwargs) -> FleetHarness:
        fleet = FleetHarness(
            [fleet_store],
            num_workers,
            runtime_dir=tmp_path / f"fleet-{len(fleets)}",
            **kwargs,
        )
        fleets.append(fleet)
        return fleet

    yield _make
    for fleet in fleets:
        fleet.close()


@pytest.fixture(scope="module", params=["server", "gateway"])
def front(request, fleet_store, tmp_path_factory):
    """Each HTTP front over the ``oahu`` store: a worker
    (:class:`TransitServer`) and a one-worker fleet's gateway
    (:class:`FleetGateway`).  Yields the running front object; its
    ``port`` takes requests."""
    if request.param == "server":
        harness = ServerHarness(DatasetRegistry.from_stores([fleet_store]))
        yield harness.server
    else:
        harness = FleetHarness(
            [fleet_store], 1, runtime_dir=tmp_path_factory.mktemp("front")
        )
        yield harness.gateway
    harness.close()
