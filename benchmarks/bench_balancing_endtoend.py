"""Figure 1: the end-to-end balancing story on the streaming runtime.

Paper claims to reproduce: shifting flexible demand into the RES production
window reduces peak demand and imbalance and raises RES utilisation; the
system degrades gracefully when nodes are unreachable (fallback to the open
contract).
"""

from repro.experiments import run_balancing
from repro.experiments.balancing import ScenarioConfig


def test_balancing_endtoend(once):
    report = once(run_balancing, config=ScenarioConfig(seed=3))

    assert report.offers_scheduled == report.offers_submitted
    assert report.peak_demand_after < report.peak_demand_before
    assert report.imbalance_after < report.imbalance_before
    assert report.res_utilization_after > report.res_utilization_before


def test_balancing_with_node_outage(once):
    config = ScenarioConfig(
        seed=3,
        unreachable_prosumers=frozenset({"prosumer-0-0", "prosumer-1-3"}),
    )
    report = once(run_balancing, config=config)

    # the day still completes and still helps, despite undelivered schedules
    assert report.schedules_undelivered > 0
    assert report.imbalance_after < report.imbalance_before
