#!/usr/bin/env python3
"""Quickstart: one LEDMS node through the `repro.api` front door.

Starts a BRP node behind the :class:`~repro.api.LedmsClient` facade,
streams a morning of Poisson flex-offer traffic through it, watches plans
commit via a lifecycle hook, submits/updates/withdraws offers through a
prosumer session, and finally rebuilds the node from its event ledger — the
same request/response surface a deployed MIRABEL node would expose.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

from repro.api import (
    IngestConfig,
    LedmsClient,
    OfferLedger,
    SchedulingConfig,
    ServiceConfig,
    build_trigger,
)
from repro.core import flex_offer
from repro.runtime import LoadGenerator


def main() -> None:
    # --- 1. configure and open the node --------------------------------
    config = ServiceConfig(
        ingest=IngestConfig(batch_size=32),
        scheduling=SchedulingConfig(
            horizon_slices=192,
            scheduler_passes=2,
            trigger=build_trigger(
                [
                    {"kind": "count", "threshold": 100},
                    {"kind": "age", "max_age_slices": 8},
                ]
            ),
        ),
    )
    # The ledger journals every submit/update/withdraw; in memory here, a
    # deployed node passes OfferLedger(JsonlEventLog("ledger/")).
    client = LedmsClient(config, ledger=OfferLedger())

    @client.on_plan_committed
    def report_plan(plan) -> None:
        print(
            f"  plan @ t={plan.at:6.1f}: {plan.aggregates} aggregates, "
            f"cost {plan.cost:,.1f} EUR"
        )

    # --- 2. stream half a day of Poisson traffic ------------------------
    generator = LoadGenerator(rate_per_hour=60, seed=7)
    report = client.run_stream(generator.stream(0, 48), 48)
    print(
        f"streamed {report.offers_accepted} offers -> "
        f"{report.offers_scheduled} scheduled "
        f"({report.offers_per_second:.0f} offers/sec wall)"
    )

    # --- 3. request/response: submit, inspect, update, withdraw ---------
    session = client.session("prosumer-42")
    result = session.submit(
        flex_offer([(0.5, 1.5)] * 8, earliest_start=60, latest_start=84)
    )
    print(f"submitted offer {result.offer_id}: accepted={result.accepted}")

    revised = flex_offer(
        [(0.5, 2.0)] * 8, earliest_start=64, latest_start=84,
        offer_id=result.offer_id,
    )
    session.update(revised)
    plan = client.schedule_now()
    view = client.query_offer(result.offer_id)
    print(
        f"offer {view.offer_id}: state={view.state} "
        f"committed_start={view.committed_start} (plan cost {plan.cost:,.1f})"
    )
    session.withdraw(result.offer_id)
    print(f"after withdraw: state={client.query_offer(result.offer_id).state}")

    # --- 4. restart: re-execute the journaled inputs onto a fresh node ---
    # (a deployed node passes the ledger directory instead of the log)
    resumed = LedmsClient.resume_from_ledger(client.ledger.log, config)
    print(
        f"resumed node at t={resumed.now:g} with {resumed.live_offers} live "
        f"offers ({resumed.last_replay.events} facts, "
        f"{resumed.last_replay.mode})"
    )
    resumed.schedule_now()
    print(f"metrics: {int(resumed.metrics()['schedule.runs'])} scheduling runs")


if __name__ == "__main__":
    main()
