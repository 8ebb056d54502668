"""The runtime's name tables and the composed service configuration.

Each set of names a caller picks by string is a plain table in the layer
that reads it: trigger kinds (``runtime/triggers.py``, read by
``build_trigger``), time drivers (``runtime/drivers.py``) and metrics
exporters (``obs/export.py``), both read by the CLI, and pipeline engines
(``aggregation/pipeline.py``, read by ``make_pipeline``).  The runtime
itself has one aggregation engine, so its configuration names none.
"""

import json
import math

import pytest

from repro.__main__ import _print_catalogue
from repro.aggregation.engine import PackedAggregationPipeline
from repro.aggregation.pipeline import ENGINES, AggregationPipeline, make_pipeline
from repro.aggregation.reference import ReferenceAggregator
from repro.aggregation.thresholds import AggregationParameters
from repro.api import (
    AggregationConfig,
    BusConfig,
    IngestConfig,
    MarketConfig,
    SchedulingConfig,
    ServiceConfig,
    SimulatedDriver,
    TsoConfig,
    WallClockDriver,
    build_trigger,
)
from repro.core.errors import AggregationError, ServiceError, choose
from repro.obs.export import EXPORTERS, render_metrics_text
from repro.runtime.drivers import DRIVERS
from repro.runtime.triggers import (
    TRIGGERS,
    AdaptiveTrigger,
    AnyTrigger,
    CountTrigger,
)

PARAMS = AggregationParameters(
    start_after_tolerance=8, time_flexibility_tolerance=8, name="test"
)

#: kind -> its table, as the CLI's --list prints them.
TABLES = {
    "aggregation": ENGINES,
    "driver": DRIVERS,
    "exporter": EXPORTERS,
    "trigger": TRIGGERS,
}


class TestRegistry:
    def test_builtin_catalogue(self):
        assert sorted(ENGINES) == ["packed", "reference", "scalar"]
        assert sorted(TRIGGERS) == ["age", "any", "count", "imbalance"]
        assert sorted(DRIVERS) == ["simulated", "wallclock"]
        assert sorted(EXPORTERS) == ["json", "prometheus", "text"]
        # The scheduler is not a choice: the runtime always plans with the
        # greedy, and the EA and the MILP oracle are imported directly by
        # the experiments that compare them.  One consumer is not a
        # table: the fault transforms are plain functions.
        assert sum(len(table) for table in TABLES.values()) == 12
        for table in TABLES.values():
            for factory, description in table.values():
                assert callable(factory) and description

    def test_unknown_name_error_lists_known_set(self):
        for kind, table in TABLES.items():
            with pytest.raises(ServiceError) as excinfo:
                choose(table, kind, "bogus")
            assert str(excinfo.value) == (
                f"unknown {kind} 'bogus'; known {kind} names: "
                + ", ".join(sorted(table))
            )
        with pytest.raises(AggregationError) as excinfo:
            make_pipeline(PARAMS, engine="bogus")  # replint: ignore[REP003]
        assert str(excinfo.value).endswith(
            "known aggregation names: packed, reference, scalar"
        )

    def test_factories_build_their_classes(self):
        assert isinstance(
            make_pipeline(PARAMS, engine="packed"), PackedAggregationPipeline
        )
        scalar = make_pipeline(PARAMS, engine="scalar")
        assert type(scalar) is AggregationPipeline
        assert type(scalar.aggregator) is not ReferenceAggregator
        reference = make_pipeline(PARAMS, engine="reference")
        assert isinstance(reference.aggregator, ReferenceAggregator)
        assert isinstance(
            choose(TRIGGERS, "trigger", "count")(threshold=3), CountTrigger
        )
        assert isinstance(choose(DRIVERS, "driver", "simulated")(), SimulatedDriver)
        assert choose(DRIVERS, "driver", "wallclock") is WallClockDriver
        assert choose(EXPORTERS, "exporter", "text") is render_metrics_text

    def test_render_mentions_every_entry(self, capsys):
        _print_catalogue()
        listing = capsys.readouterr().out.split("names (", 1)[1]
        lines = listing.splitlines()[1:]
        assert [line.split()[:2] for line in lines] == [
            [kind, name]
            for kind, table in TABLES.items()
            for name in sorted(table)
        ]
        assert "greedy" not in listing and "[" not in listing  # no capabilities


class TestUnifiedEngineValidation:
    def test_pipeline_engines_constant_matches_registry(self):
        assert set(ENGINES) == {"packed", "scalar", "reference"}
        # The runtime's engine is no setting: the config holds the
        # grouping thresholds only.
        assert [f for f in AggregationConfig.__dataclass_fields__] == [
            "parameters"
        ]


class TestServiceConfig:
    def test_flat_properties_cover_historical_names(self):
        config = ServiceConfig(
            market=MarketConfig(buy_price=0.3),
            aggregation=AggregationConfig(PARAMS),
            scheduling=SchedulingConfig(horizon_slices=96, seed=7),
            ingest=IngestConfig(batch_size=16),
        )
        assert config.market.buy_price == 0.3
        assert config.aggregation.parameters is PARAMS
        assert config.scheduling.horizon_slices == 96
        assert config.scheduling.seed == 7
        assert config.ingest.batch_size == 16
        assert ServiceConfig().aggregation.parameters.name == "runtime"

    def test_every_flat_name_reaches_its_section_field(self):
        # The flat-name table is derived from the section dataclasses; this
        # literal list pins the names from_flat/merged must keep accepting.
        table = [
            ("aggregation_parameters", "aggregation", "parameters", PARAMS),
            ("horizon_slices", "scheduling", "horizon_slices", 96),
            ("scheduler_passes", "scheduling", "scheduler_passes", 3),
            ("trigger", "scheduling", "trigger", CountTrigger(7)),
            ("min_run_interval_slices", "scheduling", "min_run_interval_slices", 2.5),
            ("seed", "scheduling", "seed", 11),
            ("target_p95_slices", "scheduling", "target_p95_slices", 6.0),
            ("buy_price", "market", "buy_price", 0.31),
            ("sell_price", "market", "sell_price", 0.07),
            ("shortage_penalty", "market", "shortage_penalty", 0.9),
            ("surplus_penalty", "market", "surplus_penalty", 0.4),
            ("batch_size", "ingest", "batch_size", 8),
            ("max_duration_slices", "ingest", "max_duration_slices", 12),
        ]
        for name, section, field, value in table:
            for config in (
                ServiceConfig.from_flat(**{name: value}),
                ServiceConfig().merged(**{name: value}),
            ):
                assert getattr(getattr(config, section), field) == value, name

    def test_removed_options_are_unknown_fields(self):
        # No shim, no accepted-but-ignored key: a deleted option is rejected
        # like any typo, with the known-field list.
        attempts = (
            (lambda: ServiceConfig.from_flat(shards=2), "aggregation_parameters"),
            (lambda: ServiceConfig().merged(shards=2), "aggregation_parameters"),
            (lambda: ServiceConfig.from_dict({"shards": 2}), "aggregation_parameters"),
            (
                lambda: ServiceConfig.from_dict({"aggregation": {"shards": 2}}),
                "parameters",
            ),
            (
                lambda: ServiceConfig.from_dict({"obs": {"tracer": "ring"}}),
                "aggregation_parameters",
            ),
            # The scheduler is always the greedy; sweeps run every
            # EXPIRY_SWEEP_SLICES.
            (lambda: ServiceConfig.from_flat(scheduler="greedy"), "batch_size"),
            (
                lambda: ServiceConfig.from_dict(
                    {"scheduling": {"scheduler": "greedy"}}
                ),
                "scheduler_passes",
            ),
            (
                lambda: ServiceConfig.from_dict(
                    {"ingest": {"expiry_sweep_interval": 2}}
                ),
                "batch_size",
            ),
            # The runtime always aggregates with the packed engine.
            (lambda: ServiceConfig.from_flat(engine="scalar"), "batch_size"),
            (lambda: ServiceConfig().merged(engine="packed"), "batch_size"),
            (lambda: ServiceConfig.from_dict({"engine": "scalar"}), "batch_size"),
            (
                lambda: ServiceConfig.from_dict(
                    {"aggregation": {"engine": "scalar"}}
                ),
                "parameters",
            ),
            (lambda: TsoConfig.from_flat(engine="packed"), "batch_size"),
            (
                lambda: TsoConfig.from_dict({"aggregation": {"engine": "scalar"}}),
                "parameters",
            ),
        )
        for attempt, known in attempts:
            with pytest.raises(ServiceError) as excinfo:
                attempt()
            message = str(excinfo.value)
            assert "known fields: " in message and known in message
            assert "engine" not in message.split("known fields: ")[1]
        # A section's known fields are its own: aggregation has one.
        with pytest.raises(ServiceError, match=r"known fields: parameters$"):
            ServiceConfig.from_dict({"aggregation": {"engine": "packed"}})

    def test_unknown_key_inside_a_section_names_section_and_fields(self):
        # Used to escape dataclasses.replace as a raw TypeError.
        with pytest.raises(ServiceError) as excinfo:
            ServiceConfig.from_dict({"ingest": {"batch_sizee": 3}})
        message = str(excinfo.value)
        assert "ingest" in message and "'batch_sizee'" in message
        assert message.endswith("known fields: batch_size, max_duration_slices")

    def test_validation_errors_preserved(self):
        with pytest.raises(ServiceError):
            IngestConfig(batch_size=0)
        with pytest.raises(ServiceError):
            SchedulingConfig(horizon_slices=-1)
        with pytest.raises(ServiceError):
            SchedulingConfig(scheduler_passes=0)

    @pytest.mark.parametrize(
        "section, name",
        [
            ("market", "buy_price"),
            ("market", "sell_price"),
            ("market", "shortage_penalty"),
            ("market", "surplus_penalty"),
            ("scheduling", "min_run_interval_slices"),
            ("scheduling", "target_p95_slices"),
            ("ingest", "batch_size"),
        ],
    )
    def test_non_finite_numbers_are_rejected(self, section, name):
        """``nan <= 0`` is false, so a range check alone let a NaN through;
        a NaN cooldown then stalled the run."""
        for text in ("NaN", "Infinity", "-Infinity"):
            data = json.loads(f'{{"{section}": {{"{name}": {text}}}}}')
            with pytest.raises(ServiceError, match=name):
                ServiceConfig.from_dict(data)

    def test_cluster_sections_reject_non_finite_numbers(self):
        with pytest.raises(ServiceError, match="max_retries"):
            BusConfig(max_retries=math.nan)
        with pytest.raises(ServiceError, match="min_run_interval_slices"):
            TsoConfig.from_flat(min_run_interval_slices=math.inf)

    @pytest.mark.parametrize(
        "build, data, name",
        [
            # Used to escape the range check as a raw TypeError.
            (ServiceConfig.from_dict, {"scheduling": {"horizon_slices": "96"}}, "horizon_slices"),
            # Used to be accepted and run.
            (ServiceConfig.from_dict, {"market": {"buy_price": "0.2"}}, "buy_price"),
            (ServiceConfig.from_dict, {"scheduling": {"scheduler_passes": True}}, "scheduler_passes"),
            (ServiceConfig.from_dict, {"ingest": {"batch_size": 8.0}}, "batch_size"),
            (ServiceConfig.from_dict, {"ingest": {"max_duration_slices": "4"}}, "max_duration_slices"),
            (
                ServiceConfig.from_dict,
                {"scheduling": {"min_run_interval_slices": "1"}},
                "min_run_interval_slices",
            ),
            # Used to crash mid-run with an AttributeError.
            (
                ServiceConfig.from_dict,
                {"aggregation": {"parameters": {"start_after_tolerance": 4}}},
                "parameters",
            ),
            (ServiceConfig.from_dict, {"aggregation_parameters": {}}, "parameters"),
            (TsoConfig.from_dict, {"scheduling": {"seed": "1"}}, "seed"),
            (TsoConfig.from_dict, {"sell_price": False}, "sell_price"),
            (BusConfig.from_dict, {"max_retries": "3"}, "max_retries"),
        ],
    )
    def test_wrongly_typed_fields_are_rejected(self, build, data, name):
        with pytest.raises(ServiceError, match=f"{name} must be"):
            build(data)

    def test_numbers_of_the_other_width_are_accepted(self):
        config = ServiceConfig.from_dict(
            {"market": {"buy_price": 1}, "scheduling": {"min_run_interval_slices": 2}}
        )
        assert config.market.buy_price == 1
        assert config.scheduling.min_run_interval_slices == 2

    def test_negative_cooldown_is_rejected(self):
        with pytest.raises(ServiceError, match="non-negative"):
            SchedulingConfig(min_run_interval_slices=-1.0)
        assert SchedulingConfig(min_run_interval_slices=0.0)

    @pytest.mark.parametrize("name", ["bogus", "evolutionary", "milp"])
    def test_unknown_scheduler_is_refused(self, name):
        # There is no scheduler setting, so every name is an unknown field.
        with pytest.raises(ServiceError, match="unknown scheduling configuration"):
            ServiceConfig.from_dict({"scheduling": {"scheduler": name}})

    def test_from_flat_and_merged(self):
        config = ServiceConfig.from_flat(
            batch_size=8, aggregation_parameters=PARAMS, seed=3
        )
        assert config.ingest.batch_size == 8
        assert config.aggregation.parameters is PARAMS
        assert config.scheduling.seed == 3
        assert config.scheduling.scheduler_passes == 2  # defaults elsewhere
        with pytest.raises(ServiceError):
            ServiceConfig.from_flat(nonsense=1)
        merged = config.merged(seed=9, horizon_slices=48)
        assert merged.scheduling.seed == 9
        assert merged.scheduling.horizon_slices == 48
        assert merged.ingest.batch_size == 8  # untouched sections carried over
        with pytest.raises(ServiceError):
            config.merged(nonsense=1)

    def test_from_dict_nested_and_trigger_spec(self):
        config = ServiceConfig.from_dict(
            {
                "scheduling": {
                    "horizon_slices": 96,
                    "trigger": [
                        {"kind": "count", "threshold": 50},
                        {"kind": "age", "max_age_slices": 4},
                    ],
                },
                "ingest": {"batch_size": 16},
                "buy_price": 0.3,
            }
        )
        assert config.scheduling.horizon_slices == 96
        assert config.ingest.batch_size == 16
        assert config.market.buy_price == 0.3
        assert isinstance(config.scheduling.trigger, AnyTrigger)
        assert len(config.scheduling.trigger.policies) == 2

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ServiceError):
            ServiceConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize(
        "flat, section",
        [
            ({"horizon_slices": 96}, {"horizon_slices": 48}),
            (
                {"trigger": {"kind": "count", "threshold": 5}},
                {"trigger": {"kind": "age", "max_age_slices": 4}},
            ),
        ],
    )
    def test_from_dict_rejects_a_field_given_flat_and_in_its_section(
        self, flat, section
    ):
        (name,) = flat
        with pytest.raises(
            ServiceError,
            match=f"{name!r} is given both flat and in section 'scheduling'",
        ):
            ServiceConfig.from_dict({**flat, "scheduling": section})

    def test_latency_target_is_the_only_adaptive_switch(self):
        # The adaptive trigger is built from target_p95_slices alone: no
        # spec names it, and a hand-built one is refused as the trigger,
        # alone or inside a composite, so a config holds one target.
        with pytest.raises(ServiceError, match="trigger names: age, any, count, imbalance$"):
            build_trigger({"kind": "adaptive", "target_p95_slices": 8.0})
        for trigger in (
            AdaptiveTrigger(8.0),
            AnyTrigger([CountTrigger(5), AdaptiveTrigger(8.0)]),
        ):
            with pytest.raises(ServiceError, match="target_p95_slices"):
                SchedulingConfig(trigger=trigger, target_p95_slices=4.0)

    def test_build_trigger_single_and_passthrough(self):
        single = build_trigger({"kind": "count", "threshold": 5})
        assert isinstance(single, CountTrigger)
        policy = CountTrigger(3)
        assert build_trigger(policy) is policy
        with pytest.raises(ServiceError):
            build_trigger([{"threshold": 5}])  # missing kind

