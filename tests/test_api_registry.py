"""The engine registry and the composed service configuration.

Pins the satellite fix of this PR: engine validation in the runtime config
and in ``make_pipeline`` route through the *same* registry, so the set of
accepted names can never diverge again (``reference`` used to be accepted
by one and rejected by the other).
"""

import pytest

from repro.aggregation.pipeline import make_pipeline
from repro.aggregation.thresholds import AggregationParameters
from repro.api import (
    KIND_AGGREGATION,
    KIND_DRIVER,
    KIND_EXPORTER,
    KIND_SCHEDULER,
    KIND_TRIGGER,
    Registry,
    RegistryError,
    default_registry,
)
from repro.api.config import (
    AggregationConfig,
    IngestConfig,
    MarketConfig,
    SchedulingConfig,
    ServiceConfig,
    build_trigger,
)
from repro.core.errors import AggregationError, ServiceError
from repro.runtime.triggers import AnyTrigger, CountTrigger
from repro.scheduling import (
    DeltaScheduler,
    EvolutionaryScheduler,
    ExhaustiveScheduler,
    RandomizedGreedyScheduler,
)

PARAMS = AggregationParameters(
    start_after_tolerance=8, time_flexibility_tolerance=8, name="test"
)


class TestRegistry:
    def test_builtin_catalogue(self):
        registry = default_registry()
        assert registry.names(KIND_AGGREGATION) == (
            "packed", "reference", "scalar",
        )
        assert registry.names(KIND_SCHEDULER) == (
            "delta", "evolutionary", "exhaustive", "greedy",
        )
        assert registry.names(KIND_TRIGGER) == (
            "adaptive", "age", "any", "count", "imbalance",
        )
        assert registry.names(KIND_DRIVER) == ("simulated", "wallclock")
        # One consumer is not a catalogue: the fault transforms are plain
        # functions (LoadGenerator.hostile_stream, parse_outage).
        assert {entry.kind for entry in registry.entries()} == {
            KIND_AGGREGATION, KIND_SCHEDULER, KIND_TRIGGER, KIND_DRIVER,
            KIND_EXPORTER,
        }
        assert len(registry.entries()) == 17

    def test_unknown_name_error_lists_known_set(self):
        with pytest.raises(RegistryError) as excinfo:
            default_registry().get(KIND_AGGREGATION, "bogus")
        message = str(excinfo.value)
        for name in ("packed", "reference", "scalar"):
            assert name in message

    def test_duplicate_registration_rejected_unless_replace(self):
        registry = Registry()
        registry.register("kind", "x", int)
        with pytest.raises(RegistryError):
            registry.register("kind", "x", float)
        entry = registry.register("kind", "x", float, replace=True)
        assert entry.factory is float

    def test_scheduler_capabilities_mirror_class_attributes(self):
        registry = default_registry()
        for name, cls in (
            ("greedy", RandomizedGreedyScheduler),
            ("evolutionary", EvolutionaryScheduler),
            ("exhaustive", ExhaustiveScheduler),
            ("delta", DeltaScheduler),
        ):
            assert registry.capabilities(KIND_SCHEDULER, name) == cls.capabilities
            assert isinstance(registry.create(KIND_SCHEDULER, name), cls)

    def test_render_mentions_every_entry(self):
        text = default_registry().render()
        for name in ("packed", "greedy", "wallclock", "imbalance"):
            assert name in text


class TestUnifiedEngineValidation:
    def test_runtime_config_accepts_every_pipeline_engine(self):
        # The historical bug: the config rejected "reference" although
        # make_pipeline supported it.  Both now consult the registry.
        for engine in default_registry().names(KIND_AGGREGATION):
            config = ServiceConfig(aggregation=AggregationConfig(engine=engine))
            assert config.aggregation.engine == engine
            assert make_pipeline(PARAMS, engine=engine) is not None

    def test_pipeline_engines_constant_matches_registry(self):
        assert set(default_registry().names(KIND_AGGREGATION)) == {
            "packed", "scalar", "reference",
        }

    def test_both_sites_reject_with_the_same_known_set(self):
        with pytest.raises(ServiceError) as config_err:
            AggregationConfig(engine="bogus")  # replint: ignore[REP003]
        with pytest.raises(AggregationError) as pipeline_err:
            make_pipeline(PARAMS, engine="bogus")  # replint: ignore[REP003]
        assert str(config_err.value) == str(pipeline_err.value)


class TestServiceConfig:
    def test_flat_properties_cover_historical_names(self):
        config = ServiceConfig(
            market=MarketConfig(buy_price=0.3),
            aggregation=AggregationConfig(engine="scalar"),
            scheduling=SchedulingConfig(horizon_slices=96, seed=7),
            ingest=IngestConfig(batch_size=16),
        )
        assert config.market.buy_price == 0.3
        assert config.aggregation.engine == "scalar"
        assert config.scheduling.horizon_slices == 96
        assert config.scheduling.seed == 7
        assert config.ingest.batch_size == 16
        assert config.aggregation.parameters.name == "runtime"

    def test_every_flat_name_reaches_its_section_field(self):
        # The flat-name table is derived from the section dataclasses; this
        # literal list pins the names from_flat/merged must keep accepting.
        table = [
            ("aggregation_parameters", "aggregation", "parameters", PARAMS),
            ("engine", "aggregation", "engine", "scalar"),
            ("horizon_slices", "scheduling", "horizon_slices", 96),
            ("scheduler", "scheduling", "scheduler", "delta"),
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
            ("expiry_sweep_interval", "ingest", "expiry_sweep_interval", 2.0),
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
            lambda: ServiceConfig.from_flat(shards=2),
            lambda: ServiceConfig().merged(shards=2),
            lambda: ServiceConfig.from_dict({"shards": 2}),
            lambda: ServiceConfig.from_dict({"aggregation": {"shards": 2}}),
            lambda: ServiceConfig.from_dict({"obs": {"tracer": "ring"}}),
        )
        for attempt in attempts:
            with pytest.raises(ServiceError) as excinfo:
                attempt()
            message = str(excinfo.value)
            assert "known fields: " in message and "engine" in message

    def test_unknown_key_inside_a_section_names_section_and_fields(self):
        # Used to escape dataclasses.replace as a raw TypeError.
        with pytest.raises(ServiceError) as excinfo:
            ServiceConfig.from_dict({"ingest": {"batch_sizee": 3}})
        message = str(excinfo.value)
        assert "ingest" in message and "'batch_sizee'" in message
        for known in ("batch_size", "expiry_sweep_interval", "max_duration_slices"):
            assert known in message

    def test_validation_errors_preserved(self):
        with pytest.raises(ServiceError):
            IngestConfig(batch_size=0)
        with pytest.raises(ServiceError):
            SchedulingConfig(horizon_slices=-1)
        with pytest.raises(ServiceError):
            SchedulingConfig(scheduler_passes=0)
        with pytest.raises(ServiceError):
            IngestConfig(expiry_sweep_interval=0)

    def test_scheduler_requires_runtime_capability(self):
        with pytest.raises(ServiceError) as excinfo:
            SchedulingConfig(scheduler="evolutionary")
        assert "runtime" in str(excinfo.value)

    def test_from_flat_and_merged(self):
        config = ServiceConfig.from_flat(batch_size=8, engine="scalar", seed=3)
        assert config.ingest.batch_size == 8
        assert config.aggregation.engine == "scalar"
        assert config.scheduling.seed == 3
        assert config.scheduling.scheduler == "greedy"  # defaults elsewhere
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
                "engine": "scalar",
            }
        )
        assert config.scheduling.horizon_slices == 96
        assert config.ingest.batch_size == 16
        assert config.aggregation.engine == "scalar"
        assert isinstance(config.scheduling.trigger, AnyTrigger)
        assert len(config.scheduling.trigger.policies) == 2

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ServiceError):
            ServiceConfig.from_dict({"bogus": 1})

    def test_build_trigger_single_and_passthrough(self):
        single = build_trigger({"kind": "count", "threshold": 5})
        assert isinstance(single, CountTrigger)
        policy = CountTrigger(3)
        assert build_trigger(policy) is policy
        with pytest.raises(ServiceError):
            build_trigger([{"threshold": 5}])  # missing kind

