"""CLI: table-validated names, --config file merging, exit codes.

Drives ``repro.__main__.main`` in-process with tiny deterministic
workloads, so the whole file runs in a couple of seconds.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.__main__ import EXIT_OK, EXIT_UNKNOWN_EXPERIMENT, main
from repro.api import ServiceConfig

TINY = ["--rate", "20", "--duration", "12", "--seed", "1", "--batch", "8",
        "--passes", "1"]
#: The library config of TINY's service flags.
TINY_CONFIG = ServiceConfig.from_dict(
    {"ingest": {"batch_size": 8}, "scheduling": {"scheduler_passes": 1, "seed": 1}}
)


def test_loadtest_runs(capsys):
    assert main(["loadtest", *TINY]) == EXIT_OK
    out = capsys.readouterr().out
    assert "offers accepted" in out
    assert "driver=simulated" in out


def test_runtime_never_imports_scipy():
    """scipy is the MILP oracle's solver only: importing the public
    packages and running a loadtest must not load it (it would cost every
    run's setup time).  A fresh interpreter, since this one may have it."""
    code = (
        "import sys\n"
        "import repro, repro.api, repro.runtime, repro.scheduling\n"
        "from repro.__main__ import main\n"
        f"assert main(['loadtest', *{TINY!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"


def test_unknown_engine_exits_2_with_known_names(tmp_path, capsys):
    # The runtime has one aggregation engine, so --engine is no flag, and
    # ``engine`` is no key of a --config file or a --cluster section.
    for name in ("bogus", "packed"):
        with pytest.raises(SystemExit) as excinfo:
            main(["loadtest", *TINY, "--engine", name])
        assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
        assert "unrecognized arguments: --engine" in capsys.readouterr().err
    cluster = tmp_path / "cluster.json"
    sections = "known sections: aggregation, ingest, market, scheduling"
    for spec, known in (
        (
            {"brps": 2, "defaults": {"aggregation": {"engine": "scalar"}}},
            "field 'engine'; known fields: parameters",
        ),
        ({"brps": {"north": {"engine": "packed"}}}, f"key 'engine'; {sections}"),
        (
            {"brps": 2, "tso": {"aggregation": {"engine": "scalar"}}},
            "field 'engine'; known fields: parameters",
        ),
        ({"brps": 2, "tso": {"engine": "reference"}}, f"key 'engine'; {sections}"),
    ):
        cluster.write_text(json.dumps(spec))
        assert (
            main(["loadtest", *TINY, "--cluster", str(cluster)])
            == EXIT_UNKNOWN_EXPERIMENT
        )
        err = capsys.readouterr().err
        assert "invalid loadtest configuration: unknown" in err
        assert known in err


def test_unknown_driver_exits_2_with_known_names(capsys):
    assert main(["loadtest", "--driver", "bogus"]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "simulated" in err and "wallclock" in err


@pytest.mark.parametrize("name", ["bogus", "evolutionary", "milp"])
def test_unknown_scheduler_exits_2(capsys, name):
    # The runtime always plans with the greedy, so there is no --scheduler
    # flag; the EA and the MILP oracle are experiment-only.
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", "--scheduler", name])
    assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
    assert "--scheduler" in capsys.readouterr().err


def test_config_file_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.json"
    # "trigger" is a repeatable flag: one spec is wrapped, not iterated.
    config.write_text(json.dumps({
        "rate": 20, "duration": 12, "seed": 1, "batch": 8, "passes": 1,
        "trigger": "count:threshold=5",
    }))
    assert main(["loadtest", "--config", str(config)]) == EXIT_OK
    assert "rate=20" in capsys.readouterr().out


def test_explicit_flags_beat_config_file(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "rate": 999, "duration": 12, "seed": 1, "batch": 8, "passes": 1,
    }))
    assert (
        main(["loadtest", "--config", str(config), "--rate", "20"]) == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "rate=20" in out and "rate=999" not in out


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"warp_speed": 9}))
    assert main(["loadtest", "--config", str(config)]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "warp_speed" in err and "known keys" in err


def test_removed_shards_option_is_rejected_like_a_typo(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", *TINY, "--shards", "2"])
    assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
    assert "--shards" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"shards": 2}))
    assert main(["loadtest", "--config", str(config)]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "'shards'" in err and "known keys" in err


def test_epoch_slices_is_not_a_flag(tmp_path, capsys):
    # A parallel epoch is always ParallelClusterRuntime.epoch_slices.
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", *TINY, "--brps", "2", "--workers", "2", "--epoch-slices", "4"])
    assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
    assert "--epoch-slices" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"epoch_slices": 4}))
    assert main(["loadtest", "--config", str(config)]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "'epoch_slices'" in err and "known keys" in err


def test_config_file_engine_validated_through_registry(tmp_path, capsys):
    # Keys arriving via the file bypass argparse; the file's key check must
    # still catch ``engine``, which is no flag any more, and the known
    # names the file's values are checked against must still be named.
    config = tmp_path / "run.json"
    for value in ("bogus", "packed"):
        config.write_text(json.dumps({"engine": value}))
        assert main(["loadtest", "--config", str(config)]) == EXIT_UNKNOWN_EXPERIMENT
        err = capsys.readouterr().err
        assert "'engine'" in err and "known keys" in err
    config.write_text(json.dumps({"driver": "bogus", "metrics_format": "json"}))
    assert main(["loadtest", "--config", str(config)]) == EXIT_UNKNOWN_EXPERIMENT
    assert "known driver names: simulated, wallclock" in capsys.readouterr().err


def test_config_file_unreadable_or_invalid_exits_2(tmp_path, capsys):
    assert (
        main(["loadtest", "--config", str(tmp_path / "absent.json")])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["loadtest", "--config", str(bad)]) == EXIT_UNKNOWN_EXPERIMENT
    capsys.readouterr()
    # A value the flag itself would refuse is refused here too, by key.
    bad.write_text(json.dumps({"rate": [1]}))
    assert main(["loadtest", "--config", str(bad)]) == EXIT_UNKNOWN_EXPERIMENT
    assert "config key 'rate'" in capsys.readouterr().err


def test_serve_accepts_config_with_report_every(tmp_path, capsys):
    config = tmp_path / "serve.json"
    config.write_text(json.dumps({
        "rate": 20, "duration": 12, "seed": 1, "batch": 8, "passes": 1,
        "report_every": 6,
    }))
    assert main(["serve", "--config", str(config)]) == EXIT_OK
    assert "[t=" in capsys.readouterr().out  # progress lines appeared


def test_report_every_with_workers_exits_2(capsys):
    code = main(
        ["serve", "--brps", "2", "--workers", "2", "--report-every", "4"]
    )
    assert code == EXIT_UNKNOWN_EXPERIMENT
    assert "--report-every is not supported with --workers" in capsys.readouterr().err


def test_unknown_experiment_still_exits_2(capsys):
    assert main(["no-such-experiment"]) == EXIT_UNKNOWN_EXPERIMENT


def test_loadtest_cluster_mode_runs(capsys):
    assert main(["loadtest", *TINY, "--brps", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cluster of 2 BRPs + TSO" in out
    assert "TSO runs" in out
    assert "remote commits" in out


def test_serve_cluster_file_runs(tmp_path, capsys):
    cluster = tmp_path / "cluster.json"
    cluster.write_text(json.dumps({
        "brps": {"north": {}, "south": {}},
        "tso": {
            "scheduling": {
                "trigger": {"kind": "count", "threshold": 1},
                "scheduler_passes": 1,
            },
        },
    }))
    assert (
        main(["serve", *TINY, "--cluster", str(cluster), "--report-every", "6"])
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "north" in out and "south" in out
    assert "[t=" in out  # progress lines appeared


def test_cluster_and_brps_flags_are_mutually_exclusive(tmp_path, capsys):
    cluster = tmp_path / "cluster.json"
    cluster.write_text(json.dumps({"brps": 2}))
    assert (
        main(["loadtest", *TINY, "--cluster", str(cluster), "--brps", "3"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "mutually exclusive" in capsys.readouterr().err


def test_cluster_file_validated_exits_2(tmp_path, capsys):
    bad = tmp_path / "cluster.json"
    for spec in (
        {"brps": 2, "tso": {"scheduler": "bogus"}},
        # A numeric TSO name used to start the run and fail mid-way.
        {"brps": 2, "tso_name": 5},
        {"brps": {"": {}}},
    ):
        bad.write_text(json.dumps(spec))
        assert (
            main(["loadtest", *TINY, "--cluster", str(bad)])
            == EXIT_UNKNOWN_EXPERIMENT
        )
        captured = capsys.readouterr()
        assert "invalid loadtest configuration" in captured.err
        assert "###" not in captured.out


@pytest.mark.parametrize(
    "defaults, named",
    [
        # The old flat rename is unknown, at the top and inside a section.
        ({"aggregation_parameters": {}}, "aggregation_parameters"),
        ({"aggregation": {"shards": 2}}, "aggregation"),
        ({"scheduling": {"aggregation_parameters": {}}}, "aggregation_parameters"),
        # A typo inside a section used to escape as a TypeError traceback.
        ({"ingest": {"batch_sizee": 3}}, "batch_size, max_duration_slices"),
        ({"obs": {"tracer": "ring"}}, "known sections: aggregation, ingest"),
        # A bare field name used to be taken; it is an unknown key now,
        # and the error names the section that holds the field.
        ({"batch_size": 8}, "it is a field of section 'ingest'"),
    ],
)
def test_cluster_file_unknown_service_field_exits_2(
    tmp_path, capsys, defaults, named
):
    bad = tmp_path / "cluster.json"
    bad.write_text(json.dumps({"brps": 2, "defaults": defaults}))
    assert main(["loadtest", *TINY, "--cluster", str(bad)]) == EXIT_UNKNOWN_EXPERIMENT
    captured = capsys.readouterr()
    assert "###" not in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("error: invalid loadtest configuration: unknown")
    assert named in line


@pytest.mark.parametrize(
    "spec, named",
    [
        # Accepted, then crashed mid-run with an AttributeError traceback.
        (
            {"brps": 2, "defaults": {"aggregation": {"parameters": {"start_after_tolerance": 4}}}},
            "parameters must be AggregationParameters",
        ),
        ({"brps": 2, "tso": {"aggregation": {"parameters": {}}}}, "parameters must be"),
        ({"brps": 2, "tso": {"scheduling": {"horizon_slices": "96"}}}, "horizon_slices must be int"),
        # The TSO's count trigger is a trigger spec now.
        (
            {"brps": 2, "tso": {"scheduling": {"trigger_refreshes": 2}}},
            ", trigger",
        ),
    ],
)
def test_cluster_file_bad_field_exits_2(tmp_path, capsys, spec, named):
    bad = tmp_path / "cluster.json"
    bad.write_text(json.dumps(spec))
    assert main(["loadtest", *TINY, "--cluster", str(bad)]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "invalid loadtest configuration" in err and named in err


@pytest.mark.parametrize(
    "flag, value",
    [("--rate", "nan"), ("--rate", "inf"), ("--duration", "nan"), ("--duration", "inf")],
)
def test_non_finite_rate_or_duration_exits_2(capsys, flag, value):
    # NaN used to run an empty window and exit 0; --rate inf never returned.
    assert main(["loadtest", *TINY, flag, value]) == EXIT_UNKNOWN_EXPERIMENT
    captured = capsys.readouterr()
    assert "###" not in captured.out
    assert "must be finite and positive" in captured.err


def test_nonpositive_brps_exits_2(capsys):
    assert main(["loadtest", *TINY, "--brps", "0"]) == EXIT_UNKNOWN_EXPERIMENT
    assert "--brps must be positive" in capsys.readouterr().err


# ----------------------------------------------------------------------
# durability + fault-injection flags
# ----------------------------------------------------------------------
def test_ledger_flag_journals_the_run(tmp_path, capsys):
    led = tmp_path / "led"
    assert main(["loadtest", *TINY, "--ledger", str(led)]) == EXIT_OK
    segments = list(led.glob("segment-*.jsonl"))
    assert segments and segments[0].stat().st_size > 0


def test_cluster_ledger_uses_per_brp_subdirs(tmp_path, capsys):
    led = tmp_path / "led"
    assert (
        main(["loadtest", *TINY, "--brps", "2", "--ledger", str(led)])
        == EXIT_OK
    )
    assert sorted(p.name for p in led.iterdir()) == ["brp-0", "brp-1"]
    assert list((led / "brp-0").glob("segment-*.jsonl"))


def test_hostile_stream_flags_run(tmp_path, capsys):
    # The fault flags are LoadGenerator.hostile_stream and nothing else: the
    # CLI run admits, rejects and deflects exactly what a client fed that
    # stream (same seed, same order of transforms) does.
    from repro.api import LedmsClient, OfferLedger
    from repro.runtime import LoadGenerator

    dump = tmp_path / "metrics.json"
    assert (
        main([
            "loadtest", *TINY, "--ledger", str(tmp_path / "led"),
            "--duplicate-rate", "0.2", "--reorder-window", "2",
            "--metrics-json", str(dump),
        ])
        == EXIT_OK
    )
    assert "offers accepted" in capsys.readouterr().out
    cli = json.loads(dump.read_text())

    client = LedmsClient(TINY_CONFIG, ledger=OfferLedger())
    client.run_stream(
        LoadGenerator(rate_per_hour=20.0, seed=1).hostile_stream(
            0.0, 12.0, duplicate_rate=0.2, reorder_window=2.0, seed=1
        ),
        12.0,
    )
    direct = client.metrics()
    assert cli["ledger.duplicates"] > 0
    for name in (
        "runtime.offers_submitted", "ingest.accepted", "ingest.rejected",
        "ledger.duplicates",
    ):
        assert cli[name] == direct[name], name


def test_resumed_ledger_reproduces_the_cli_run(tmp_path, capsys):
    """The CLI's service defaults are the library's: re-executing a
    loadtest's journal under a config of the same flag values makes the same scheduling runs, commits and last plan cost.
    (``--min-run-interval`` used to default to 2.0 against the library's
    1.0, and the resumed node planned twice as often.)"""
    from repro.api import LedmsClient

    led, dump = tmp_path / "led", tmp_path / "metrics.json"
    flags = ["--rate", "100", "--duration", "24", "--seed", "1", "--batch",
             "8", "--passes", "1"]
    assert main(
        ["loadtest", *flags, "--ledger", str(led), "--metrics-json", str(dump)]
    ) == EXIT_OK
    cli = json.loads(dump.read_text())
    resumed = LedmsClient.resume_from_ledger(str(led), TINY_CONFIG).metrics()
    assert cli["schedule.runs"] > 2
    for name in ("schedule.runs", "disaggregate.assignments", "schedule.last_cost"):
        assert resumed[name] == cli[name], name


def test_service_flag_defaults_are_the_library_defaults():
    from repro.__main__ import SERVICE_FLAGS, _runtime_parser

    args = _runtime_parser("loadtest").parse_args([])
    library = ServiceConfig()
    assert library.scheduling.min_run_interval_slices == 1.0
    for flag, (section, name, _) in SERVICE_FLAGS.items():
        default = getattr(getattr(library, section), name)
        assert getattr(args, flag[2:].replace("-", "_")) == default, flag


def test_outage_flag_runs_in_cluster_mode(capsys):
    assert (
        main(["loadtest", *TINY, "--brps", "2", "--outage", "brp-1:2:6"])
        == EXIT_OK
    )


def test_bad_duplicate_rate_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--duplicate-rate", "1.5"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "--duplicate-rate" in capsys.readouterr().err


def test_bad_reorder_window_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--reorder-window", "-1"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "--reorder-window" in capsys.readouterr().err


def test_bad_fsync_mode_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", *TINY, "--ledger", "led", "--fsync", "sometimes"])
    assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "commit" in err and "never" in err


def test_malformed_outage_spec_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--brps", "2", "--outage", "nonsense"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "outage spec" in capsys.readouterr().err


def test_outage_unknown_brp_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--brps", "2", "--outage", "brp-9:1:2"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "unknown BRP" in capsys.readouterr().err


def test_outage_without_cluster_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--outage", "brp-0:1:2"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "cluster mode" in capsys.readouterr().err


def test_bus_retries_enables_resilient_cluster_bus(capsys):
    assert (
        main(
            [
                "loadtest",
                "--rate", "20", "--duration", "24", "--seed", "1",
                "--batch", "8", "--passes", "1",
                "--brps", "2",
                "--outage", "brp-1:4:16",
                "--bus-retries", "2",
            ]
        )
        == EXIT_OK
    )
    out = capsys.readouterr().out
    assert "bus resilience" in out  # retry path engaged, not best-effort drop


def test_negative_bus_retries_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--bus-retries", "-1"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "--bus-retries" in capsys.readouterr().err


def test_unknown_trigger_kind_exits_2_with_known_names(capsys):
    assert (
        main(["loadtest", *TINY, "--trigger", "bogus"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    err = capsys.readouterr().err
    assert "unknown trigger" in err
    assert "imbalance" in err and "count" in err


def test_adaptive_trigger_spec_exits_2_listing_the_kinds(capsys):
    # The latency loop's one switch is --target-p95-slices; no trigger spec
    # builds the adaptive controller.
    assert (
        main(["loadtest", *TINY, "--trigger", "adaptive:target_p95_slices=8"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "age, count, imbalance" in capsys.readouterr().err


def test_bad_trigger_param_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--trigger", "count:threshold=-3"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "threshold must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, message",
    [("-3", "must be positive"), ("nan", "must be finite")],
)
def test_target_p95_slices_is_field_checked(capsys, value, message):
    assert (
        main(["loadtest", *TINY, "--target-p95-slices", value])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert f"target_p95_slices {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, field",
    [
        ("age:max_age_slices=nan", "max_age_slices"),
        ("count:threshold=2.5", "threshold"),
        ("count:threshold=true", "threshold"),
    ],
)
def test_trigger_params_are_field_checked(capsys, spec, field):
    assert (
        main(["loadtest", *TINY, "--trigger", spec]) == EXIT_UNKNOWN_EXPERIMENT
    )
    assert f"{field} must be" in capsys.readouterr().err


def test_malformed_trigger_spec_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--trigger", "count:threshold"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "expected 'kind:key=val" in capsys.readouterr().err


@pytest.mark.parametrize(
    "trigger, named",
    [
        # Each used to escape as a TypeError traceback with exit 1.
        ("any", "unknown trigger 'any'; known trigger names: age, count, imbalance"),
        ("count", "trigger 'count' takes threshold; got none"),
        ("count:threshold=5,bogus=1", "trigger 'count' takes threshold; got"),
        # The same specs from a --cluster file; the 'any' composite used to
        # start the run and crash mid-window with an AttributeError.
        (
            {"kind": "any", "policies": [{"kind": "count", "threshold": 3}]},
            "unknown trigger 'any'",
        ),
        ({"kind": "count"}, "trigger 'count' takes threshold; got none"),
    ],
)
def test_refused_trigger_spec_exits_2_before_the_run(
    tmp_path, capsys, trigger, named
):
    if isinstance(trigger, str):
        argv = ["loadtest", *TINY, "--trigger", trigger]
    else:
        cluster = tmp_path / "cluster.json"
        cluster.write_text(
            json.dumps({"brps": 2, "tso": {"scheduling": {"trigger": trigger}}})
        )
        argv = ["loadtest", *TINY, "--cluster", str(cluster)]
    assert main(argv) == EXIT_UNKNOWN_EXPERIMENT
    captured = capsys.readouterr()
    assert "###" not in captured.out
    (line,) = captured.err.splitlines()
    assert line.startswith("error: invalid loadtest configuration: ")
    assert named in line


def test_trigger_specs_compose(capsys):
    assert (
        main(
            [
                "loadtest", *TINY,
                "--trigger", "count:threshold=5",
                "--trigger", "age:max_age_slices=4",
            ]
        )
        == EXIT_OK
    )


def test_delta_scheduler_is_refused(tmp_path, capsys):
    # Keeping clean placements is the one planning path, and the scheduler
    # is no setting, so ``delta`` is refused as a flag or in a config file.
    with pytest.raises(SystemExit) as excinfo:
        main(["loadtest", *TINY, "--scheduler", "delta"])
    assert excinfo.value.code == EXIT_UNKNOWN_EXPERIMENT
    assert "--scheduler" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"scheduler": "delta"}))
    assert (
        main(["loadtest", *TINY, "--config", str(config)])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    err = capsys.readouterr().err
    assert "'scheduler'" in err and "known keys" in err


def test_adaptive_target_flag_accepted(capsys):
    assert (
        main(["loadtest", *TINY, "--target-p95-slices", "6"]) == EXIT_OK
    )
    assert main(
        ["loadtest", *TINY, "--target-p95-slices", "6", "--brps", "2"]
    ) == EXIT_OK


def test_latency_target_holds_the_tsos_macro_wait(tmp_path, capsys):
    """CI's two-tier adaptive smoke: the TSO's adaptive trigger keeps its
    macros' wait, arrival to first commitment, under the target."""
    path = tmp_path / "metrics.json"
    assert main(
        ["loadtest", "--rate", "50", "--duration", "48", "--seed", "1",
         "--brps", "2", "--target-p95-slices", "6",
         "--metrics-json", str(path)]
    ) == EXIT_OK
    wait = json.loads(path.read_text())["tso.latency.e2e_slices"]
    assert wait["count"] > 0
    assert wait["p95"] <= 6.0


def test_list_shows_registry_catalogue(capsys):
    assert main(["--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "trigger" in out and "imbalance" in out
    # The scheduler is not a choice, and entries declare no capabilities.
    names = out.split("names (", 1)[1]
    assert "scheduler" not in names and "greedy" not in names
    assert "capabilities" not in names and "[" not in names
    for kind, name in (
        ("aggregation", "packed"),
        ("driver", "wallclock"),
        ("exporter", "prometheus"),
        ("trigger", "count"),
    ):
        assert f"\n{kind:<12} {name:<12} " in names
    # A list of specs is the composite's one spelling; no name builds it.
    assert f"\n{'trigger':<12} {'any':<12} " not in names
