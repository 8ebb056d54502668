"""CLI: registry-validated names, --config file merging, exit codes.

Drives ``repro.__main__.main`` in-process with tiny deterministic
workloads, so the whole file runs in a couple of seconds.
"""

import json

import pytest

from repro.__main__ import EXIT_OK, EXIT_UNKNOWN_EXPERIMENT, main

TINY = ["--rate", "20", "--duration", "12", "--seed", "1", "--batch", "8",
        "--passes", "1"]


def test_loadtest_runs(capsys):
    assert main(["loadtest", *TINY]) == EXIT_OK
    out = capsys.readouterr().out
    assert "offers accepted" in out
    assert "driver=simulated" in out


def test_unknown_engine_exits_2_with_known_names(capsys):
    assert main(["loadtest", "--engine", "bogus"]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    for name in ("packed", "reference", "scalar"):
        assert name in err


def test_unknown_driver_exits_2_with_known_names(capsys):
    assert main(["loadtest", "--driver", "bogus"]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "simulated" in err and "wallclock" in err


def test_unknown_scheduler_exits_2(capsys):
    assert main(["loadtest", "--scheduler", "bogus"]) == EXIT_UNKNOWN_EXPERIMENT
    assert "greedy" in capsys.readouterr().err


def test_scheduler_without_runtime_capability_exits_2(capsys):
    # Registered, but not usable by the streaming loop.
    assert (
        main(["loadtest", *TINY, "--scheduler", "evolutionary"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "runtime" in capsys.readouterr().err


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


def test_config_file_engine_validated_through_registry(tmp_path, capsys):
    # Names arriving via the file bypass argparse; the registry check must
    # still catch them.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"engine": "bogus"}))
    assert main(["loadtest", "--config", str(config)]) == EXIT_UNKNOWN_EXPERIMENT
    assert "known aggregation names" in capsys.readouterr().err


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
        "tso": {"trigger_refreshes": 1, "scheduler_passes": 1},
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
    bad.write_text(json.dumps({"brps": 2, "tso": {"scheduler": "bogus"}}))
    assert main(["loadtest", *TINY, "--cluster", str(bad)]) == EXIT_UNKNOWN_EXPERIMENT
    assert "invalid loadtest configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "defaults, named",
    [
        ({"shards": 2}, "engine"),
        ({"aggregation": {"shards": 2}}, "aggregation"),
        ({"obs": {"tracer": "ring"}}, "engine"),
        # A typo inside a section used to escape as a TypeError traceback.
        ({"ingest": {"batch_sizee": 3}}, "batch_size, expiry_sweep_interval"),
    ],
)
def test_cluster_file_unknown_service_field_exits_2(
    tmp_path, capsys, defaults, named
):
    bad = tmp_path / "cluster.json"
    bad.write_text(json.dumps({"brps": 2, "defaults": defaults}))
    assert main(["loadtest", *TINY, "--cluster", str(bad)]) == EXIT_UNKNOWN_EXPERIMENT
    err = capsys.readouterr().err
    assert "invalid loadtest configuration: unknown" in err
    assert "known fields: " in err and named in err


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
    from repro.api import LedmsClient, OfferLedger, ServiceConfig
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

    client = LedmsClient(
        ServiceConfig.from_flat(
            batch_size=8, scheduler_passes=1, seed=1, min_run_interval_slices=2.0
        ),
        ledger=OfferLedger(),
    )
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
    assert "adaptive" in err and "count" in err


def test_bad_trigger_param_exits_2(capsys):
    assert (
        main(
            ["loadtest", *TINY, "--trigger", "adaptive:target_p95_slices=-3"]
        )
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "target_p95_slices must be positive" in capsys.readouterr().err


def test_malformed_trigger_spec_exits_2(capsys):
    assert (
        main(["loadtest", *TINY, "--trigger", "count:threshold"])
        == EXIT_UNKNOWN_EXPERIMENT
    )
    assert "expected 'kind:key=val" in capsys.readouterr().err


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


def test_delta_scheduler_loadtest_runs(capsys):
    assert main(["loadtest", *TINY, "--scheduler", "delta"]) == EXIT_OK
    assert "offers" in capsys.readouterr().out


def test_adaptive_target_flag_accepted(capsys):
    assert (
        main(["loadtest", *TINY, "--target-p95-slices", "6"]) == EXIT_OK
    )
    assert main(
        ["loadtest", *TINY, "--target-p95-slices", "6", "--brps", "2"]
    ) == EXIT_OK


def test_list_shows_registry_catalogue(capsys):
    assert main(["--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "scheduler" in out and "delta" in out
    assert "trigger" in out and "adaptive" in out
