"""Tests for the repro-lint static checker (tools/replint).

Each rule gets a fixture pair — one snippet that must fire and one that
must stay silent — written into a temp tree whose sub-directories mimic
the repo layout (scoped rules match on path fragments like ``runtime/``).
On top sit the mechanism tests (suppressions, baseline round-trip, CLI
exit codes) and the meta-test: the linter runs clean over the real repo.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tools.replint.baseline import load_baseline, split_baseline, write_baseline
from tools.replint.cli import run as replint_run
from tools.replint.core import Finding, lint_paths, parse_suppressions
from tools.replint.resolver import ProjectContext, find_repo_root
from tools.replint.rules import ALL_RULES, RegistryNameRule, rules_by_id

REPO_ROOT = find_repo_root()
PROJECT = ProjectContext(REPO_ROOT)


def lint_snippet(tmp_path, rel, source, rule_ids=None):
    """Write ``source`` at ``tmp_path/rel`` and lint it; return findings."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = rules_by_id(rule_ids) if rule_ids else ALL_RULES
    findings, errors = lint_paths([path], rules, root=tmp_path, project=PROJECT)
    assert errors == []
    return findings


def rule_ids(findings):
    return sorted({f.rule_id for f in findings})


# ----------------------------------------------------------------------
# project context extraction
# ----------------------------------------------------------------------
class TestProjectContext:
    def test_event_kinds_extracted(self):
        assert "offer" in PROJECT.event_kinds
        assert "ledger_append" in PROJECT.event_kinds
        assert "bogus" not in PROJECT.event_kinds

    def test_registry_names_extracted(self):
        assert "packed" in PROJECT.registry_names["aggregation"]
        assert "greedy" in PROJECT.registry_names["scheduler"]
        assert "simulated" in PROJECT.registry_names["driver"]
        # REP003 maps a keyword to a kind only where the registry has one.
        assert set(RegistryNameRule.KIND_FOR_NAME.values()) == set(
            PROJECT.registry_names
        )

    def test_missing_root_degrades_to_empty(self, tmp_path):
        ctx = ProjectContext(tmp_path)
        assert ctx.event_kinds == frozenset()
        assert ctx.registry_names == {}


# ----------------------------------------------------------------------
# REP001: tracer guard
# ----------------------------------------------------------------------
class TestTracerGuard:
    def test_flags_unguarded_record_call(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def emit(self, offer_id):
                self.tracer.offer_event(offer_id, "stored")
            """,
        )
        assert rule_ids(findings) == ["REP001"]

    def test_inline_guard_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def emit(self, offer_id):
                if self.tracer.enabled:
                    self.tracer.offer_event(offer_id, "stored")
            """,
        )
        assert findings == []

    def test_guard_variable_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def emit(self, offer_id):
                trace = self.tracer.enabled
                for _ in range(3):
                    if trace:
                        self.tracer.offer_event(offer_id, "stored")
            """,
        )
        assert findings == []

    def test_early_return_guard_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "ledger/replay.py",
            """
            def emit(tracer, offers):
                if not tracer.enabled:
                    return
                for offer in offers:
                    tracer.replay_event(offer, "restored")
            """,
        )
        assert findings == []

    def test_span_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def stage(self):
                return self.tracer.span("aggregate")
            """,
        )
        assert findings == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "forecasting/mod.py",
            """
            def emit(self, offer_id):
                self.tracer.offer_event(offer_id, "stored")
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP002: event kinds
# ----------------------------------------------------------------------
class TestEventKind:
    def test_flags_unknown_kind_in_record(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def build():
                return {"event": "not_a_kind", "seq": 0}
            """,
        )
        assert rule_ids(findings) == ["REP002"]

    def test_known_kind_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def build():
                return {"event": "offer", "seq": 0}
            """,
        )
        assert findings == []

    def test_flags_comparison_against_unknown_kind(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def pick(records):
                return [r for r in records if r["event"] == "not_a_kind"]
            """,
        )
        assert rule_ids(findings) == ["REP002"]

    def test_get_comparison_known_kind_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def pick(records):
                return [r for r in records if r.get("event") == "ledger_replay"]
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP003: registry names
# ----------------------------------------------------------------------
class TestRegistryName:
    def test_flags_unknown_engine_keyword(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def go(make):
                return make(engine="turbo")
            """,
        )
        assert rule_ids(findings) == ["REP003"]

    def test_known_names_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def go(make):
                return make(engine="packed", scheduler="greedy", driver="simulated")
            """,
        )
        assert findings == []

    def test_flags_bad_default_in_signature(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def run(scheduler="quantum"):
                return scheduler
            """,
        )
        assert rule_ids(findings) == ["REP003"]

    def test_valid_signature_default_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def run(engine="reference", *, exporter="prometheus"):
                return engine, exporter
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP004: sim-path time / RNG
# ----------------------------------------------------------------------
class TestSimPathTime:
    def test_flags_wall_clock_in_sim_path(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rule_ids(findings) == ["REP004"]

    def test_flags_unseeded_default_rng_through_alias(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "scheduling/mod.py",
            """
            import numpy as np

            def pick():
                return np.random.default_rng()
            """,
        )
        assert rule_ids(findings) == ["REP004"]

    def test_flags_module_level_random(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "node/mod.py",
            """
            import random

            def jitter():
                return random.random()
            """,
        )
        assert rule_ids(findings) == ["REP004"]

    def test_seeded_rng_and_perf_counter_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "scheduling/mod.py",
            """
            import time
            import numpy as np

            def pick(seed):
                started = time.perf_counter()
                rng = np.random.default_rng(seed)
                return rng, time.perf_counter() - started
            """,
        )
        assert findings == []

    def test_wall_clock_fine_outside_sim_path(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "obs/mod.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP005: shared-memory unlink
# ----------------------------------------------------------------------
class TestShmUnlink:
    def test_flags_create_without_unlink(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            from multiprocessing import shared_memory

            def make(name, size):
                return shared_memory.SharedMemory(name=name, create=True, size=size)
            """,
        )
        assert rule_ids(findings) == ["REP005"]

    def test_module_with_unlink_path_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            from multiprocessing import shared_memory

            def make(name, size):
                return shared_memory.SharedMemory(name=name, create=True, size=size)

            def unlink_segment(name):
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP006: journal before cascade
# ----------------------------------------------------------------------
class TestJournalFirst:
    def test_flags_cascade_before_append(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def submit(self, offer):
                self.run_aggregation()
                self.ledger.record_submit(offer, True, offer_id=1)
            """,
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_cascade_before_the_service_journaling_seam(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def submit_fact(self, offer, sid, result):
                self.maybe_schedule()
                self._journal_submit("submit", offer, sid, result)
            """,
        )
        assert rule_ids(findings) == ["REP006"]

    def test_journal_first_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def submit(self, offer):
                self.ledger.record_submit(offer, True, offer_id=1)
                self.run_aggregation()
                self.maybe_schedule()
            """,
        )
        assert findings == []

    def test_cascade_without_journal_is_not_this_rules_business(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def tick(self):
                self.run_aggregation()
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP007: Message trace keyword
# ----------------------------------------------------------------------
class TestMessageTrace:
    def test_flags_positional_trace(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            from repro.node.messages import Message

            def send(ctx):
                return Message("a", "b", "submit", {}, 0, 7, ctx)
            """,
        )
        assert rule_ids(findings) == ["REP007"]

    def test_keyword_trace_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            from repro.node.messages import Message

            def send(ctx):
                return Message("a", "b", "submit", {}, 0, trace=ctx)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP008: swallowed exceptions
# ----------------------------------------------------------------------
class TestSwallowedException:
    def test_flags_bare_except(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def teardown(worker):
                try:
                    worker.join()
                except:
                    pass
            """,
        )
        assert rule_ids(findings) == ["REP008"]

    def test_flags_except_exception_pass(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "node/mod.py",
            """
            def teardown(worker):
                try:
                    worker.join()
                except Exception:
                    pass
            """,
        )
        assert rule_ids(findings) == ["REP008"]

    def test_narrow_except_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def teardown(worker):
                try:
                    worker.join()
                except (OSError, ValueError):
                    pass
            """,
        )
        assert findings == []

    def test_broad_except_with_handling_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "runtime/mod.py",
            """
            def teardown(worker, log):
                try:
                    worker.join()
                except Exception as exc:
                    log.append(exc)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# REP009: trigger/cadence state seam
# ----------------------------------------------------------------------
class TestTriggerStateWrite:
    def test_flags_foreign_cadence_write(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/ledger/mod.py",
            """
            def park(service):
                service._last_run_time = float("inf")
            """,
        )
        assert rule_ids(findings) == ["REP009"]

    def test_flags_foreign_offer_counter_reset(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/api/mod.py",
            """
            def reset(client):
                client.service._offers_since_run = 0
            """,
        )
        assert rule_ids(findings) == ["REP009"]

    def test_own_cadence_write_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/runtime/cluster_like.py",
            """
            class Node:
                def run(self):
                    self._last_run_time = self.now
                    self._offers_since_run = 0
            """,
        )
        assert findings == []

    def test_flags_threshold_write_outside_triggers(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/runtime/mod.py",
            """
            def loosen(trigger):
                trigger.count_threshold = 10_000
            """,
        )
        assert rule_ids(findings) == ["REP009"]

    def test_flags_own_threshold_write_outside_triggers(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/runtime/mod.py",
            """
            class Policy:
                def observe(self, metrics):
                    self.max_age_slices = 1.0
            """,
        )
        assert rule_ids(findings) == ["REP009"]

    def test_threshold_write_inside_triggers_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/runtime/triggers.py",
            """
            class Policy:
                def observe(self, metrics):
                    self.count_threshold = 8
                    self.trigger_refreshes = 1
            """,
        )
        assert findings == []

    def test_out_of_scope_paths_are_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "tests/test_mod.py",
            """
            def test_park(service):
                service._last_run_time = float("inf")
            """,
        )
        assert findings == []

    def test_flags_foreign_commitment_bookkeeping(self, tmp_path):
        # The body ledger/replay.py's project() had before the service grew
        # restore_commitment(): four books written from outside, one read.
        findings = lint_snippet(
            tmp_path,
            "src/repro/ledger/mod.py",
            """
            def project(service, store, committed, now_slice):
                for oid, start in committed.items():
                    offer = service._live.get(oid)
                    if offer is None:
                        continue
                    service._committed_start[oid] = start
                    if oid not in service._scheduled:
                        service._scheduled.add(oid)
                        service._scheduled_total += 1
                        service._unscheduled_energy -= service._offer_energy(offer)
                    store.replay_offer_event(offer.owner, offer, "scheduled", now_slice)
            """,
        )
        assert rule_ids(findings) == ["REP009"]
        assert sorted(f.line for f in findings) == [7, 9, 10, 11]

    def test_flags_foreign_pool_eviction(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/runtime/mod.py",
            """
            def evict(client, oid):
                client.service._scheduled.discard(oid)
                client.service._committed_start.pop(oid, None)
                del client.service._live[oid]
            """,
        )
        assert rule_ids(findings) == ["REP009"] and len(findings) == 3

    def test_own_commitment_bookkeeping_passes(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "src/repro/runtime/mod.py",
            """
            class Node:
                def commit(self, oid, start, other):
                    self._committed_start[oid] = start
                    self._scheduled.add(oid)
                    self._scheduled_total += 1
                    del self._live[oid]
                    return len(other._live), other._committed_start.get(oid)
            """,
        )
        assert findings == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_comment_suppresses(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def go(make):
                return make(engine="turbo")  # replint: ignore[REP003]
            """,
        )
        assert findings == []

    def test_standalone_comment_covers_next_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def go(make):
                # replint: ignore[REP003]
                return make(engine="turbo")
            """,
        )
        assert findings == []

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "anywhere.py",
            """
            def go(make):
                return make(engine="turbo")  # replint: ignore[REP001]
            """,
        )
        assert rule_ids(findings) == ["REP003"]

    def test_parse_suppressions_multiple_ids(self):
        lines = ["x = 1  # replint: ignore[REP001, REP004]"]
        assert parse_suppressions(lines)[1] == frozenset({"REP001", "REP004"})


# ----------------------------------------------------------------------
# baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_partitions_findings(self, tmp_path):
        finding = Finding("pkg/mod.py", 3, 1, "REP003", "engine='turbo' ...")
        other = Finding("pkg/mod.py", 9, 1, "REP003", "engine='warp' ...")
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, [finding])
        baseline = load_baseline(baseline_path)
        new, grandfathered = split_baseline([finding, other], baseline)
        assert grandfathered == [finding]
        assert new == [other]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == frozenset()

    def test_committed_baseline_loads(self):
        path = REPO_ROOT / "tools" / "replint" / "baseline.json"
        assert load_baseline(path) == frozenset()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n", encoding="utf-8")
        assert replint_run([str(tmp_path)]) == 0
        assert "replint: clean" in capsys.readouterr().out

    def test_exit_one_on_finding(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(
            "def go(make):\n    return make(engine='turbo')\n", encoding="utf-8"
        )
        assert replint_run([str(tmp_path)]) == 1
        assert "REP003" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert replint_run([str(tmp_path / "missing")]) == 2

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        assert replint_run(["--select", "REP999", str(tmp_path)]) == 2

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(
            "def go(make):\n    return make(engine='turbo')\n", encoding="utf-8"
        )
        assert replint_run(["--format", "json", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "REP003"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        (tmp_path / "dirty.py").write_text(
            "def go(make):\n    return make(engine='turbo')\n", encoding="utf-8"
        )
        baseline = tmp_path / "baseline.json"
        assert (
            replint_run(
                ["--write-baseline", "--baseline", str(baseline), str(tmp_path)]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            replint_run(["--baseline", str(baseline), str(tmp_path)]) == 0
        )
        assert "suppressed by baseline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# meta: the real repo is clean
# ----------------------------------------------------------------------
class TestRepoIsClean:
    def test_src_lints_clean_via_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.replint", "src/"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_full_tree_lints_clean_in_process(self):
        findings, errors = lint_paths(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            ALL_RULES,
            root=REPO_ROOT,
            project=PROJECT,
        )
        assert errors == []
        assert findings == []


# ----------------------------------------------------------------------
# REP004 fix regression: schedulers are deterministic without an rng
# ----------------------------------------------------------------------
class TestSchedulerDefaultRngDeterminism:
    @staticmethod
    def _problem():
        from repro.core import TimeSeries, flex_offer
        from repro.scheduling import Market, SchedulingProblem

        horizon = 48
        rng = np.random.default_rng(11)
        offers = tuple(
            flex_offer(
                [(0.5, 2.0)] * 2,
                earliest_start=int(rng.integers(0, 20)),
                latest_start=int(rng.integers(20, 40)),
            )
            for _ in range(6)
        )
        return SchedulingProblem(
            TimeSeries(0, np.full(horizon, 10.0)),
            offers,
            Market.flat(horizon),
        )

    def test_greedy_default_rng_is_reproducible(self):
        from repro.scheduling import RandomizedGreedyScheduler

        first = RandomizedGreedyScheduler().schedule(
            self._problem(), max_passes=3
        )
        second = RandomizedGreedyScheduler().schedule(
            self._problem(), max_passes=3
        )
        assert first.cost == second.cost
        self._assert_same_solution(first.solution, second.solution)

    def test_evolutionary_default_rng_is_reproducible(self):
        from repro.scheduling import EvolutionaryScheduler

        first = EvolutionaryScheduler().schedule(
            self._problem(), max_evaluations=60
        )
        second = EvolutionaryScheduler().schedule(
            self._problem(), max_evaluations=60
        )
        assert first.cost == second.cost
        self._assert_same_solution(first.solution, second.solution)

    @staticmethod
    def _assert_same_solution(a, b):
        np.testing.assert_array_equal(a.starts, b.starts)
        assert len(a.energies) == len(b.energies)
        for left, right in zip(a.energies, b.energies):
            np.testing.assert_array_equal(left, right)
