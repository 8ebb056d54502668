"""``benchmarks/check_journal_lines.py``: every journaled line is the
encoder's text for its fact."""

import importlib.util
import pathlib

from repro.core import flex_offer
from repro.ledger import JsonlEventLog, OfferLedger

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _checker():
    spec = importlib.util.spec_from_file_location(
        "check_journal_lines", ROOT / "benchmarks" / "check_journal_lines.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _journal(directory):
    ledger = OfferLedger(JsonlEventLog(directory, fsync="never"), node='b"%')
    offer = flex_offer([(-0.0, 1.5), (0.0, 2.0)], 3, 7, offer_id=2**64, owner="é")
    ledger.record_submit(
        offer, at=-0.0, source_event_id="s", accepted=False, reason="late",
        accepted_offer=offer,
    )
    ledger.record_scheduled([(1, 4), (2, 5)], at=1.5)
    ledger.record_withdraw(1, at=2.0)
    ledger.close()
    return ledger.appends


def test_composed_journal_passes(tmp_path):
    appends = _journal(tmp_path / "brp-0")
    _journal(tmp_path / "brp-1")
    checker = _checker()
    assert checker.check(tmp_path) == (2 * appends, None)
    assert checker.main([str(tmp_path)]) == 0


def test_a_line_the_encoder_would_not_write_fails(tmp_path):
    appends = _journal(tmp_path)
    (segment,) = sorted(tmp_path.glob("segment-*.jsonl"))
    with open(segment, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 99, "kind": "withdraw"}\n')  # keys unsorted
    checked, failure = _checker().check(tmp_path)
    assert checked == appends + 1
    assert failure == f"{segment}:{appends + 1}: not the encoder's text"
    assert _checker().main([str(tmp_path)]) == 1


def test_a_directory_without_a_journal_fails(tmp_path):
    assert _checker().check(tmp_path) == (0, f"{tmp_path}: no journal segment")
    assert _checker().main([str(tmp_path)]) == 1
    assert _checker().main([]) == 2
