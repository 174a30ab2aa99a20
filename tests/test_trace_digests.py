"""The byte pins of every preset run's trace CSVs and summaries; see ``test_pins.py``."""

from test_pins import coverage_test, value_test

test_every_preset_is_pinned = coverage_test("preset_trace_sha256.json", "preset_summary_sha256.json")
test_trace_csvs_match_pinned_digests = value_test("preset_trace_sha256.json")
test_summaries_match_pinned_digests = value_test("preset_summary_sha256.json")
