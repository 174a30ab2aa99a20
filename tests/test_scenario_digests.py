"""The byte pins of every serialised scenario document; see ``test_pins.py``."""

from test_pins import coverage_test, value_test

test_every_document_is_pinned = coverage_test("scenario_sha256.json")
test_serialised_document_matches_pinned_digest = value_test("scenario_sha256.json")
