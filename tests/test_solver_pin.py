"""The byte pins of ``solve_equilibrium`` and of the frozen Newton oracle; see ``test_pins.py``."""

from test_pins import coverage_test, value_test

test_every_case_is_pinned = coverage_test("solver_sha256.json", "oracle_sha256.json")
test_solver_matches_pinned_digest = value_test("solver_sha256.json", "oracle_sha256.json")
