"""Buffer accounting of ``run_scenario`` traces, checked record by record.

Between two completions of one user, playback drains its buffer for the
elapsed time and stalls for whatever the buffer could not cover; each
completion then adds one segment duration.  So, with ``t_end[-1] = 0`` and
``buffer[-1]`` the initial buffer,

    buffer[k] = max(buffer[k-1] - elapsed, 0) + T
    stall[k]  = max(elapsed - buffer[k-1], 0)

where ``elapsed = t_end[k] - t_end[k-1]``.  Each download starts when the
user's previous one lands, so ``t_start[k] = t_end[k-1]``.
"""

from hypothesis import given, settings, strategies as st

from dashgame.netsim import run_scenario
from test_event_loop_oracle import random_scenario

TOL = 1e-6


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_buffer_and_stall_follow_the_playback_identity(seed):
    scenario = random_scenario(seed)
    T = scenario.params.segment_duration
    for trace in run_scenario(scenario):
        records = trace.records
        assert len(records) == scenario.sim.total_segments
        assert [rec.k for rec in records] == list(range(len(records)))
        prev_end, prev_buffer = 0.0, scenario.sim.initial_buffer
        for rec in records:
            assert rec.t_start == prev_end
            assert rec.t_end > prev_end
            elapsed = rec.t_end - prev_end
            assert abs(rec.buffer - (max(prev_buffer - elapsed, 0.0) + T)) <= TOL
            assert abs(rec.stall_seconds - max(elapsed - prev_buffer, 0.0)) <= TOL
            prev_end, prev_buffer = rec.t_end, rec.buffer
