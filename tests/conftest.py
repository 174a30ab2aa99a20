import numpy as np
import pytest

from dashgame.model import BufferView, GameParams, VideoQualityModel


@pytest.fixture
def ref_params():
    """Reference constants of the two-user fixed-bandwidth configuration."""
    return GameParams(mu=0.003, nu=0.0041, p=0.1, segment_duration=2.0)


@pytest.fixture
def ref_video():
    return VideoQualityModel(alpha=2.15, beta=0.0827, ladder=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))


@pytest.fixture
def neutral_buffer():
    return BufferView(b_curr=15.0, b_ref=15.0)


def random_instance(rng: np.random.Generator, n_users=None, identical=False):
    """Random valid game instance for property tests."""
    n = int(n_users if n_users is not None else rng.integers(1, 9))
    params = GameParams(
        mu=float(rng.uniform(1e-4, 0.01)),
        nu=float(rng.uniform(1e-3, 0.1)),
        p=float(rng.uniform(0.05, 1.0)),
        segment_duration=float(rng.uniform(1.0, 4.0)),
    )
    def one_video():
        return VideoQualityModel(
            alpha=float(rng.uniform(0.05, 3.0)),
            beta=float(rng.uniform(0.05, 1.5)),
            ladder=(1.0, 2.0, 4.0),
        )
    if identical:
        video = one_video()
        videos = [video] * n
        b = float(rng.uniform(5.0, 25.0))
        bufs = [BufferView(b_curr=b, b_ref=b)] * n
    else:
        videos = [one_video() for _ in range(n)]
        bufs = [
            BufferView(b_curr=float(rng.uniform(2.0, 30.0)), b_ref=float(rng.uniform(5.0, 25.0)))
            for _ in range(n)
        ]
    export_bw = float(rng.uniform(2.0, 20.0))
    return params, videos, bufs, export_bw
