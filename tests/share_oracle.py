"""Progressive filling, the oracle for ``netsim.allocate_shares``.

The simulator's earlier max-min split: every undecided user is offered an
equal split of what is left, the users whose caps bind take their caps in
user order, and the rest are offered a new split, round after round.
"""

from typing import Optional, Sequence


def progressive_filling(export_bw: float, caps: Sequence[Optional[float]]) -> list[float]:
    if export_bw <= 0:
        raise ValueError(f"export_bw must be > 0, got {export_bw!r}")
    shares = [0.0] * len(caps)
    undecided = list(range(len(caps)))
    remaining = export_bw
    while undecided:
        fair = remaining / len(undecided)
        binding, free = [], []
        for i in undecided:
            (binding if caps[i] is not None and caps[i] <= fair else free).append(i)
        if not binding:
            for i in undecided:
                shares[i] = fair
            break
        for i in binding:
            shares[i] = caps[i]
            remaining -= caps[i]
        undecided = free
        if remaining <= 0.0:
            break
    return shares
