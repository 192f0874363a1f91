"""Multi-source batch scheduling.

A pool is an int array of row numbers. A basic-task run draws from three
pools (VA, AU, EXPR) at once: every iteration takes one chunk from each
pool and concatenates them, and the per-pool chunk sizes are chosen so all
pools run out together after one epoch. A compound run is the one-pool
case. ``aligned_batch_sizes`` picks the chunk sizes; ``epoch_iterator``
walks the pools, each in its own seeded shuffle or in file order, exactly
once per epoch.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .errors import Infeasible, ValueOutOfRange


def aligned_batch_sizes(set_sizes: Sequence[int], total_batch: int) -> Tuple[int, ...]:
    """Split ``total_batch`` across pools proportionally to their sizes.

    Largest-remainder rounding, floored at 1 per nonempty pool, then a
    greedy repair that minimizes the spread of the per-pool epoch lengths
    n_k / b_k so every pool finishes in the same number of iterations
    (exactly equal whenever the proportions allow it). Empty pools get 0.
    Scale-invariant in the pool sizes.
    """
    sizes = [int(s) for s in set_sizes]
    if any(s < 0 for s in sizes):
        raise ValueOutOfRange("set sizes must be nonnegative")
    active = [i for i, s in enumerate(sizes) if s > 0]
    if not active:
        raise Infeasible("all pools are empty")
    if total_batch < len(active):
        raise Infeasible(
            f"total batch {total_batch} cannot cover {len(active)} nonempty pools"
        )
    total_size = sum(sizes)
    quotas = {i: sizes[i] * total_batch / total_size for i in active}
    alloc = {i: math.floor(quotas[i]) for i in active}
    leftover = total_batch - sum(alloc.values())
    by_remainder = sorted(active, key=lambda i: (-(quotas[i] - alloc[i]), i))
    for i in by_remainder[:leftover]:
        alloc[i] += 1

    # floor repair: promote empty allocations, shrinking the largest pool
    while any(alloc[i] == 0 for i in active):
        zero = next(i for i in active if alloc[i] == 0)
        donor = max(active, key=lambda i: (alloc[i], -i))
        if alloc[donor] <= 1:
            raise Infeasible("cannot give every nonempty pool a sample")
        alloc[donor] -= 1
        alloc[zero] += 1

    def spread(a):
        ratios = [sizes[i] / a[i] for i in active]
        return max(ratios) - min(ratios)

    # local search: move single units while epoch lengths get more even
    improved = True
    while improved:
        improved = False
        best = spread(alloc)
        best_move = None
        for i in active:
            if alloc[i] <= 1:
                continue
            for j in active:
                if i == j:
                    continue
                trial = dict(alloc)
                trial[i] -= 1
                trial[j] += 1
                s = spread(trial)
                if s < best - 1e-12:
                    best = s
                    best_move = (i, j)
        if best_move:
            i, j = best_move
            alloc[i] -= 1
            alloc[j] += 1
            improved = True

    return tuple(alloc.get(i, 0) for i in range(len(sizes)))


def epoch_iterator(
    pools: Sequence[np.ndarray],
    batch_sizes: Sequence[int],
    rngs: Sequence[Optional[np.random.Generator]],
) -> Iterator[np.ndarray]:
    """Yield one epoch's batches of row numbers.

    Pool k is walked in sequential chunks of ``batch_sizes[k]`` over its
    permutation by ``rngs[k]``, or in its own order when that is None; the
    last chunk may be short. Each batch joins the next chunk of every pool,
    in pool order, and the epoch lasts as long as the slowest nonempty
    pool, so every row is yielded exactly once.
    """
    orders = [
        pool if rng is None else pool[rng.permutation(len(pool))]
        for pool, rng in zip(pools, rngs)
    ]
    steps = max(
        (math.ceil(len(pool) / b) for pool, b in zip(orders, batch_sizes) if len(pool)),
        default=0,
    )
    for it in range(steps):
        yield np.concatenate([pool[it * b : (it + 1) * b] for pool, b in zip(orders, batch_sizes)])
