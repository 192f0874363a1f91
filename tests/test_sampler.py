"""Proportional batch splitting and exactly-once epoch iteration over row
arrays, whose batches equal the id-tuple sampler and compound chunker it
replaced."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_input as ref
from affectkit.errors import Infeasible, ValueOutOfRange
from affectkit.sampler import aligned_batch_sizes, epoch_iterator


class TestAlignedBatchSizes:
    def test_proportional_split(self):
        assert aligned_batch_sizes((401_000, 247_000, 103_000), 751) == (401, 247, 103)

    def test_equal_pools(self):
        assert aligned_batch_sizes((10, 10, 10), 6) == (2, 2, 2)

    def test_two_to_one_ratio(self):
        assert aligned_batch_sizes((10, 5, 5), 4) == (2, 1, 1)

    def test_scale_invariant(self):
        assert aligned_batch_sizes((4, 2, 2), 8) == aligned_batch_sizes(
            (400, 200, 200), 8
        )

    def test_empty_pool_gets_zero(self):
        sizes = aligned_batch_sizes((12, 0, 6), 9)
        assert sizes[1] == 0
        assert sum(sizes) == 9

    def test_nonempty_pools_get_at_least_one(self):
        sizes = aligned_batch_sizes((1000, 1, 1), 3)
        assert sizes == (1, 1, 1)

    def test_total_preserved(self):
        for total in range(3, 40):
            assert sum(aligned_batch_sizes((17, 5, 29), total)) == total

    def test_all_empty(self):
        with pytest.raises(Infeasible):
            aligned_batch_sizes((0, 0, 0), 4)

    def test_batch_smaller_than_pool_count(self):
        with pytest.raises(Infeasible):
            aligned_batch_sizes((5, 5, 5), 2)

    def test_single_pool_takes_the_whole_batch(self):
        assert aligned_batch_sizes((5,), 12) == (12,)
        assert aligned_batch_sizes((0, 7, 0), 4) == (0, 4, 0)

    def test_negative_size(self):
        with pytest.raises(ValueOutOfRange):
            aligned_batch_sizes((5, -1, 5), 4)

    @given(
        st.tuples(
            st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 5000)
        ),
        st.integers(3, 256),
    )
    @settings(max_examples=100, deadline=None)
    def test_allocation_properties(self, sizes, total):
        if sum(sizes) == 0:
            return
        try:
            alloc = aligned_batch_sizes(sizes, total)
        except Infeasible:
            assert total < sum(1 for s in sizes if s > 0)
            return
        assert sum(alloc) == total
        for s, b in zip(sizes, alloc):
            assert (b == 0) == (s == 0)


def walk(pools, batch_sizes, seed=0, epoch=0, shuffle=True):
    """The iterator's batches as row lists, each pool k shuffled by the
    key (seed, epoch, k) of a basic-task run."""
    rngs = [np.random.default_rng([seed, epoch, k]) if shuffle else None for k in range(len(pools))]
    return [b.tolist() for b in epoch_iterator(pools, batch_sizes, rngs)]


class TestEpochIterator:
    def make_pools(self):
        # rows 0-6 are VA, 7-11 AU and 12-17 EXPR, with chunk sizes 3, 2, 2
        return (np.arange(7), np.arange(7, 12), np.arange(12, 18)), (3, 2, 2)

    def test_each_row_exactly_once(self):
        pools, sizes = self.make_pools()
        seen = Counter(r for batch in walk(pools, sizes) for r in batch)
        assert seen == Counter(range(18))

    def test_batches_join_one_chunk_of_each_pool_in_pool_order(self):
        pools, sizes = self.make_pools()
        batches = walk(pools, sizes)
        assert [len(b) for b in batches] == [7, 7, 4]  # VA 3+3+1, AU 2+2+1, EXPR 2+2+2
        for batch in batches[:2]:
            assert all(r < 7 for r in batch[:3])
            assert all(7 <= r < 12 for r in batch[3:5])
            assert all(12 <= r for r in batch[5:])

    def test_batches_are_int_arrays(self):
        pools, sizes = self.make_pools()
        for batch in epoch_iterator(pools, sizes, [None] * 3):
            assert isinstance(batch, np.ndarray) and batch.dtype.kind == "i"

    def test_deterministic_per_seed_and_epoch(self):
        pools, sizes = self.make_pools()
        assert walk(pools, sizes, seed=5, epoch=2) == walk(pools, sizes, seed=5, epoch=2)

    def test_epochs_reshuffle(self):
        pools, sizes = self.make_pools()
        assert walk(pools, sizes, seed=5, epoch=0) != walk(pools, sizes, seed=5, epoch=1)

    def test_shuffle_off_is_sequential(self):
        pools, sizes = self.make_pools()
        first = walk(pools, sizes, shuffle=False)[0]
        assert first == [0, 1, 2, 7, 8, 12, 13]

    def test_short_final_chunk(self):
        batches = walk((np.arange(3), np.arange(0), np.arange(0)), (2, 0, 0), shuffle=False)
        assert batches == [[0, 1], [2]]

    def test_epoch_length_is_slowest_pool(self):
        pools = (np.arange(10), np.arange(10, 13), np.arange(20, 27))
        assert len(walk(pools, (2, 1, 4))) == 5  # va: 5, au: 3, expr: 2 chunks

    def test_all_pools_empty(self):
        empty = np.arange(0)
        assert walk((empty, empty, empty), (0, 0, 0)) == []

    def test_exactly_once_on_random_pools(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            counts = rng.integers(1, 60, size=3)
            ends = np.cumsum(counts)
            pools = [np.arange(end - c, end) for c, end in zip(counts, ends)]
            total = int(rng.integers(3, 12))
            sizes = aligned_batch_sizes([len(p) for p in pools], total)
            seen = Counter(r for batch in walk(pools, sizes, seed=trial) for r in batch)
            assert seen == Counter(range(int(ends[-1])))


def random_pools(rng, n_pools, max_size):
    """Disjoint pools of rows in file order, some of them empty, as a
    training split's rows would fall into task pools."""
    sizes = rng.integers(0, max_size + 1, size=n_pools) * (rng.random(n_pools) < 0.8)
    task = rng.permutation(np.repeat(np.arange(n_pools), sizes))
    return [np.flatnonzero(task == k) for k in range(n_pools)]


def test_basic_task_batches_equal_the_id_tuple_oracle():
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(300):
        pools = random_pools(rng, 3, 40)
        sizes = [len(p) for p in pools]
        if not any(sizes):
            continue
        total = int(rng.integers(sum(s > 0 for s in sizes), 31))
        batch_sizes = aligned_batch_sizes(sizes, total)
        seed, epoch = int(rng.integers(0, 2**31)), int(rng.integers(0, 40))
        shuffle = bool(rng.random() < 0.7)
        partition = ref.TaskPartition(*(tuple(p.tolist()) for p in pools), batch_sizes)
        want = [list(b.all_ids()) for b in ref.epoch_iterator(partition, seed, epoch, shuffle)]
        assert walk(pools, batch_sizes, seed, epoch, shuffle) == want
        checked += 1
    assert checked > 250


def test_compound_batches_equal_the_separate_chunker():
    rng = np.random.default_rng(21)
    for _ in range(100):
        (pool,) = random_pools(rng, 1, 60)
        if not pool.size:
            continue
        total = int(rng.integers(1, 25))
        seed, epoch = int(rng.integers(0, 2**31)), int(rng.integers(0, 40))
        shuffle = bool(rng.random() < 0.7)
        batch_sizes = aligned_batch_sizes([pool.size], total)
        assert batch_sizes == (total,)
        rngs = [np.random.default_rng([seed, epoch]) if shuffle else None]
        got = [b.tolist() for b in epoch_iterator((pool,), batch_sizes, rngs)]
        chunks = ref.compound_chunks(tuple(pool.tolist()), total, seed, epoch, shuffle)
        want = [list(c) for c in chunks]
        assert got == want
