"""Unit tests for partitioning utilities."""

import json
import subprocess
import sys

import pytest

from repro.engine.partition import (
    concat_partitions,
    hash_partition,
    partition_rows,
    stable_hash,
)
from repro.nested.values import Bag, DataItem, NestedSet


class TestPartitionRows:
    def test_even_split(self):
        partitions = partition_rows(list(range(8)), 4)
        assert [len(partition) for partition in partitions] == [2, 2, 2, 2]

    def test_remainder_spread_to_front(self):
        partitions = partition_rows(list(range(10)), 4)
        assert [len(partition) for partition in partitions] == [3, 3, 2, 2]

    def test_order_reconstructable(self):
        rows = list(range(17))
        assert concat_partitions(partition_rows(rows, 5)) == rows

    def test_more_partitions_than_rows(self):
        partitions = partition_rows([1], 4)
        assert sum(len(partition) for partition in partitions) == 1
        assert len(partitions) == 4

    def test_empty_input(self):
        assert partition_rows([], 3) == [[], [], []]

    def test_invalid_partition_count(self):
        with pytest.raises(ValueError):
            partition_rows([1], 0)


class TestHashPartition:
    def test_same_key_same_partition(self):
        rows = [("a", 1), ("b", 2), ("a", 3)]
        partitions = hash_partition(rows, 3, key_of=lambda row: row[0])
        for partition in partitions:
            keys = {key for key, _ in partition}
            # "a" rows must be co-located.
            if "a" in keys:
                assert [row for row in partition if row[0] == "a"] == [("a", 1), ("a", 3)]

    def test_all_rows_preserved(self):
        rows = list(range(100))
        partitions = hash_partition(rows, 7, key_of=lambda row: row % 10)
        assert sorted(concat_partitions(partitions)) == rows

    def test_order_within_partition_is_arrival_order(self):
        rows = [(1, "x"), (1, "y"), (1, "z")]
        partitions = hash_partition(rows, 4, key_of=lambda row: row[0])
        non_empty = [partition for partition in partitions if partition]
        assert non_empty == [[(1, "x"), (1, "y"), (1, "z")]]


class TestStableHash:
    """The shuffle hash must not depend on ``PYTHONHASHSEED``.

    The builtin ``hash()`` the shuffle previously used is randomized per
    interpreter for strings, so two recorded runs of the same pipeline
    could assign the same row to different partitions.
    """

    def test_equal_keys_across_numeric_types_share_buckets(self):
        # Python equality crosses numeric types; grouping relies on it.
        assert stable_hash(1) == stable_hash(True) == stable_hash(1.0)
        assert stable_hash(0) == stable_hash(False) == stable_hash(0.0)
        assert stable_hash(("a", 2)) == stable_hash(("a", 2.0))

    def test_distinct_values_do_not_collide_structurally(self):
        values = [None, 0, 1, "", "1", 1.5, (), ("",), ("1",), (1,)]
        hashes = [stable_hash(value) for value in values]
        assert len(set(hashes)) == len(hashes)

    def test_model_values_hash(self):
        item = DataItem({"user": {"id_str": "lp"}, "retweet_count": 0})
        assert stable_hash(item) == stable_hash(
            DataItem({"user": {"id_str": "lp"}, "retweet_count": 0})
        )
        assert stable_hash(Bag([1, 2])) != stable_hash(NestedSet([1, 2]))
        assert stable_hash(Bag([1, 2])) != stable_hash(Bag([2, 1]))

    def test_assignment_pinned_across_subprocesses(self):
        """Run the same shuffle in fresh interpreters with different hash
        seeds; the per-key bucket assignment must be identical every time."""
        script = (
            "import json, sys\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.engine.partition import hash_partition\n"
            "from repro.nested.values import DataItem\n"
            "keys = ['alpha', 'beta', 'gamma', 7, 7.0, True, None,\n"
            "        ('joint', 3), DataItem({'k': 'v'})]\n"
            "rows = [(key, index) for index, key in enumerate(keys)]\n"
            "parts = hash_partition(rows, 4, key_of=lambda row: row[0])\n"
            "print(json.dumps([[index for _, index in part] for part in parts]))\n"
        )
        outputs = []
        for seed in ("0", "1", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONHASHSEED": seed, "PYTHONPATH": "src"},
                cwd=".",
            )
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1] == outputs[2]
        # And the parent process (whatever its seed) agrees with them.
        keys = [
            "alpha", "beta", "gamma", 7, 7.0, True, None,
            ("joint", 3), DataItem({"k": "v"}),
        ]
        rows = list(zip(keys, range(len(keys))))
        parts = hash_partition(rows, 4, key_of=lambda row: row[0])
        assert [[index for _, index in part] for part in parts] == outputs[0]
