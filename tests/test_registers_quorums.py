"""Tests for quorum arithmetic and counting helpers."""

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.registers.base import QuorumParams, first_k, value_with_quorum
from repro.registers.messages import BOT


class TestQuorumParams:
    def test_async_resilience_bound(self):
        assert QuorumParams(n=9, t=1).satisfies_resilience
        assert not QuorumParams(n=8, t=1).satisfies_resilience
        assert QuorumParams(n=17, t=2).satisfies_resilience
        assert not QuorumParams(n=16, t=2).satisfies_resilience

    def test_sync_resilience_bound(self):
        assert QuorumParams(n=4, t=1, synchronous=True).satisfies_resilience
        assert not QuorumParams(n=3, t=1, synchronous=True).satisfies_resilience
        assert QuorumParams(n=7, t=2, synchronous=True).satisfies_resilience

    def test_require_resilience_raises(self):
        with pytest.raises(ValueError):
            QuorumParams(n=8, t=1).require_resilience()
        QuorumParams(n=9, t=1).require_resilience()  # no error

    def test_async_quorum_sizes(self):
        params = QuorumParams(n=9, t=1)
        assert params.ack_quorum == 8        # n - t
        assert params.value_quorum == 3      # 2t + 1
        assert params.help_quorum == 5       # 4t + 1
        assert params.sync_quorum == 7       # n - 2t

    def test_sync_quorum_sizes(self):
        params = QuorumParams(n=4, t=1, synchronous=True)
        assert params.ack_quorum == 4        # all n
        assert params.value_quorum == 2      # t + 1
        assert params.help_quorum == 2       # t + 1

    def test_zero_byzantine(self):
        params = QuorumParams(n=3, t=0)
        assert params.satisfies_resilience
        assert params.value_quorum == 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            QuorumParams(n=0, t=0)
        with pytest.raises(ValueError):
            QuorumParams(n=5, t=-1)


class TestValueWithQuorum:
    def test_finds_quorum_value(self):
        assert value_with_quorum(["a", "a", "a", "b"], 3) == "a"

    def test_no_quorum_returns_none(self):
        assert value_with_quorum(["a", "a", "b", "b"], 3) is None

    def test_picks_most_common_when_several_qualify(self):
        values = ["x"] * 5 + ["y"] * 3
        assert value_with_quorum(values, 3) == "x"

    def test_exclude_bot_skips_bottom(self):
        values = [BOT] * 5 + ["w"] * 3
        assert value_with_quorum(values, 3, exclude_bot=True) == "w"
        assert value_with_quorum(values, 3, exclude_bot=False) is BOT

    def test_exclude_bot_no_other_quorum(self):
        values = [BOT] * 5 + ["w"] * 2
        assert value_with_quorum(values, 3, exclude_bot=True) is None

    def test_empty_input(self):
        assert value_with_quorum([], 1) is None

    def test_unhashable_safe_values_pairs(self):
        values = [(1, "v")] * 3 + [(2, "w")]
        assert value_with_quorum(values, 3) == (1, "v")

    def test_unhashable_application_values(self):
        """Register values may be dicts/lists (e.g. the KV store)."""
        values = [{"role": "admin"}] * 3 + [{"role": "guest"}]
        assert value_with_quorum(values, 3) == {"role": "admin"}
        values = [[1, 2]] * 2 + [[3]]
        assert value_with_quorum(values, 3) is None

    def test_mixed_hashable_and_unhashable(self):
        values = ["x", {"a": 1}, {"a": 1}, {"a": 1}]
        assert value_with_quorum(values, 3) == {"a": 1}

    # ``2t + 1`` equal values out of ``n - t`` replies leave room for two
    # simultaneous winners: the choice between them is part of the
    # protocol's determinism.
    def test_two_winners_higher_count_wins_wherever_it_appears(self):
        assert value_with_quorum(["a"] * 3 + ["b"] * 4, 3) == "b"
        assert value_with_quorum(["b", "a", "a", "b", "a", "b", "b"], 3) == "b"

    def test_two_winners_equal_counts_first_seen_wins(self):
        assert value_with_quorum(["a", "b", "b", "a", "b", "a"], 3) == "a"
        assert value_with_quorum(["b", "a", "b", "a", "b", "a"], 3) == "b"

    def test_leading_bot_is_skipped_not_a_stopper(self):
        values = [BOT, "w", BOT, "w", BOT, "w", BOT, "v"]
        assert value_with_quorum(values, 3, exclude_bot=True) == "w"
        assert value_with_quorum(values, 3) is BOT
        assert value_with_quorum([BOT] * 4 + ["w"] * 4, 4) is BOT
        assert value_with_quorum(["w"] * 4 + [BOT] * 4, 4) == "w"

    def test_equal_numbers_count_together_first_representative_returned(self):
        agreed = value_with_quorum([1, 1.0, True, 2], 3)
        assert agreed == 1 and type(agreed) is int
        agreed = value_with_quorum([True, 1, 1.0], 3)
        assert agreed is True
        assert value_with_quorum([1, "1", 1.0], 3) is None

    def test_unhashable_values_are_keyed_by_type_and_repr(self):
        first = {"a": 1}
        agreed = value_with_quorum([first, {"a": 1}, {"a": 1}, [1]], 3)
        assert agreed is first
        # same repr, different type: not the same value
        assert value_with_quorum([[1, 2], [1, 2], (1, 2)], 3) is None
        # a pair whose value part is unhashable (a KV value in a wsn pair)
        pairs = [(4, {"v": 1})] * 2 + [(4, {"v": 1}), (5, {"v": 1})]
        assert value_with_quorum(pairs, 3) == (4, {"v": 1})
        # two unhashable winners: higher count, then first seen
        values = [[1]] * 3 + [[2]] * 4
        assert value_with_quorum(values, 3) == [2]
        values = [[2], [1], [1], [2], [1], [2]]
        assert value_with_quorum(values, 3) == [2]

    def test_garbage_tokens_never_help_a_quorum(self):
        tokens = [("garbage", f"s{index}", "last_val") for index in range(8)]
        assert value_with_quorum(tokens, 2) is None
        assert value_with_quorum(tokens + ["v", "v"], 2) == "v"


def _reference_value_with_quorum(values, quorum, exclude_bot=False):
    """The multi-pass tally the one-pass ``value_with_quorum`` replaced:
    explicit count keys, ``Counter`` and a stable ``most_common`` sort."""
    def count_key(value):
        try:
            hash(value)
            return value
        except TypeError:
            return ("__unhashable__", type(value).__name__, repr(value))

    representatives = {}
    counter = Counter()
    for value in values:
        key = count_key(value)
        representatives.setdefault(key, value)
        counter[key] += 1
    for key, count in counter.most_common():
        if count < quorum:
            break
        value = representatives[key]
        if exclude_bot and value is BOT:
            continue
        return value
    return None


_VALUES = st.sampled_from([
    BOT, "a", "b", 1, 1.0, True, (1, "a"), (1, ["a"]), ["a"], {"k": 1},
    ("__unhashable__", "list", "['a']"), ("garbage", "s1", "last_val")])


@given(values=st.lists(_VALUES, max_size=12), quorum=st.integers(1, 6),
       exclude_bot=st.booleans())
def test_one_pass_tally_agrees_with_the_reference(values, quorum,
                                                  exclude_bot):
    expected = _reference_value_with_quorum(values, quorum, exclude_bot)
    agreed = value_with_quorum(values, quorum, exclude_bot)
    assert type(agreed) is type(expected) and agreed == expected
    # unhashable values are returned by identity: the first one seen
    if isinstance(expected, (list, dict)):
        assert agreed is expected


class TestFirstK:
    def test_takes_first_in_insertion_order(self):
        replies = {"s1": "a", "s2": "b", "s3": "c"}
        assert first_k(replies, 2) == [("s1", "a"), ("s2", "b")]

    def test_fewer_than_k(self):
        replies = {"s1": "a"}
        assert first_k(replies, 5) == [("s1", "a")]
