import random

import numpy as np
import pytest

from robocache import netlink
from robocache.errors import ConfigError
from robocache.netlink import LinkConfig, SatelliteLink

from reference import ReferenceLink


def make_config(**overrides):
    values = dict(
        one_way_latency_ms=250.0,
        loss_probability=0.0,
        lock_probability=0.0,
        lock_stall_ms=40.0,
        retransmit_timeout_ms=600.0,
    )
    values.update(overrides)
    return LinkConfig(**values)


def test_lossless_lockless_round_trip_is_exactly_two_one_way_latencies():
    link = SatelliteLink(make_config(), 1)
    delivered_at, losses, stall = link.round_trip([1000.0])
    assert delivered_at.tolist() == [1500.0]
    assert losses.tolist() == [0]
    assert stall.tolist() == [0.0]
    assert link.stats.messages_sent == 1
    assert link.stats.messages_lost == 0


def test_loss_probability_one_is_rejected_at_construction():
    with pytest.raises(ConfigError):
        make_config(loss_probability=1.0)


def test_timeout_below_round_trip_is_rejected():
    with pytest.raises(ConfigError):
        make_config(retransmit_timeout_ms=499.0)


def test_negative_latency_and_bad_probabilities_are_rejected():
    with pytest.raises(ConfigError):
        make_config(one_way_latency_ms=0.0)
    with pytest.raises(ConfigError):
        make_config(lock_probability=-0.1)
    with pytest.raises(ConfigError):
        make_config(lock_probability=1.0)


def test_delivery_time_accounts_for_losses_and_stall():
    config = make_config(loss_probability=0.5, lock_probability=0.5)
    link = SatelliteLink(config, 3)
    now = np.arange(200) * 50.0
    delivered_at, losses, stall = link.round_trip(now)
    assert link.stats.messages_lost == losses.sum()
    assert link.stats.lock_events == np.count_nonzero(stall)
    assert set(stall.tolist()) == {0.0, 40.0}
    for k in range(200):
        assert delivered_at[k] == now[k] + losses[k] * 600.0 + 500.0 + stall[k]


def test_mean_losses_match_geometric_distribution():
    # p=0.5 gives mean losses p/(1-p) = 1.0 per message
    link = SatelliteLink(make_config(loss_probability=0.5), 42)
    n = 10_000
    link.round_trip(np.zeros(n))
    mean_losses = link.stats.messages_lost / n
    assert abs(mean_losses - 1.0) <= 0.05
    assert link.stats.retransmissions == link.stats.messages_lost
    assert link.stats.messages_sent == n + link.stats.messages_lost


def test_lock_rate_converges_to_lock_probability():
    link = SatelliteLink(make_config(lock_probability=0.3), 7)
    n = 100_000
    link.round_trip(np.zeros(n))
    delivered = link.stats.messages_delivered
    assert delivered == n
    rate = link.stats.lock_events / delivered
    assert abs(rate - 0.3) <= 0.3 * 0.05
    assert link.stats.total_stall_time_ms == link.stats.lock_events * 40.0


def test_identical_seed_and_call_order_give_identical_outcomes():
    config = make_config(loss_probability=0.2, lock_probability=0.1)

    def stream():
        link = SatelliteLink(config, 99)
        outcomes = [link.round_trip(np.arange(i, i + 50, dtype=float)) for i in range(0, 500, 50)]
        return [array.tolist() for outcome in outcomes for array in outcome], link.stats

    first_outcomes, first_stats = stream()
    second_outcomes, second_stats = stream()
    assert first_outcomes == second_outcomes
    assert first_stats == second_stats


def assert_link_matches_reference(config, seed, call_sizes):
    link = SatelliteLink(config, seed)
    ref = ReferenceLink(config, random.Random(seed))
    start = 0
    for size in call_sizes:
        now = np.arange(start, start + size) * 1.5
        start += size
        delivered_at, losses, stall = link.round_trip(now)
        expected = [ref.round_trip(t) for t in now.tolist()]
        assert delivered_at.tolist() == [d for d, _, _ in expected]
        assert losses.tolist() == [n for _, n, _ in expected]
        assert stall.tolist() == [s for _, _, s in expected]
        assert link.stats == ref.stats


@pytest.mark.parametrize("block_draws", [1, 2, 3, 7, 64])
@pytest.mark.parametrize(
    "loss, lock",
    [(0.0, 0.0), (0.0, 0.5), (0.3, 0.02), (0.5, 0.5), (0.9, 0.9), (0.99, 0.3)],
)
def test_round_trips_match_the_per_request_reference_across_block_edges(monkeypatch, block_draws, loss, lock):
    # Tiny blocks put loss runs and lock draws across every kind of block
    # edge; calls of 0, 1 and many requests share one stream.
    monkeypatch.setattr(netlink, "_BLOCK_DRAWS", block_draws)
    config = make_config(loss_probability=loss, lock_probability=lock, lock_stall_ms=12.5, retransmit_timeout_ms=537.25)
    assert_link_matches_reference(config, 20260808, [1, 0, 17, 1, 2, 60])


def test_round_trips_match_the_per_request_reference_at_full_block_size():
    config = make_config(loss_probability=0.3, lock_probability=0.02)
    assert_link_matches_reference(config, 2**64 - 1, [3, 40_000, 1, 30_000])


class CountingBits:
    """Wraps a bit generator and records the largest request for raw draws."""

    def __init__(self, bits):
        self.bits = bits
        self.largest = 0

    def random_raw(self, size):
        self.largest = max(self.largest, size)
        return self.bits.random_raw(size)


def test_long_loss_runs_are_drawn_in_bounded_blocks():
    # About 1,000 draws per request: 300 requests need some 300,000 draws.
    config = make_config(loss_probability=0.999)
    link = SatelliteLink(config, 5)
    link._bits = CountingBits(link._bits)
    link.round_trip(np.zeros(300))
    assert link.stats.messages_lost > 200_000
    assert link._bits.largest <= 2 * netlink._BLOCK_DRAWS
    assert len(link._unread) <= netlink._BLOCK_DRAWS + 1
