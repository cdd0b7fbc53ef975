import random

import pytest

from robocache.errors import ConfigError
from robocache.netlink import LinkConfig, SatelliteLink


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
    link = SatelliteLink(make_config(), random.Random(1))
    delivered_at, losses, stall = link.round_trip(now=1000.0)
    assert delivered_at == 1500.0
    assert losses == 0
    assert stall == 0.0
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
    link = SatelliteLink(config, random.Random(3))
    for _ in range(200):
        before = (link.stats.messages_lost, link.stats.lock_events)
        now = 50.0
        delivered_at, losses, stall = link.round_trip(now)
        lost = link.stats.messages_lost - before[0]
        locked = link.stats.lock_events - before[1]
        assert losses == lost
        assert stall == (40.0 if locked else 0.0)
        assert delivered_at == now + lost * 600.0 + 500.0 + stall


def test_mean_losses_match_geometric_distribution():
    # p=0.5 gives mean losses p/(1-p) = 1.0 per message
    link = SatelliteLink(make_config(loss_probability=0.5), random.Random(42))
    n = 10_000
    for _ in range(n):
        link.round_trip(now=0.0)
    mean_losses = link.stats.messages_lost / n
    assert abs(mean_losses - 1.0) <= 0.05
    assert link.stats.retransmissions == link.stats.messages_lost
    assert link.stats.messages_sent == n + link.stats.messages_lost


def test_lock_rate_converges_to_lock_probability():
    link = SatelliteLink(make_config(lock_probability=0.3), random.Random(7))
    n = 100_000
    for _ in range(n):
        link.round_trip(now=0.0)
    delivered = link.stats.messages_delivered
    assert delivered == n
    rate = link.stats.lock_events / delivered
    assert abs(rate - 0.3) <= 0.3 * 0.05
    assert link.stats.total_stall_time_ms == link.stats.lock_events * 40.0


def test_identical_seed_and_call_order_give_identical_outcomes():
    config = make_config(loss_probability=0.2, lock_probability=0.1)

    def stream():
        link = SatelliteLink(config, random.Random(99))
        return [link.round_trip(now=float(i)) for i in range(500)], link.stats

    first_outcomes, first_stats = stream()
    second_outcomes, second_stats = stream()
    assert first_outcomes == second_outcomes
    assert first_stats == second_stats
