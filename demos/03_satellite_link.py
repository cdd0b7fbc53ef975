#!/usr/bin/env python3
"""Exercise the satellite link model: latency, loss, locks.

Sends a handful of requests through a lossy link and prints each round
trip (round_trip returns when the response lands, how many copies were
lost and any lock stall), then pushes 100k requests through to show the
loss and lock rates converging on their configured probabilities.
"""

import random

from robocache import LinkConfig, SatelliteLink


def main():
    config = LinkConfig(
        one_way_latency_ms=250.0,
        loss_probability=0.25,
        lock_probability=0.10,
        lock_stall_ms=40.0,
        retransmit_timeout_ms=600.0,
    )
    link = SatelliteLink(config, random.Random(7))

    print("ten requests over a lossy link (one-way 250 ms, timeout 600 ms):")
    for i in range(10):
        delivered_at, losses, stall = link.round_trip(now=0.0)
        parts = [f"round trip {delivered_at:7.1f} ms"]
        if losses:
            parts.append(f"{losses} loss(es)")
        if stall:
            parts.append(f"lock stall {stall:.0f} ms")
        print(f"  request {i}: " + ", ".join(parts))

    n = 100_000
    link = SatelliteLink(config, random.Random(99))
    for _ in range(n):
        link.round_trip(now=0.0)
    stats = link.stats
    print(f"\nafter {n} requests:")
    print(f"  messages sent     {stats.messages_sent} (includes {stats.retransmissions} retransmissions)")
    print(f"  loss rate         {stats.messages_lost / n:.4f} per request (configured mean {0.25/0.75:.4f})")
    print(f"  lock rate         {stats.lock_events / stats.messages_delivered:.4f} (configured {config.lock_probability})")
    print(f"  total stall       {stats.total_stall_time_ms / 1000:.1f} s")


if __name__ == "__main__":
    main()
