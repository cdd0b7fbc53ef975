#!/usr/bin/env python3
"""Exercise the satellite link model: latency, loss, locks.

Sends ten requests through a lossy link in one bulk call and prints each
round trip (round_trip returns, per request, when the response lands, how
many copies were lost and any lock stall), then pushes 100k requests
through in a second call to show the loss and lock rates converging on
their configured probabilities.
"""

import numpy as np

from robocache import LinkConfig, SatelliteLink


def main():
    config = LinkConfig(
        one_way_latency_ms=250.0,
        loss_probability=0.25,
        lock_probability=0.10,
        lock_stall_ms=40.0,
        retransmit_timeout_ms=600.0,
    )
    link = SatelliteLink(config, seed=7)

    print("ten requests over a lossy link (one-way 250 ms, timeout 600 ms):")
    delivered_at, losses, stall = link.round_trip(np.zeros(10))
    for i in range(10):
        parts = [f"round trip {delivered_at[i]:7.1f} ms"]
        if losses[i]:
            parts.append(f"{losses[i]} loss(es)")
        if stall[i]:
            parts.append(f"lock stall {stall[i]:.0f} ms")
        print(f"  request {i}: " + ", ".join(parts))

    n = 100_000
    link = SatelliteLink(config, seed=99)
    link.round_trip(np.zeros(n))
    stats = link.stats
    print(f"\nafter {n} requests:")
    print(f"  messages sent     {stats.messages_sent} (includes {stats.retransmissions} retransmissions)")
    print(f"  loss rate         {stats.messages_lost / n:.4f} per request (configured mean {0.25/0.75:.4f})")
    print(f"  lock rate         {stats.lock_events / stats.messages_delivered:.4f} (configured {config.lock_probability})")
    print(f"  total stall       {stats.total_stall_time_ms / 1000:.1f} s")


if __name__ == "__main__":
    main()
