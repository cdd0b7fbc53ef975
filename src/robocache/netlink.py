"""Satellite hop and station contention model.

Loss and locks are two independent processes. Loss happens on the link:
each lost copy of a message is resent after a fixed timeout, without an
attempt limit, so every request is eventually answered. Locks happen at
the station while a request is serviced and stall only that request.

All draws come from the single seeded generator handed to the link at
construction, one loss run plus one lock draw per round trip, so a run's
outcome sequence is a pure function of (config, seed, call order).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass(frozen=True)
class LinkConfig:
    one_way_latency_ms: float
    loss_probability: float
    lock_probability: float
    lock_stall_ms: float
    retransmit_timeout_ms: float

    def __post_init__(self) -> None:
        problems = [f"{f.name} must be finite" for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if not self.one_way_latency_ms > 0:
            problems.append("one_way_latency_ms must be > 0")
        if not 0.0 <= self.loss_probability < 1.0:
            problems.append("loss_probability must lie in [0, 1)")
        if not 0.0 <= self.lock_probability < 1.0:
            problems.append("lock_probability must lie in [0, 1)")
        if self.lock_stall_ms < 0:
            problems.append("lock_stall_ms must be >= 0")
        if self.retransmit_timeout_ms < 2 * self.one_way_latency_ms:
            problems.append("retransmit_timeout_ms must be >= 2 * one_way_latency_ms")
        if problems:
            raise ConfigError("invalid link config: " + "; ".join(problems))


@dataclass
class LinkStats:
    messages_sent: int = 0
    messages_lost: int = 0
    retransmissions: int = 0
    lock_events: int = 0
    total_stall_time_ms: float = 0.0

    @property
    def messages_delivered(self) -> int:
        return self.messages_sent - self.messages_lost


class SatelliteLink:
    """One request/response channel; owned by a single simulation run."""

    def __init__(self, config: LinkConfig, rng: random.Random):
        self.config = config
        self._rng = rng
        self._requests = self._losses = self._lock_events = 0
        self._stall_ms = 0.0

    @property
    def stats(self) -> LinkStats:
        """The counts so far; each lost copy was sent again, so losses are also retransmissions."""
        losses = self._losses
        return LinkStats(self._requests + losses, losses, losses, self._lock_events, self._stall_ms)

    def round_trip(self, now: float) -> tuple[float, int, float]:
        """Send one request at ``now``; return (delivered_at, losses, stall).

        The response lands after any retransmissions and any lock stall at
        the station: now + losses * retransmit_timeout + 2 * one_way_latency + stall.
        """
        cfg = self.config
        losses = 0
        while self._rng.random() < cfg.loss_probability:
            losses += 1
        stall = 0.0
        if self._rng.random() < cfg.lock_probability:
            stall = cfg.lock_stall_ms
            self._lock_events += 1
            self._stall_ms += stall
        self._requests += 1
        self._losses += losses
        delivered_at = now + losses * cfg.retransmit_timeout_ms + 2 * cfg.one_way_latency_ms + stall
        return delivered_at, losses, stall
