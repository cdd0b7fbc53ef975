"""Satellite hop and station contention model.

Loss and locks are two independent processes. Loss happens on the link:
each lost copy of a message is resent after a fixed timeout, without an
attempt limit, so every request is eventually answered. Locks happen at
the station while a request is serviced and stall only that request.

All draws come from one Mersenne Twister, started in the state of
``random.Random(seed)``, and each draw is the value ``random()`` would
return: a round trip takes one loss run (draws below the loss
probability, ended by the first draw at or above it) and then one lock
draw. So a run's outcome sequence is a pure function of (config, seed,
request order), however the requests are split into calls.

``SatelliteLink.round_trip`` answers an array of requests in one call.
It draws the stream in blocks of at most ``_BLOCK_DRAWS`` values, finds
where every loss run ends with array operations (``_loss_run_ends``), and
carries a loss run or a lock draw that crosses a block edge into the next
block as a count, so memory stays bounded however long the runs. The
response times keep the float order of one request at a time:
``((now + losses * timeout) + 2 * one_way) + stall``, and the stall total
is a sequential sum in request order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

# The most random() values drawn at once; a block is sized to the requests
# left, so a short run draws less.
_BLOCK_DRAWS = 1 << 13


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


def _loss_run_ends(ended: np.ndarray) -> np.ndarray:
    """The draws that end a loss run, for requests from draw 0 of a block on.

    ``ended[i]`` says draw i is at or above the loss probability. A request
    whose loss run ends at draw t makes its lock draw at t + 1, and the next
    request starts at t + 2. Within a stretch of adjacent ending draws the
    requests therefore end at every other draw, and the chain enters each
    stretch at its first draw: it leaves the previous stretch at most two
    draws past that stretch's end, and the draws between two stretches are
    losses. The ends are the ending draws an even distance into their
    stretch.
    """
    draw = np.arange(len(ended))
    starts = ended.copy()
    starts[1:] &= ~ended[:-1]
    stretch_start = np.maximum.accumulate(np.where(starts, draw, 0))
    return np.flatnonzero(ended & ((draw - stretch_start) % 2 == 0))


class SatelliteLink:
    """One request/response channel; owned by a single simulation run."""

    def __init__(self, config: LinkConfig, seed: int):
        self.config = config
        state = random.Random(seed).getstate()[1]
        self._bits = np.random.MT19937()
        self._bits.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(state[:624], np.uint32), "pos": state[624]},
        }
        # Drawn but not yet used, from the next request's first draw on.
        self._unread = np.empty(0)
        self._requests = self._losses = self._lock_events = 0
        self._stall_ms = 0.0

    @property
    def stats(self) -> LinkStats:
        """The counts so far; each lost copy was sent again, so losses are also retransmissions."""
        losses = self._losses
        return LinkStats(self._requests + losses, losses, losses, self._lock_events, self._stall_ms)

    @np.errstate(over="ignore", invalid="ignore")  # inf, as in Python float arithmetic
    def round_trip(self, now) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Send one request at each time in ``now``, in order; return (delivered_at, losses, stall) arrays.

        Each response lands after any retransmissions and any lock stall at
        the station: now + losses * retransmit_timeout + 2 * one_way_latency + stall,
        summed left to right.
        """
        cfg = self.config
        now = np.asarray(now, np.float64)
        losses, locked = self._draw_requests(len(now))
        stall = np.where(locked, cfg.lock_stall_ms, 0.0)
        self._requests += len(now)
        self._losses += int(losses.sum())
        self._lock_events += int(np.count_nonzero(locked))
        self._stall_ms = float(np.add.accumulate(np.append(self._stall_ms, stall))[-1])
        delivered_at = now + losses * cfg.retransmit_timeout_ms + 2 * cfg.one_way_latency_ms + stall
        return delivered_at, losses, stall

    def _draw_requests(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The loss count and lock outcome of each of the next ``n`` requests."""
        loss_p = self.config.loss_probability
        lock_p = self.config.lock_probability
        losses = np.empty(n, np.int64)
        locked = np.empty(n, bool)
        done = carried = 0  # carried: losses of request ``done`` in earlier blocks
        draws = self._unread
        while True:
            ends = _loss_run_ends(draws >= loss_p)
            # Only a request whose lock draw is in the block is complete.
            ends = ends[: min(np.searchsorted(ends, len(draws) - 1), n - done)]
            start = 0
            if len(ends):
                block_losses = np.diff(ends, prepend=-2) - 2
                block_losses[0] += carried
                carried = 0
                losses[done : done + len(ends)] = block_losses
                locked[done : done + len(ends)] = draws[ends + 1] < lock_p
                done += len(ends)
                start = ends[-1] + 2
            rest = draws[start:]
            if done == n:
                self._unread = rest
                return losses, locked
            # Every draw left is a loss of the next request, but a last draw
            # may end its run before the block holds its lock draw.
            kept = rest[-1:] if len(rest) and rest[-1] >= loss_p else rest[:0]
            carried += len(rest) - len(kept)
            draws = np.concatenate((kept, self._uniforms(n - done)))

    def _uniforms(self, requests: int) -> np.ndarray:
        """The next block of random() values, about enough for ``requests`` more requests."""
        loss_p = self.config.loss_probability
        count = min(_BLOCK_DRAWS, int(requests * (2 + loss_p / (1 - loss_p)) * 1.05) + 64)
        # random() is (a >> 5, b >> 6) of two 32-bit outputs, as a 53-bit
        # fraction: (a * 2**26 + b) / 2**53, exact at every step.
        pairs = self._bits.random_raw(2 * count).reshape(-1, 2)
        pairs >>= np.array([5, 6], np.uint64)
        draws = pairs[:, 0] * 67108864.0
        draws += pairs[:, 1]
        draws /= 9007199254740992.0
        return draws
