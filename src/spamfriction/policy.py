"""Delivery policy: map a spam score and sender identity to a resistance
decision, track repeat refusers in the sin bin, and compute the analytic
cost economics.

The default posture is a single resistance level: one threshold, one
difficulty.  Graduated buckets are opt-in and deliberately coarse, and a
few bits of random jitter can be layered on so the demanded difficulty
leaks less about the underlying filter.
"""
from __future__ import annotations

import enum
import math
import random
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import NamedTuple

from .puzzle import MAX_DIFFICULTY
from .scoring import SpamScore

MAX_JITTER_BITS = 4


class DecisionKind(enum.Enum):
    ACCEPT = "accept"
    RESIST = "resist"
    BLOCKED = "blocked"


@dataclass(frozen=True)
class Decision:
    """Accept now, resist with a difficulty, or sin-bin block until a time."""

    kind: DecisionKind
    difficulty: int | None = None
    blocked_until: float | None = None

    def __post_init__(self) -> None:
        if self.kind is DecisionKind.RESIST:
            if self.difficulty is None or not 0 <= self.difficulty <= MAX_DIFFICULTY:
                raise ValueError(f"resist decisions need a difficulty in [0, {MAX_DIFFICULTY}]")
        if self.kind is DecisionKind.BLOCKED and self.blocked_until is None:
            raise ValueError("blocked decisions need a blocked_until time")

    @classmethod
    def accept(cls) -> "Decision":
        return cls(DecisionKind.ACCEPT)

    @classmethod
    def resist(cls, difficulty: int) -> "Decision":
        return cls(DecisionKind.RESIST, difficulty=difficulty)

    @classmethod
    def blocked(cls, until: float) -> "Decision":
        return cls(DecisionKind.BLOCKED, blocked_until=until)


@dataclass
class SinBinConfig:
    max_refusals: int = 3          # K refusals ...
    window: float = 3600.0         # ... within W seconds ...
    block_duration: float = 14400.0  # ... block for T seconds

    def __post_init__(self) -> None:
        if self.max_refusals < 1:
            raise ValueError("max_refusals must be at least 1")
        for name in ("window", "block_duration"):
            if not 0 < getattr(self, name) < math.inf:  # NaN too
                raise ValueError(f"{name} must be finite and positive")


@dataclass
class PolicyConfig:
    resist_threshold: float = 0.05
    mode: str = "single-level"
    base_difficulty: int = 20
    graduated_buckets: list[tuple[float, int]] = field(default_factory=list)
    jitter_bits: int = 0
    whitelist: frozenset[str] = frozenset()
    sinbin: SinBinConfig = field(default_factory=SinBinConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.resist_threshold <= 1.0:
            raise ValueError("resist_threshold must lie in [0, 1]")
        if self.mode not in ("single-level", "graduated"):
            raise ValueError(f"unknown policy mode: {self.mode!r}")
        if not 0 <= self.base_difficulty <= MAX_DIFFICULTY:
            raise ValueError(f"base_difficulty must lie in [0, {MAX_DIFFICULTY}]")
        if not 0 <= self.jitter_bits <= MAX_JITTER_BITS:
            raise ValueError(f"jitter_bits must lie in [0, {MAX_JITTER_BITS}]")
        if self.mode == "graduated":
            if not self.graduated_buckets:
                raise ValueError("graduated mode needs at least one bucket")
            bounds = [b for b, _ in self.graduated_buckets]
            diffs = [d for _, d in self.graduated_buckets]
            if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
                raise ValueError("bucket score bounds must be strictly ascending")
            if diffs != sorted(diffs):
                raise ValueError("bucket difficulties must be non-decreasing in score")
            if any(not 0 <= d <= MAX_DIFFICULTY for d in diffs):
                raise ValueError(f"bucket difficulties must lie in [0, {MAX_DIFFICULTY}]")
        self.whitelist = frozenset(entry.casefold() for entry in self.whitelist)


class SinBin:
    """Per-host refusal tracking with temporary blocks.

    A host that declines the delivery burden ``max_refusals`` times within
    ``window`` seconds is blocked for ``block_duration`` seconds.  A
    successful delivery clears the host's refusal ring.  All updates are
    atomic per call.

    Both maps are kept in the order of each host's latest update, and each
    call that knows the time drops stale hosts from their front, so only
    hosts that refused within ``window`` or are still blocked are kept.
    Answers come from the host's own timestamps; a clock that steps back
    only delays that reclamation.
    """

    def __init__(self, config: SinBinConfig | None = None):
        self.config = config or SinBinConfig()
        self._refusals: OrderedDict[str, deque[float]] = OrderedDict()
        self._blocked_until: OrderedDict[str, float] = OrderedDict()
        self._lock = threading.Lock()

    def _prune(self, now: float) -> None:
        # caller holds the lock
        horizon = now - self.config.window
        refusals = self._refusals
        while refusals and refusals[next(iter(refusals))][-1] <= horizon:
            refusals.popitem(last=False)
        blocks = self._blocked_until
        while blocks and blocks[next(iter(blocks))] <= now:
            blocks.popitem(last=False)

    def blocked_until(self, host: str, now: float) -> float | None:
        """The block expiry for this host, or None if it may deliver."""
        with self._lock:
            self._prune(now)
            until = self._blocked_until.get(host)
            if until is None or until <= now:
                return None
            return until

    def record_refusal(self, host: str, now: float) -> None:
        cfg = self.config
        with self._lock:
            self._prune(now)
            ring = self._refusals.pop(host, None) or deque()
            ring.append(now)
            while ring[0] <= now - cfg.window:
                ring.popleft()
            if len(ring) >= cfg.max_refusals:
                self._blocked_until[host] = now + cfg.block_duration
                self._blocked_until.move_to_end(host)
            else:
                self._refusals[host] = ring

    def record_success(self, host: str) -> None:
        with self._lock:
            self._refusals.pop(host, None)


def _whitelisted(sender_host: str, sender_addr: str, whitelist: frozenset[str]) -> bool:
    host = sender_host.casefold()
    addr = sender_addr.casefold()
    for pattern in whitelist:
        if fnmatchcase(addr, pattern) or fnmatchcase(host, pattern):
            return True
    return False


def _bucket_difficulty(score: float, buckets: list[tuple[float, int]]) -> int:
    for upper, difficulty in buckets:
        if score <= upper:
            return difficulty
    # above every bound: apply the top bucket
    return buckets[-1][1]


def decide(
    score: SpamScore,
    sender_host: str,
    sender_addr: str,
    config: PolicyConfig,
    sinbin: SinBin,
    rng: random.Random,
    now: float,
) -> Decision:
    """Turn a spam score into a resistance decision.

    Whitelisted senders are never resisted, whatever the score.  Sin-binned
    hosts are blocked outright.  Below the threshold delivery is free;
    above it the configured difficulty applies, optionally jittered by up
    to ``jitter_bits`` in either direction (clamped to [0, 64]).
    """
    if _whitelisted(sender_host, sender_addr, config.whitelist):
        return Decision.accept()
    until = sinbin.blocked_until(sender_host, now)
    if until is not None:
        return Decision.blocked(until)
    if score.value < config.resist_threshold:
        return Decision.accept()
    if config.mode == "graduated":
        difficulty = _bucket_difficulty(score.value, config.graduated_buckets)
    else:
        difficulty = config.base_difficulty
    if config.jitter_bits:
        difficulty += rng.randint(-config.jitter_bits, config.jitter_bits)
    difficulty = min(MAX_DIFFICULTY, max(0, difficulty))
    return Decision.resist(difficulty)


class CostModel(NamedTuple):
    ham_avg_cost: float
    spam_avg_cost: float
    advantage_ratio: float


def expected_costs(
    false_positive_rate: float,
    false_negative_rate: float,
    burden_seconds: float,
) -> CostModel:
    """Analytic per-message economics of a single-level burden.

    Ham pays the burden on false positives only, spam on every correct
    detection; the advantage ratio is the spam average over the ham average
    (infinite for a perfect filter that never misfires on ham).
    """
    for name, rate in (
        ("false_positive_rate", false_positive_rate),
        ("false_negative_rate", false_negative_rate),
    ):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"{name} must lie in [0, 1)")
    if burden_seconds < 0:
        raise ValueError("burden_seconds must be non-negative")
    ham_avg = false_positive_rate * burden_seconds
    spam_avg = (1.0 - false_negative_rate) * burden_seconds
    if false_positive_rate == 0.0:
        ratio = math.inf
    elif ham_avg > 0.0:
        ratio = spam_avg / ham_avg
    else:
        # zero burden: the burden cancels, leaving the pure rate quotient
        ratio = (1.0 - false_negative_rate) / false_positive_rate
    return CostModel(ham_avg, spam_avg, ratio)
