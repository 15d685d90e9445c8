"""Spamminess scoring: a transparent builtin token model plus an external
scorer client speaking a one-line protocol.

The builtin scorer is deliberately simple -- a linear-logistic model over
case-folded tokens -- because the delivery policy only needs a deterministic
probability-like number in [0, 1].  Real filters plug in over the external
protocol: the client sends ``SCORE <byte-count>\\n<body-bytes>`` and reads
back a single line holding a decimal in [0, 1].

Scoring never blocks delivery decisions: any external failure (unreachable,
timeout, malformed or out-of-range reply) degrades to the configured
fallback score, which defaults to 0.0 so misbehaving scorers fail open.
"""
from __future__ import annotations

import math
import re
import socket
import threading
from dataclasses import dataclass, field

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# the builtin scorer folds and matches a body in slices that end at the
# first LF at or past every this many bytes, so the copies it holds do not
# grow with the body
_SLICE_BYTES = 65536


class ScorerUnavailable(Exception):
    """External scorer could not produce a usable score."""


@dataclass(frozen=True)
class SpamScore:
    """Probability-like spamminess in [0, 1].

    ``degraded`` marks scores that came from the fallback path rather than a
    working scorer.
    """

    value: float
    degraded: bool = False

    def __post_init__(self) -> None:
        if math.isnan(self.value):
            raise ValueError("spam score may not be NaN")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"spam score {self.value} outside [0, 1]")


@dataclass
class ScorerConfig:
    mode: str = "builtin"
    token_weights: dict[str, float] = field(default_factory=dict)
    endpoint: tuple[str, int] | None = None
    timeout: float = 5.0
    fallback: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("builtin", "external"):
            raise ValueError(f"unknown scorer mode: {self.mode!r}")
        if not 0.0 <= self.fallback <= 1.0 or math.isnan(self.fallback):
            raise ValueError("fallback score must lie in [0, 1]")
        if not 0 < self.timeout < math.inf:  # NaN too; 0 would make the socket non-blocking
            raise ValueError("timeout must be finite and positive")
        if self.mode == "external" and self.endpoint is None:
            raise ValueError("external scorer needs an endpoint")


def logistic(x: float) -> float:
    # split on sign to avoid exp overflow for very negative x
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _folded(body: bytes) -> str:
    return body.decode("utf-8", errors="replace").casefold()


def tokenize(body: bytes) -> list[str]:
    """Case-folded tokens split on whitespace and punctuation."""
    return _TOKEN_RE.findall(_folded(body))


def _weighted_token_re(token_weights: dict[str, float]) -> tuple[re.Pattern, re.Pattern] | None:
    """Two patterns whose ``findall`` over an LF-led, case-folded text gives
    exactly the tokens that carry a weight, in text order, or None when no
    key can be a token: the first for an ASCII text, the second for any.

    A key that ``_TOKEN_RE`` does not match whole is never a token, so it is
    left out.  Each match starts with the separator before its token, so the
    engine skips to the next separator in C instead of trying a match at
    every character; after case folding an ASCII text has no upper-case
    letters, so there ``[^a-z0-9]`` is the separator class ``[\\W_]``.  The
    keys form one alternation factored as a trie: a flat ``k1|k2|...`` would
    make the engine try every key at every separator.
    """
    trie: dict = {}
    for key in filter(_TOKEN_RE.fullmatch, token_weights):
        node = trie
        for char in key:
            node = node.setdefault(char, {})
        node[""] = {}  # a key ends here
    if not trie:
        return None
    token = "(" + _alternation(trie) + r")(?![^\W_])"
    return re.compile("[^a-z0-9]" + token), re.compile(r"[\W_]" + token)


def _alternation(node: dict) -> str:
    branches = []
    for char, child in node.items():
        if char:
            # a run of characters with no choice between them is one literal
            text = re.escape(char)
            while len(child) == 1 and "" not in child:
                (char, child), = child.items()
                text += re.escape(char)
            branches.append(text + _alternation(child))
    if not branches:
        return ""
    if len(branches) == 1 and "" not in node:
        return branches[0]
    # an optional group is greedy: a longer key is tried before one ending here
    return "(?:" + "|".join(branches) + ")" + ("?" if "" in node else "")


def _score(body: bytes, token_weights: dict[str, float], weighted: tuple[re.Pattern, re.Pattern] | None) -> float:
    # only weighted tokens move the sum, so only they are matched, in text
    # order, and no list of every token is built
    evidence = 0.0
    start = 0
    while weighted is not None and start < len(body):
        # a slice ends just after an LF: no token spans one and no UTF-8
        # sequence holds one, so slicing changes no match, and the LF put
        # before a slice stands for the character before it
        end = body.find(b"\n", start + _SLICE_BYTES) + 1 or len(body)
        text = "\n" + _folded(body[start:end])
        for key in weighted[not text.isascii()].findall(text):
            evidence += token_weights[key]
        start = end
    return logistic(evidence)


def builtin_score(body: bytes, token_weights: dict[str, float]) -> float:
    """logistic(sum of token weights); 0.5 for an empty body (no evidence)."""
    return _score(body, token_weights, _weighted_token_re(token_weights))


def external_score(body: bytes, endpoint: tuple[str, int], timeout: float = 5.0) -> float:
    """Round-trip the body to an external scorer; one connection per call.

    Raises :class:`ScorerUnavailable` on any transport or protocol problem,
    including replies outside [0, 1].
    """
    try:
        with socket.create_connection(endpoint, timeout=timeout) as conn:
            conn.sendall(b"SCORE %d\n" % len(body))
            conn.sendall(body)
            with conn.makefile("rb") as rfile:
                # the timeout set by create_connection bounds the read
                reply = rfile.readline(129).decode("ascii", errors="replace")
    except OSError as exc:
        raise ScorerUnavailable(f"scorer at {endpoint[0]}:{endpoint[1]}: {exc}") from exc
    if len(reply) > 128:
        raise ScorerUnavailable("scorer reply line too long")
    if not reply.endswith("\n"):
        raise ScorerUnavailable("scorer closed the connection mid-reply")
    try:
        value = float(reply.strip())
    except ValueError as exc:
        raise ScorerUnavailable(f"malformed scorer reply: {reply!r}") from exc
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise ScorerUnavailable(f"scorer reply out of range: {reply!r}")
    return value


class Scorer:
    """Stateful facade over the configured scoring mode.

    Reentrant: scoring holds no shared mutable state beyond the degraded-call
    counter, which is incremented under a lock.
    """

    def __init__(self, config: ScorerConfig):
        self.config = config
        # the vocabulary is read once, here
        self._weighted = _weighted_token_re(config.token_weights)
        self._degraded_calls = 0
        self._lock = threading.Lock()

    @property
    def degraded_calls(self) -> int:
        with self._lock:
            return self._degraded_calls

    def _note_degraded(self) -> None:
        with self._lock:
            self._degraded_calls += 1

    def score(self, body: bytes) -> SpamScore:
        if self.config.mode == "builtin":
            return SpamScore(_score(body, self.config.token_weights, self._weighted))
        assert self.config.endpoint is not None
        try:
            value = external_score(body, self.config.endpoint, self.config.timeout)
        except ScorerUnavailable:
            self._note_degraded()
            return SpamScore(self.config.fallback, degraded=True)
        return SpamScore(value)
