"""Spam scoring: builtin token model and the external scorer protocol."""
import math
import random
import socket
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spamfriction import scoring


def test_spam_score_bounds():
    scoring.SpamScore(0.0)
    scoring.SpamScore(1.0)
    with pytest.raises(ValueError):
        scoring.SpamScore(-0.01)
    with pytest.raises(ValueError):
        scoring.SpamScore(1.01)
    with pytest.raises(ValueError):
        scoring.SpamScore(float("nan"))


def test_tokenize_case_folds_and_splits():
    tokens = scoring.tokenize(b"Buy NOW!!! cheap-pills, Buy")
    assert tokens == ["buy", "now", "cheap", "pills", "buy"]


def test_tokenize_survives_arbitrary_bytes():
    assert isinstance(scoring.tokenize(b"\xff\xfe\x00 caf\xc3\xa9"), list)


def test_builtin_score_neutral_without_evidence():
    assert scoring.builtin_score(b"", {}) == 0.5
    assert scoring.builtin_score(b"nothing weighted here", {"spam": 5.0}) == 0.5


def test_builtin_score_direction():
    weights = {"spam": 3.0, "friend": -3.0}
    spammy = scoring.builtin_score(b"spam spam spam", weights)
    hammy = scoring.builtin_score(b"friend friend friend", weights)
    assert spammy > 0.99
    assert hammy < 0.01


def test_builtin_score_extreme_weights_do_not_overflow():
    assert scoring.builtin_score(b"x " * 500, {"x": 1000.0}) == 1.0
    assert scoring.builtin_score(b"x " * 500, {"x": -1000.0}) == 0.0


@given(
    body=st.binary(max_size=400),
    weights=st.dictionaries(st.text(max_size=8), st.floats(-50, 50), max_size=5),
)
def test_score_always_in_unit_interval(body, weights):
    result = scoring.Scorer(scoring.ScorerConfig(token_weights=weights)).score(body)
    assert 0.0 <= result.value <= 1.0
    assert not result.degraded


# pieces that stress case folding and token edges: ß folds to ss, ǅ to ǆ and
# İ to i plus a combining dot, which (like _, -, . and the dash) splits
# tokens; é is a letter, so élunch is one token and not lunch
_PIECES = st.sampled_from(
    ["a", "ab", "abc", "lunch", "ss", "ß", "ǅ", "ǆ", "İ", "i", "\u0307", "é", "_", "-", ".", "—", " ", "\r\n", "7"]
)
_WORDS = st.lists(_PIECES, max_size=4).map("".join)
# keys that are prefixes of one another, so a match must not stop at a shorter one
_PREFIX_KEYS = st.sampled_from(["a", "ab", "abc", "l", "lu", "lunch", "lunché"])


def _whole_token_score(body, weights):
    # the reference: every token looked up, summed left to right
    evidence = 0.0
    for token in scoring.tokenize(body):
        evidence += weights.get(token, 0.0)
    return scoring.logistic(evidence)


@settings(max_examples=400, deadline=None)
@given(
    body=st.one_of(st.lists(_PIECES, max_size=40).map(lambda p: "".join(p).encode()), st.binary(max_size=60)),
    weights=st.dictionaries(
        st.one_of(_WORDS, _PREFIX_KEYS, st.text(max_size=4)),
        st.one_of(st.sampled_from([0.0, 5e-324, 1e308, -1e308]), st.floats(-50, 50)),
        max_size=12,
    ),
)
# a weighted token first in the body, in an ASCII body and in a non-ASCII one
@example(body=b"lunch ab.abc", weights={"lunch": 0.5, "lu": 2.0, "a": 1.0, "ab": 0.25, "abc": 4.0})
@example(body="abc—élunch é lunch".encode(), weights={"abc": 0.5, "lunch": 0.25, "lunché": 8.0, "é": 1.0})
def test_builtin_score_matches_whole_token_sum(body, weights):
    expected = _whole_token_score(body, weights)
    assert scoring.builtin_score(body, weights) == expected
    assert scoring.Scorer(scoring.ScorerConfig(token_weights=weights)).score(body).value == expected


def test_builtin_score_holds_no_token_list():
    body = b"filler " * 150_000 + b"spam"
    tracemalloc.start()
    try:
        score = scoring.builtin_score(body, {"spam": 1.0})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert score == scoring.logistic(1.0)
    # the decoded and case-folded text, not one object per token
    assert peak < 3 * len(body)


_SLICED_PIECES = ["spam", "Straße", "STRASSE", "ǅ", "İ", "\xe9", "lunch", "a_b", "x-y", " ", " ", "\r\n", "\n"]
# small enough that the sum over a megabyte stays far from 0 and 1, where
# the logistic would hide a wrong sum
_SLICED_WEIGHTS = {"spam": 2e-4, "strasse": -1e-4, "ǆ": 3e-5, "i\u0307": 0.125, "\xe9": 1e-9, "lunch": -5e-5}


def _mixed_body(rng):
    text = "".join(rng.choice(_SLICED_PIECES) for _ in range(360_000))
    return text.encode()[:1_000_000] + b"\xc3\n\xff" + "\xe9".encode()


def _ascii_then_mixed_body(rng):
    # the first slice is ASCII and ends with a weighted token, and the second
    # is not ASCII and starts with one
    ascii_lines = b"lunch filler spam\n" * (scoring._SLICE_BYTES // 18)
    first = ascii_lines + b"x" * (scoring._SLICE_BYTES - len(ascii_lines)) + b" lunch\n"
    assert first.find(b"\n", scoring._SLICE_BYTES) + 1 == len(first)
    return first + b"spam " + _mixed_body(rng)[:900_000]


@pytest.mark.parametrize("make_body", [_mixed_body, _ascii_then_mixed_body], ids=["mixed", "ascii-then-mixed"])
def test_builtin_score_folds_a_large_body_in_slices(make_body):
    # non-ASCII text folds through a buffer of several bytes per character,
    # so folding the whole body at once would hold many times its size
    body = make_body(random.Random(5))
    expected = _whole_token_score(body, _SLICED_WEIGHTS)
    scorer = scoring.Scorer(scoring.ScorerConfig(token_weights=_SLICED_WEIGHTS))
    tracemalloc.start()
    try:
        value = scorer.score(body).value
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.01 < expected < 0.99
    assert value == expected
    assert peak < 3 * len(body)


def test_scorer_config_validation():
    with pytest.raises(ValueError):
        scoring.ScorerConfig(mode="oracle")
    with pytest.raises(ValueError):
        scoring.ScorerConfig(mode="external")  # endpoint required
    with pytest.raises(ValueError):
        scoring.ScorerConfig(fallback=1.5)


# -- external scorer protocol ------------------------------------------------


class StubScorer:
    """Single-threaded scripted scorer speaking SCORE <bytes>\\n<body>."""

    def __init__(self, reply=b"0.9\n", delay=0.0):
        self.reply = reply
        self.delay = delay
        self.requests = []
        self._server = socket.create_server(("127.0.0.1", 0))
        self.endpoint = self._server.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with conn:
                try:
                    header = b""
                    while not header.endswith(b"\n"):
                        chunk = conn.recv(1)
                        if not chunk:
                            break
                        header += chunk
                    if not header.startswith(b"SCORE "):
                        continue
                    length = int(header.split()[1])
                    body = b""
                    while len(body) < length:
                        chunk = conn.recv(length - len(body))
                        if not chunk:
                            break
                        body += chunk
                    self.requests.append((header, body))
                    if self.delay:
                        time.sleep(self.delay)
                    conn.sendall(self.reply)
                except OSError:
                    pass

    def close(self):
        self._server.close()


@pytest.fixture
def stub_scorer():
    stub = StubScorer()
    yield stub
    stub.close()


def test_external_score_round_trip(stub_scorer):
    config = scoring.ScorerConfig(mode="external", endpoint=stub_scorer.endpoint)
    result = scoring.Scorer(config).score(b"hello body")
    assert result.value == 0.9
    assert not result.degraded
    header, body = stub_scorer.requests[0]
    assert header == b"SCORE 10\n"
    assert body == b"hello body"


def test_external_score_empty_body(stub_scorer):
    config = scoring.ScorerConfig(mode="external", endpoint=stub_scorer.endpoint)
    assert scoring.Scorer(config).score(b"").value == 0.9
    assert stub_scorer.requests[0] == (b"SCORE 0\n", b"")


def test_external_unreachable_falls_back():
    # grab a port and close it so nothing listens there
    probe = socket.create_server(("127.0.0.1", 0))
    endpoint = probe.getsockname()
    probe.close()
    config = scoring.ScorerConfig(mode="external", endpoint=endpoint, fallback=0.25, timeout=0.5)
    scorer = scoring.Scorer(config)
    result = scorer.score(b"anything")
    assert result.value == 0.25
    assert result.degraded
    assert scorer.degraded_calls == 1


@pytest.mark.parametrize(
    "reply",
    # the last two: a line of 129 bytes, and a reply cut off before its LF
    [b"not-a-number\n", b"1.5\n", b"-0.1\n", b"nan\n", b" " * 124 + b"0.25\n", b"0.25"],
)
def test_external_bad_reply_falls_back(reply):
    stub = StubScorer(reply=reply)
    try:
        config = scoring.ScorerConfig(mode="external", endpoint=stub.endpoint, fallback=0.0)
        result = scoring.Scorer(config).score(b"x")
        assert result.degraded
        assert result.value == 0.0
    finally:
        stub.close()


def test_external_reply_of_128_bytes_is_read():
    stub = StubScorer(reply=b" " * 123 + b"0.25\n")
    try:
        config = scoring.ScorerConfig(mode="external", endpoint=stub.endpoint)
        result = scoring.Scorer(config).score(b"x")
        assert (result.value, result.degraded) == (0.25, False)
    finally:
        stub.close()


def test_external_timeout_falls_back():
    stub = StubScorer(delay=1.0)
    try:
        config = scoring.ScorerConfig(
            mode="external", endpoint=stub.endpoint, fallback=0.1, timeout=0.2
        )
        started = time.monotonic()
        result = scoring.Scorer(config).score(b"x")
        assert time.monotonic() - started < 0.9
        assert result.degraded
        assert result.value == 0.1
    finally:
        stub.close()


def test_logistic_symmetry():
    assert scoring.logistic(0.0) == 0.5
    assert math.isclose(scoring.logistic(2.0) + scoring.logistic(-2.0), 1.0)
    assert scoring.logistic(1000.0) == 1.0
    assert scoring.logistic(-1000.0) == 0.0
