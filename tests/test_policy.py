"""Resistance policy: thresholds, whitelist, sin bin, graduated difficulty."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spamfriction.policy import (
    DecisionKind,
    PolicyConfig,
    SinBin,
    SinBinConfig,
    decide,
    expected_costs,
)
from spamfriction.scoring import SpamScore
from spamfriction.smtp import HostTraffic, LegacyPolicy


def make_decide(score, config=None, sinbin=None, host="h.example", addr="a@b", now=0.0, rng=None):
    return decide(
        SpamScore(score),
        host,
        addr,
        config or PolicyConfig(),
        sinbin or SinBin(),
        rng or random.Random(1),
        now,
    )


def test_default_knobs():
    config = PolicyConfig()
    assert config.resist_threshold == 0.05
    assert config.base_difficulty == 20
    assert config.sinbin.max_refusals == 3
    assert config.sinbin.window == 3600.0
    assert config.sinbin.block_duration == 14400.0


def test_below_threshold_accepts():
    assert make_decide(0.0).kind is DecisionKind.ACCEPT
    assert make_decide(0.0499).kind is DecisionKind.ACCEPT


def test_at_or_above_threshold_resists():
    d = make_decide(0.05)
    assert d.kind is DecisionKind.RESIST
    assert d.difficulty == 20
    assert make_decide(1.0).kind is DecisionKind.RESIST


def test_whitelist_never_resisted():
    config = PolicyConfig(whitelist=frozenset({"alice@example.org", "*.partner.example"}))
    assert make_decide(1.0, config, addr="alice@example.org").kind is DecisionKind.ACCEPT
    assert make_decide(1.0, config, host="mail.partner.example").kind is DecisionKind.ACCEPT
    # case-insensitive on both sides
    assert make_decide(1.0, config, addr="ALICE@Example.ORG").kind is DecisionKind.ACCEPT
    assert make_decide(1.0, config, addr="mallory@evil.example").kind is DecisionKind.RESIST


def test_whitelist_beats_sin_bin():
    config = PolicyConfig(whitelist=frozenset({"good.example"}))
    sinbin = SinBin()
    for t in (0.0, 1.0, 2.0):
        sinbin.record_refusal("good.example", t)
    assert sinbin.blocked_until("good.example", 3.0) is not None
    assert make_decide(1.0, config, sinbin, host="good.example", now=3.0).kind is DecisionKind.ACCEPT


def test_sin_bin_blocks_after_k_refusals():
    sinbin = SinBin(SinBinConfig(max_refusals=3, window=3600.0, block_duration=14400.0))
    sinbin.record_refusal("h", 0.0)
    sinbin.record_refusal("h", 10.0)
    assert sinbin.blocked_until("h", 11.0) is None
    sinbin.record_refusal("h", 20.0)
    assert sinbin.blocked_until("h", 21.0) == 20.0 + 14400.0
    decision = make_decide(0.0, sinbin=sinbin, host="h", now=21.0)
    assert decision.kind is DecisionKind.BLOCKED
    assert decision.blocked_until == 20.0 + 14400.0


def test_sin_bin_block_expires():
    sinbin = SinBin()
    for t in (0.0, 1.0, 2.0):
        sinbin.record_refusal("h", t)
    assert sinbin.blocked_until("h", 2.0 + 14400.0 - 1) is not None
    assert sinbin.blocked_until("h", 2.0 + 14400.0) is None
    assert make_decide(0.0, sinbin=sinbin, host="h", now=2.0 + 14400.0).kind is DecisionKind.ACCEPT


def test_sin_bin_window_slides():
    sinbin = SinBin(SinBinConfig(max_refusals=3, window=100.0, block_duration=500.0))
    sinbin.record_refusal("h", 0.0)
    sinbin.record_refusal("h", 50.0)
    # first refusal has left the window by now, so this is only the
    # second one that counts
    sinbin.record_refusal("h", 101.0)
    assert sinbin.blocked_until("h", 102.0) is None
    sinbin.record_refusal("h", 103.0)
    assert sinbin.blocked_until("h", 104.0) is not None


def test_success_clears_refusal_ring():
    sinbin = SinBin()
    sinbin.record_refusal("h", 0.0)
    sinbin.record_refusal("h", 1.0)
    sinbin.record_success("h")
    sinbin.record_refusal("h", 2.0)
    sinbin.record_refusal("h", 3.0)
    assert sinbin.blocked_until("h", 4.0) is None


def test_sin_bin_keys_ipv6_peers_by_their_slash_64():
    # one sender holds a whole /64: rotating through it must not shed a block
    sinbin = SinBin(SinBinConfig(max_refusals=2, window=100.0, block_duration=500.0))
    sinbin.record_refusal("2001:db8:1:2::1", 0.0)
    sinbin.record_refusal("2001:db8:1:2:ffff:ffff:ffff:fffe", 1.0)
    assert sinbin.blocked_until("2001:db8:1:2::dead:beef", 2.0) == 501.0
    decision = make_decide(0.0, sinbin=sinbin, host="2001:db8:1:2::7", now=2.0)
    assert decision.kind is DecisionKind.BLOCKED
    assert sinbin.blocked_until("2001:db8:1:3::1", 2.0) is None
    sinbin.record_success("2001:db8:1:3::2")
    assert sinbin.blocked_until("2001:db8:1:2::1", 2.0) == 501.0


def test_sin_bin_counts_a_mapped_peer_as_its_ipv4_host():
    sinbin = SinBin(SinBinConfig(max_refusals=2, window=100.0, block_duration=500.0))
    sinbin.record_refusal("192.0.2.7", 0.0)
    sinbin.record_refusal("::ffff:192.0.2.7", 1.0)
    assert sinbin.blocked_until("192.0.2.7", 2.0) == 501.0
    assert sinbin.blocked_until("::ffff:192.0.2.8", 2.0) is None


def test_host_traffic_keys_peers_by_network():
    traffic = HostTraffic(LegacyPolicy(max_connections_per_host=2))
    traffic.enter_burdened("2001:db8:1:2::1")
    traffic.enter_burdened("2001:db8:1:2::2")
    assert traffic.burdened_count("2001:db8:1:2::3") == 2
    assert not traffic.connection_allowed("2001:db8:1:2::4")
    assert traffic.burdened_count("2001:db8:1:3::1") == 0
    assert traffic.connection_allowed("2001:db8:1:3::1")
    traffic.enter_burdened("::ffff:192.0.2.7")
    assert traffic.burdened_count("192.0.2.7") == 1
    traffic.leave_burdened("192.0.2.7")
    traffic.leave_burdened("2001:db8:1:2::9")
    assert traffic.burdened_count("::ffff:192.0.2.7") == 0
    assert traffic.burdened_count("2001:db8:1:2::1") == 1


class ReferenceSinBin:
    """The sin bin's rule with no forgetting: every host is kept forever."""

    def __init__(self, config):
        self.config = config
        self.rings = {}
        self.blocks = {}

    def blocked_until(self, host, now):
        until = self.blocks.get(host)
        return until if until is not None and until > now else None

    def record_refusal(self, host, now):
        ring = [t for t in self.rings.get(host, []) if t > now - self.config.window] + [now]
        if len(ring) >= self.config.max_refusals:
            self.blocks[host] = now + self.config.block_duration
            ring = []
        self.rings[host] = ring


@settings(deadline=None, max_examples=60)
@given(
    config=st.builds(
        SinBinConfig,
        max_refusals=st.integers(1, 3),
        window=st.floats(1.0, 100.0),
        block_duration=st.floats(1.0, 100.0),
    ),
    events=st.lists(st.tuples(st.floats(0.0, 30.0), st.integers(0, 400)), min_size=1, max_size=300),
)
def test_sin_bin_keeps_only_recent_hosts(config, events):
    sinbin = SinBin(config)
    reference = ReferenceSinBin(config)
    now = 0.0
    for gap, host_id in events:
        now += gap
        host = f"h{host_id}"
        assert sinbin.blocked_until(host, now) == reference.blocked_until(host, now)
        sinbin.record_refusal(host, now)
        reference.record_refusal(host, now)
    # forgetting idle hosts never changes an answer ...
    for host in reference.rings:
        assert sinbin.blocked_until(host, now) == reference.blocked_until(host, now)
    # ... and only hosts that refused within the window or are still blocked remain
    assert all(ring and ring[-1] > now - config.window for ring in sinbin._refusals.values())
    assert all(until > now for until in sinbin._blocked_until.values())


def test_graduated_buckets_map_score_to_difficulty():
    config = PolicyConfig(
        mode="graduated",
        graduated_buckets=[(0.2, 16), (0.6, 20), (0.9, 24)],
    )
    assert make_decide(0.05, config).difficulty == 16
    assert make_decide(0.2, config).difficulty == 16
    assert make_decide(0.5, config).difficulty == 20
    assert make_decide(0.95, config).difficulty == 24  # above the top bound


def test_graduated_buckets_validated():
    with pytest.raises(ValueError):
        PolicyConfig(mode="graduated", graduated_buckets=[])
    with pytest.raises(ValueError):
        PolicyConfig(mode="graduated", graduated_buckets=[(0.6, 20), (0.2, 16)])
    with pytest.raises(ValueError):
        PolicyConfig(mode="graduated", graduated_buckets=[(0.2, 24), (0.6, 16)])


def test_jitter_stays_within_band_and_clamps():
    config = PolicyConfig(base_difficulty=20, jitter_bits=3)
    rng = random.Random(7)
    seen = {make_decide(0.5, config, rng=rng).difficulty for _ in range(200)}
    assert seen <= set(range(17, 24))
    assert len(seen) > 1
    # clamped at the top of the scale
    config_high = PolicyConfig(base_difficulty=63, jitter_bits=4)
    for _ in range(50):
        assert make_decide(0.5, config_high, rng=rng).difficulty <= 64


def test_jitter_deterministic_with_seeded_rng():
    config = PolicyConfig(base_difficulty=20, jitter_bits=2)
    a = [make_decide(0.5, config, rng=random.Random(5)).difficulty for _ in range(10)]
    b = [make_decide(0.5, config, rng=random.Random(5)).difficulty for _ in range(10)]
    assert a == b


@given(score=st.floats(0.0, 1.0))
def test_whitelisted_sender_never_resisted_property(score):
    config = PolicyConfig(whitelist=frozenset({"vip@corp.example"}))
    d = make_decide(score, config, addr="vip@corp.example")
    assert d.kind is DecisionKind.ACCEPT


# -- analytic cost model ----------------------------------------------------


def test_expected_costs_highly_accurate_filter():
    model = expected_costs(0.001, 0.001, 3600.0)
    assert math.isclose(model.ham_avg_cost, 3.6)
    assert math.isclose(model.spam_avg_cost, 3596.4)
    assert math.isclose(model.advantage_ratio, 999.0)


def test_expected_costs_95_percent_filter_exact():
    model = expected_costs(0.05, 0.05, 3600.0)
    assert model.advantage_ratio == 19.0


def test_expected_costs_perfect_filter_infinite_ratio():
    model = expected_costs(0.0, 0.0, 3600.0)
    assert model.ham_avg_cost == 0.0
    assert model.advantage_ratio == math.inf


def test_expected_costs_zero_burden():
    model = expected_costs(0.5, 0.5, 0.0)
    assert model.ham_avg_cost == 0.0
    assert model.spam_avg_cost == 0.0
    assert model.advantage_ratio == 1.0


def test_expected_costs_validation():
    with pytest.raises(ValueError):
        expected_costs(1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        expected_costs(0.0, -0.1, 10.0)
    with pytest.raises(ValueError):
        expected_costs(0.1, 0.1, -1.0)


@given(
    fp=st.floats(0.0001, 0.999),
    fn=st.floats(0.0, 0.999),
    burden=st.floats(0.001, 1e6),
)
def test_advantage_ratio_matches_rate_quotient(fp, fn, burden):
    model = expected_costs(fp, fn, burden)
    assert math.isclose(model.advantage_ratio, (1.0 - fn) / fp, rel_tol=1e-9)
    assert model.ham_avg_cost <= burden
    assert model.spam_avg_cost <= burden
