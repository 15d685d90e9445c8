"""Server session state machine, receipt handling, legacy senders, client."""
import hashlib
import io
import mailbox
import os
import re
import smtplib
import socket
import struct
import tempfile
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    HAM_BODY,
    SPAM_BODY,
    FixedEntropy,
    build_core,
    negotiate,
    send_envelope,
    submit_body,
)
from spamfriction import puzzle as pow
from spamfriction import smtp
from spamfriction.clock import SystemClock, VirtualClock
from spamfriction.config import load_config
from spamfriction.policy import PolicyConfig, SinBinConfig
from spamfriction.smtp import (
    ClientConfig,
    LegacyPolicy,
    MailboxSink,
    MAX_LINE_BYTES,
    MailServerCore,
    Message,
    SendStatus,
    ServerConfig,
    ServerSession,
    SessionState,
    parse_alg_list,
    read_reply,
    send_message,
    serve_connection,
    start_server,
)

MESSAGE_ID_RE = re.compile(r"^[A-Za-z0-9]{6}-[0-9]{6}-[A-Za-z0-9]{2}$")


def make_session(core, host="10.1.2.3"):
    session = ServerSession(core, host)
    session.greet()
    return session


# -- golden conversation -------------------------------------------------------

GOLDEN_NONCE = "731854092647318560"
GOLDEN_SOLUTION = "1980613"  # first counter with 21 leading zero bits

GOLDEN_TRANSCRIPT = """\
S: 250 ESMTP Server Ready
C: EHLO sending-mail.com
S: 250-receiving-mail.com Hello sending-mail.com [10.1.2.3]
S: 250-SIZE 52428800
S: 250-AUTH PLAIN LOGIN
S: 250-STARTTLS
S: 250-SPAMFRICTION ALG0, ALG1, ALG2
S: 250 HELP
C: POW ISUPPORT ALG0, ALG1, ALG4
S: 250 OK
C: MAIL FROM: alice@sending-mail.com
S: 250 OK
C: RCPT TO: bob@receiving-mail.com
S: 250 Accepted
C: DATA
S: 354 Enter message, ending with "." on a line by itself
C: Subject: spam
C:
C: buy spam pills
C: .
S: 211 POW Required (SPAM) 0:21:{NONCE}
C: POW RECEIPT 0:21:{NONCE}:{SOLUTION}
S: 250 OK id={ID}
C: QUIT
S: 221 receiving-mail.com closing connection
"""


def test_golden_conversation_byte_identical():
    core = build_core(
        policy=PolicyConfig(base_difficulty=21),
    )
    core.entropy = FixedEntropy(int(GOLDEN_NONCE))
    session = ServerSession(core, "10.1.2.3")
    lines = [f"S: {reply}" for reply in session.greet()]
    client_lines = [
        "EHLO sending-mail.com",
        "POW ISUPPORT ALG0, ALG1, ALG4",
        "MAIL FROM: alice@sending-mail.com",
        "RCPT TO: bob@receiving-mail.com",
        "DATA",
        "Subject: spam",
        "",
        "buy spam pills",
        ".",
        f"POW RECEIPT 0:21:{GOLDEN_NONCE}:{GOLDEN_SOLUTION}",
        "QUIT",
    ]
    for line in client_lines:
        lines.append(f"C: {line}".rstrip())
        for reply in session.handle_line(line, 0.0):
            lines.append(f"S: {reply}")
    rendered = "\n".join(lines) + "\n"
    match = re.search(r"id=(\S+)", rendered)
    assert match, rendered
    message_id = match.group(1)
    assert MESSAGE_ID_RE.match(message_id)
    templated = rendered.replace(GOLDEN_NONCE, "{NONCE}").replace(message_id, "{ID}")
    templated = templated.replace(GOLDEN_SOLUTION, "{SOLUTION}")
    assert templated == GOLDEN_TRANSCRIPT
    delivered = core.sink.messages
    assert len(delivered) == 1
    assert delivered[0]["from"] == "alice@sending-mail.com"
    assert delivered[0]["to"] == ("bob@receiving-mail.com",)
    assert delivered[0]["body"] == b"Subject: spam\r\n\r\nbuy spam pills"


# -- command sequencing ----------------------------------------------------------


def test_commands_require_hello_first(session):
    assert session.handle_line("MAIL FROM: a@b", 0.0) == ["503 Bad sequence of commands"]
    assert session.handle_line("RCPT TO: a@b", 0.0) == ["503 Bad sequence of commands"]
    assert session.handle_line("DATA", 0.0) == ["503 Bad sequence of commands"]
    assert session.handle_line("POW ISUPPORT ALG0", 0.0) == ["503 Bad sequence of commands"]


def test_envelope_commands_must_be_ordered(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("RCPT TO: a@b", 0.0)[0].startswith("503")
    assert session.handle_line("DATA", 0.0)[0].startswith("503")
    session.handle_line("MAIL FROM: a@b", 0.0)
    assert session.handle_line("MAIL FROM: again@b", 0.0)[0].startswith("503")
    assert session.handle_line("DATA", 0.0)[0].startswith("503")


def test_unknown_command_and_syntax_errors(session):
    assert session.handle_line("FROBNICATE", 0.0) == ["500 Unrecognised command"]
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("MAIL TO: a@b", 0.0)[0].startswith("501")
    assert session.handle_line("MAIL FROM:", 0.0)[0].startswith("501")
    assert session.handle_line("EHLO", 0.0)[0].startswith("501")
    assert session.handle_line("POW BOGUS x", 0.0)[0].startswith("501")


def test_helo_single_line_reply(session):
    replies = session.handle_line("HELO old.example", 0.0)
    assert replies == ["250 receiving-mail.com Hello old.example [10.1.2.3]"]


def test_noop_help_rset_quit(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("NOOP", 0.0) == ["250 OK"]
    assert session.handle_line("HELP", 0.0)[0].startswith("214")
    session.handle_line("MAIL FROM: a@b", 0.0)
    assert session.handle_line("RSET", 0.0) == ["250 OK"]
    # envelope cleared, MAIL acceptable again
    assert session.handle_line("MAIL FROM: a@b", 0.0) == ["250 OK"]
    assert session.handle_line("QUIT", 0.0) == ["221 receiving-mail.com closing connection"]
    assert session.state is SessionState.DONE


def test_angle_bracket_addresses_accepted(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("MAIL FROM: <a@b.example>", 0.0) == ["250 OK"]
    assert session.handle_line("RCPT TO:<c@d.example>", 0.0) == ["250 Accepted"]
    assert session.tx.mail_from == "a@b.example"
    assert session.tx.recipients == ["c@d.example"]


def test_path_over_256_octets_gets_501(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line(f"MAIL FROM:<{'a' * 300}>", 0.0) == ["501 Path too long"]
    assert session.handle_line(f"MAIL FROM:{'a' * 255}", 0.0) == ["501 Path too long"]
    assert session.handle_line(f"MAIL FROM:<{'a' * 254}>", 0.0) == ["250 OK"]
    assert session.handle_line(f"RCPT TO:<{'c' * 300}>", 0.0) == ["501 Path too long"]
    assert session.handle_line(f"RCPT TO:<{'c' * 255}>", 0.0) == ["501 Path too long"]
    # the transaction goes on: a path of 256 octets, brackets included, is taken
    assert session.handle_line(f"RCPT TO:<{'c' * 254}>", 0.0) == ["250 Accepted"]
    assert session.tx.recipients == ["c" * 254]


def test_recipients_past_100_get_452(session):
    negotiate(session)
    session.handle_line("MAIL FROM: <a@b.example>", 0.0)
    for i in range(100):
        assert session.handle_line(f"RCPT TO:<r{i}@d.example>", 0.0) == ["250 Accepted"]
    assert session.handle_line("RCPT TO:<late@d.example>", 0.0) == ["452 Too many recipients"]
    assert session.handle_line("RCPT TO:<later@d.example>", 0.0) == ["452 Too many recipients"]
    # the recipients already taken keep their transaction
    assert session.handle_line("DATA", 0.0)[0].startswith("354")
    assert submit_body(session, HAM_BODY)[0].startswith("250 OK id=")
    assert session.core.sink.messages[0]["to"] == tuple(f"r{i}@d.example" for i in range(100))


def test_pow_receipt_before_any_puzzle(session):
    negotiate(session)
    assert session.handle_line("POW RECEIPT 0:8:1:1", 0.0) == ["503 Bad sequence of commands"]


def test_alg_list_parsing():
    assert parse_alg_list("ALG0, ALG1, ALG4") == {0, 1, 4}
    assert parse_alg_list("alg2") == {2}
    with pytest.raises(ValueError):
        parse_alg_list("")
    with pytest.raises(ValueError):
        parse_alg_list("ALG0, WAT")


# -- negotiation ------------------------------------------------------------------


def test_ehlo_advertises_pow(session):
    replies = session.handle_line("EHLO sending-mail.com", 0.0)
    assert "250-SPAMFRICTION ALG0, ALG1, ALG2" in replies
    assert replies[-1] == "250 HELP"
    assert replies[0] == "250-receiving-mail.com Hello sending-mail.com [10.1.2.3]"


def test_pow_disabled_server_hides_capability():
    core = build_core(server=ServerConfig(hostname="r.example", pow_algorithms=()))
    session = make_session(core)
    replies = session.handle_line("EHLO x.example", 0.0)
    assert not any("SPAMFRICTION" in line for line in replies)
    assert session.handle_line("POW ISUPPORT ALG0", 0.0) == ["500 Unrecognised command"]


def test_negotiation_picks_common_algorithm(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("POW ISUPPORT ALG0, ALG1, ALG4", 0.0) == ["250 OK"]
    assert session.negotiated_alg == 0


def test_no_common_algorithm_falls_back_to_legacy(session):
    session.handle_line("EHLO x.example", 0.0)
    # advertised but not locally implemented algorithms do not count
    assert session.handle_line("POW ISUPPORT ALG1, ALG2", 0.0) == ["250 OK"]
    assert session.negotiated_alg is None
    send_envelope(session)
    assert submit_body(session, SPAM_BODY) == []
    assert session.state is SessionState.DELAYED


def test_ehlo_resets_negotiation(session):
    negotiate(session)
    assert session.negotiated_alg == 0
    session.handle_line("EHLO x.example", 0.0)
    assert session.negotiated_alg is None
    send_envelope(session)
    submit_body(session, SPAM_BODY)
    assert session.state is SessionState.DELAYED  # legacy handling again


def test_malformed_isupport_rejected(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("POW ISUPPORT", 0.0)[0].startswith("501")
    assert session.handle_line("POW ISUPPORT ALGX", 0.0)[0].startswith("501")
    assert session.negotiated_alg is None


# -- scoring and the resistance decision ---------------------------------------------


def test_ham_accepted_without_puzzle(session):
    negotiate(session)
    send_envelope(session)
    replies = submit_body(session, HAM_BODY)
    assert len(replies) == 1
    assert replies[0].startswith("250 OK id=")
    assert MESSAGE_ID_RE.match(replies[0].rsplit("id=", 1)[1])
    assert len(session.core.sink.messages) == 1
    assert session.state is SessionState.READY


def test_spam_demands_proof_of_work(session):
    negotiate(session)
    send_envelope(session)
    replies = submit_body(session, SPAM_BODY)
    assert len(replies) == 1
    assert replies[0].startswith("211 POW Required (SPAM) ")
    challenge = pow.parse_puzzle(replies[0].rsplit(" ", 1)[-1])
    assert challenge.algorithm == 0
    assert challenge.difficulty == 8
    assert session.state is SessionState.AWAITING_RECEIPT
    assert not session.core.sink.messages


def test_solved_receipt_delivers(session):
    negotiate(session)
    send_envelope(session)
    wire = submit_body(session, SPAM_BODY)[0].rsplit(" ", 1)[-1]
    receipt = pow.solve(pow.parse_puzzle(wire))
    replies = session.handle_line(f"POW RECEIPT {receipt.wire}", 0.0)
    assert replies[0].startswith("250 OK id=")
    assert len(session.core.sink.messages) == 1
    assert session.state is SessionState.READY
    # the session can carry more mail afterwards
    send_envelope(session)
    assert submit_body(session, HAM_BODY)[0].startswith("250 OK")


def test_dot_stuffing_round_trip(session):
    negotiate(session)
    send_envelope(session)
    replies = submit_body(session, ["..literal leading dot", "...two dots", "plain meeting friend lunch"])
    assert replies[0].startswith("250 OK")
    body = session.core.sink.messages[0]["body"]
    assert body == b".literal leading dot\r\n..two dots\r\nplain meeting friend lunch"


def test_oversize_message_rejected():
    core = build_core(server=ServerConfig(hostname="r.example", max_message_bytes=64))
    session = make_session(core)
    negotiate(session)
    send_envelope(session)
    replies = submit_body(session, ["meeting friend " * 50])
    assert replies[0].startswith("552 ")
    assert not core.sink.messages
    assert session.state is SessionState.READY
    # envelope is gone; a fresh transaction works
    send_envelope(session)
    assert submit_body(session, ["friend meeting"])[0].startswith("250 OK")


# -- receipt verification paths -----------------------------------------------------


def setup_awaiting(core=None, host="10.1.2.3"):
    core = core or build_core()
    session = make_session(core, host)
    negotiate(session)
    send_envelope(session)
    wire = submit_body(session, SPAM_BODY)[0].rsplit(" ", 1)[-1]
    return session, pow.parse_puzzle(wire)


def test_wrong_nonce_receipt_fails_immediately():
    session, challenge = setup_awaiting()
    forged = pow.Puzzle(algorithm=0, difficulty=challenge.difficulty, nonce="42")
    receipt = pow.solve(forged)
    replies = session.handle_line(f"POW RECEIPT {receipt.wire}", 0.0)
    assert replies == ["554 POW verification failed"]
    assert session.state is SessionState.READY
    assert not session.core.sink.messages


def test_bad_solution_gets_one_fresh_puzzle():
    session, challenge = setup_awaiting()
    bad = f"POW RECEIPT {challenge.wire}:1"
    if pow.verify_hash(challenge, "1"):  # vanishingly unlikely at d=8
        bad = f"POW RECEIPT {challenge.wire}:2"
    replies = session.handle_line(bad, 0.0)
    assert replies[0].startswith("211 POW Required (SPAM) ")
    fresh = pow.parse_puzzle(replies[0].rsplit(" ", 1)[-1])
    assert fresh.nonce != challenge.nonce
    assert fresh.difficulty == challenge.difficulty
    # the fresh puzzle takes the old one's place in the store
    assert challenge.nonce not in session.core.store and fresh.nonce in session.core.store
    # solving the fresh puzzle still delivers
    receipt = pow.solve(fresh)
    assert session.handle_line(f"POW RECEIPT {receipt.wire}", 0.0)[0].startswith("250 OK")


def test_second_bad_solution_is_terminal():
    session, challenge = setup_awaiting()
    first = session.handle_line(f"POW RECEIPT {challenge.wire}:1", 0.0)
    fresh = pow.parse_puzzle(first[0].rsplit(" ", 1)[-1])
    second = session.handle_line(f"POW RECEIPT {fresh.wire}:1", 0.0)
    assert second == ["554 POW verification failed"]
    assert not session.core.sink.messages


def test_malformed_receipt_does_not_burn_the_retry():
    session, challenge = setup_awaiting()
    assert session.handle_line("POW RECEIPT garbage", 0.0)[0].startswith("501")
    assert session.state is SessionState.AWAITING_RECEIPT
    receipt = pow.solve(challenge)
    assert session.handle_line(f"POW RECEIPT {receipt.wire}", 0.0)[0].startswith("250 OK")


def test_expired_puzzle_reissued_once():
    clock = VirtualClock()
    core = build_core(clock=clock, server=ServerConfig(hostname="r.example", puzzle_ttl=10.0))
    session, challenge = setup_awaiting(core)
    receipt = pow.solve(challenge)
    clock.advance(11.0)
    replies = session.handle_line(f"POW RECEIPT {receipt.wire}", clock.now())
    assert replies[0].startswith("211 POW Required (SPAM) ")
    fresh = pow.parse_puzzle(replies[0].rsplit(" ", 1)[-1])
    quick = pow.solve(fresh)
    assert session.handle_line(f"POW RECEIPT {quick.wire}", clock.now())[0].startswith("250 OK")


def test_quit_while_awaiting_counts_as_refusal():
    core = build_core(sinbin=SinBinConfig(max_refusals=2, window=3600.0, block_duration=100.0))
    session, _ = setup_awaiting(core)
    session.handle_line("QUIT", 0.0)
    session2, _ = setup_awaiting(core)
    session2.handle_line("QUIT", 1.0)
    # two refusals within the window: the host is now blocked
    session3 = make_session(core)
    negotiate(session3, now=2.0)
    send_envelope(session3, now=2.0)
    replies = submit_body(session3, SPAM_BODY, now=2.0)
    assert replies[0].startswith("421 ")


def test_disconnect_while_awaiting_counts_as_refusal():
    core = build_core(sinbin=SinBinConfig(max_refusals=1, window=10.0, block_duration=100.0))
    session, _ = setup_awaiting(core)
    session.on_disconnect(0.0)
    assert core.sinbin.blocked_until("10.1.2.3", 1.0) is not None


def test_ehlo_while_awaiting_abandons_puzzle():
    core = build_core(sinbin=SinBinConfig(max_refusals=1, window=10.0, block_duration=100.0))
    session, _ = setup_awaiting(core)
    session.handle_line("EHLO x.example", 0.0)
    assert core.sinbin.blocked_until("10.1.2.3", 1.0) is not None
    assert session.state is SessionState.READY


def test_delivery_clears_refusal_history():
    core = build_core(sinbin=SinBinConfig(max_refusals=3, window=3600.0, block_duration=100.0))
    for t in (0.0, 1.0):
        session, _ = setup_awaiting(core)
        session.handle_line("QUIT", t)
    ok = make_session(core)
    negotiate(ok)
    send_envelope(ok)
    assert submit_body(ok, HAM_BODY, now=2.0)[0].startswith("250 OK")
    # history cleared: two more refusals alone do not block
    for t in (3.0, 4.0):
        session, _ = setup_awaiting(core)
        session.handle_line("QUIT", t)
    final = make_session(core)
    negotiate(final, now=5.0)
    send_envelope(final, now=5.0)
    assert submit_body(final, SPAM_BODY, now=5.0)[0].startswith("211 ")


def test_injected_empty_store_is_kept():
    # an empty store is falsy, so injection must not test truthiness
    assert MailServerCore(store=pow.IssuedPuzzleStore(5)).store.capacity == 5


def test_core_sizes_its_own_store_from_the_server_config(tmp_path):
    path = tmp_path / "app.yaml"
    path.write_text("server:\n  store_capacity: 2\n")
    for config in (ServerConfig(store_capacity=2), load_config(str(path)).server):
        core = build_core(server=config)
        replies = []
        for _ in range(3):
            session = make_session(core)
            negotiate(session)
            send_envelope(session)
            replies.append(submit_body(session, SPAM_BODY)[0][:4])
        assert replies == ["211 ", "211 ", "452 "]


def test_reissue_into_full_store_releases_the_host():
    core = build_core(sinbin=SinBinConfig(max_refusals=1, window=10.0, block_duration=100.0))
    core.store = pow.IssuedPuzzleStore(2)
    pow.generate_challenge(core.store, difficulty=8, now=0.0)  # another session's live puzzle
    session, challenge = setup_awaiting(core)
    bad = "1" if not pow.verify_hash(challenge, "1") else "2"
    assert session.handle_line(f"POW RECEIPT {challenge.wire}:{bad}", 0.0) == [
        "452 Too many outstanding puzzles, try again later"
    ]
    assert session.state is SessionState.READY
    assert session.tx is None
    assert core.traffic.burdened_count("10.1.2.3") == 0
    # the overload is the server's: no refusal is held against the host
    assert core.sinbin.blocked_until("10.1.2.3", 1.0) is None
    send_envelope(session)
    assert submit_body(session, HAM_BODY)[0].startswith("250 OK")


def test_first_issue_into_full_store_gets_452():
    core = build_core(sinbin=SinBinConfig(max_refusals=1, window=10.0, block_duration=100.0))
    core.store = pow.IssuedPuzzleStore(1)
    pow.generate_challenge(core.store, difficulty=8, now=0.0)  # another session's live puzzle
    session = make_session(core)
    negotiate(session)
    send_envelope(session)
    assert submit_body(session, SPAM_BODY) == ["452 Too many outstanding puzzles, try again later"]
    assert session.state is SessionState.READY
    assert session.tx is None and session.next_release() is None
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert core.sinbin.blocked_until("10.1.2.3", 1.0) is None
    assert len(core.store) == 1


@pytest.mark.parametrize("capacity, late_reply", [(10, "211"), (1, "452")])
def test_late_receipt_does_not_depend_on_other_sessions(capacity, late_reply):
    core = build_core(
        server=ServerConfig(hostname="r.example", puzzle_ttl=60.0),
        sinbin=SinBinConfig(max_refusals=1, window=3600.0, block_duration=100.0),
    )
    core.store = pow.IssuedPuzzleStore(capacity)
    a, challenge = setup_awaiting(core, host="10.0.0.1")
    # the transport polls A when its timer is due: the puzzle's expiry
    assert a.next_release() == a.tx.puzzle.expires_at == 60.0
    assert a.poll(60.0) == []
    assert len(core.store) == 0 and a.next_release() is None
    assert a.state is SessionState.AWAITING_RECEIPT
    assert a.poll(60.0) == []  # the slot is given back once
    b = make_session(core, "10.0.0.2")
    negotiate(b, now=100.0)
    send_envelope(b, now=100.0)
    assert submit_body(b, SPAM_BODY, now=100.0)[0].startswith("211 ")
    receipt = pow.solve(challenge)
    replies = a.handle_line(f"POW RECEIPT {receipt.wire}", 100.0)
    # an honest slow solver earns its reissue, or a 452 when the store has no room
    assert replies[0][:3] == late_reply
    assert core.sinbin.blocked_until("10.0.0.1", 100.0) is None
    assert b.state is SessionState.AWAITING_RECEIPT and b.tx.puzzle.nonce in core.store


def test_two_burdened_sessions_of_one_host_leave_one_at_a_time():
    core = build_core()
    first, _ = setup_awaiting(core)
    second, _ = setup_awaiting(core)
    assert core.traffic.burdened_count("10.1.2.3") == 2
    first.handle_line("QUIT", 0.0)
    assert core.traffic.burdened_count("10.1.2.3") == 1
    second.on_disconnect(0.0)
    assert core.traffic.burdened_count("10.1.2.3") == 0


# -- legacy senders ---------------------------------------------------------------


def legacy_session(core, host="10.9.9.9"):
    session = make_session(core, host)
    session.handle_line("EHLO legacy.example", 0.0)
    return session


def test_legacy_reply_withheld_exactly_delay():
    clock = VirtualClock()
    core = build_core(clock=clock, legacy=LegacyPolicy(pre_accept_delay=30.0))
    session = legacy_session(core)
    send_envelope(session)
    assert submit_body(session, HAM_BODY) == []
    assert session.state is SessionState.DELAYED
    assert session.next_release() == 30.0
    clock.advance(29.999)
    assert session.poll(clock.now()) == []
    assert not core.sink.messages
    clock.advance(0.001)
    replies = session.poll(clock.now())
    assert replies[0].startswith("250 OK id=")
    assert core.sink.messages[0]["when"] == pytest.approx(30.0)
    assert session.state is SessionState.READY


def test_legacy_resisted_mail_also_accepted_after_delay():
    # no receipt can ever arrive without negotiation, so resist degrades
    # to the delayed acceptance
    clock = VirtualClock()
    core = build_core(clock=clock, legacy=LegacyPolicy(pre_accept_delay=5.0))
    session = legacy_session(core)
    send_envelope(session)
    assert submit_body(session, SPAM_BODY) == []
    clock.advance(5.0)
    assert session.poll(clock.now())[0].startswith("250 OK")
    assert len(core.sink.messages) == 1


def test_legacy_blocked_host_gets_delayed_421():
    clock = VirtualClock()
    core = build_core(
        clock=clock,
        legacy=LegacyPolicy(pre_accept_delay=5.0),
        sinbin=SinBinConfig(max_refusals=1, window=100.0, block_duration=1000.0),
    )
    core.sinbin.record_refusal("10.9.9.9", 0.0)
    session = legacy_session(core)
    send_envelope(session)
    assert submit_body(session, HAM_BODY) == []
    clock.advance(5.0)
    replies = session.poll(clock.now())
    assert replies[0].startswith("421 ")
    assert session.state is SessionState.DONE
    assert not core.sink.messages


def test_legacy_zero_delay_replies_immediately():
    core = build_core(legacy=LegacyPolicy(pre_accept_delay=0.0))
    session = legacy_session(core)
    send_envelope(session)
    replies = submit_body(session, HAM_BODY)
    assert replies[0].startswith("250 OK")


def test_quit_during_delay_abandons_message():
    clock = VirtualClock()
    core = build_core(clock=clock, legacy=LegacyPolicy(pre_accept_delay=30.0))
    session = legacy_session(core)
    send_envelope(session)
    submit_body(session, HAM_BODY)
    assert session.handle_line("QUIT", clock.now())[0].startswith("221")
    clock.advance(60.0)
    assert session.poll(clock.now()) == []
    assert not core.sink.messages


def test_parked_session_holds_its_body_once():
    core = build_core(legacy=LegacyPolicy(pre_accept_delay=30.0))
    session = legacy_session(core)
    send_envelope(session)
    lines = [f"line {i} meeting friend " + "x" * 1000 for i in range(100)]
    assert submit_body(session, lines) == []
    assert session.state is SessionState.DELAYED
    assert session.tx.body == "\r\n".join(lines).encode()


def test_other_commands_during_delay_deferred():
    clock = VirtualClock()
    core = build_core(clock=clock, legacy=LegacyPolicy(pre_accept_delay=30.0))
    session = legacy_session(core)
    send_envelope(session)
    submit_body(session, HAM_BODY)
    assert session.handle_line("MAIL FROM: x@y", clock.now()) == ["503 Reply pending, wait"]


# -- per-host overload handling ------------------------------------------------------


def delayed_legacy_core(mode, clock=None):
    return build_core(
        clock=clock or VirtualClock(),
        legacy=LegacyPolicy(pre_accept_delay=30.0, max_connections_per_host=1, overload_mode=mode),
    )


def test_overload_refuse_mode_blocks_new_connections():
    core = delayed_legacy_core("refuse-connections")
    session = legacy_session(core, host="10.5.5.5")
    send_envelope(session)
    submit_body(session, HAM_BODY)
    assert not core.traffic.connection_allowed("10.5.5.5")
    assert core.traffic.connection_allowed("10.6.6.6")
    # once the delay has elapsed the host may connect again
    core.clock.advance(30.0)
    session.poll(core.clock.now())
    assert core.traffic.connection_allowed("10.5.5.5")


def test_overload_temp_reject_mode_bounces_mail():
    core = delayed_legacy_core("temp-reject")
    first = legacy_session(core, host="10.5.5.5")
    send_envelope(first)
    submit_body(first, HAM_BODY)
    assert core.traffic.connection_allowed("10.5.5.5")  # connection itself fine
    second = legacy_session(core, host="10.5.5.5")
    assert second.handle_line("MAIL FROM: x@y", 0.0)[0].startswith("450 ")
    other = legacy_session(core, host="10.6.6.6")
    assert other.handle_line("MAIL FROM: x@y", 0.0) == ["250 OK"]


def test_overload_escalate_mode_raises_difficulty():
    core = delayed_legacy_core("escalate-difficulty")
    stuck = legacy_session(core, host="10.5.5.5")
    send_envelope(stuck)
    submit_body(stuck, HAM_BODY)  # one burdened session for the host
    second = make_session(core, host="10.5.5.5")
    negotiate(second)
    send_envelope(second)
    wire = submit_body(second, SPAM_BODY)[0].rsplit(" ", 1)[-1]
    assert pow.parse_puzzle(wire).difficulty == 8 + 1
    # an unrelated host pays the base difficulty
    third = make_session(core, host="10.6.6.6")
    negotiate(third)
    send_envelope(third)
    wire = submit_body(third, SPAM_BODY)[0].rsplit(" ", 1)[-1]
    assert pow.parse_puzzle(wire).difficulty == 8


def test_awaiting_receipt_also_counts_as_burdened():
    core = build_core()
    session, _ = setup_awaiting(core, host="10.7.7.7")
    assert core.traffic.burdened_count("10.7.7.7") == 1
    receipt = pow.solve(session.tx.puzzle)
    session.handle_line(f"POW RECEIPT {receipt.wire}", 0.0)
    assert core.traffic.burdened_count("10.7.7.7") == 0


# -- every exit from a burdened state releases it -------------------------------


def _bad_receipt(session):
    bad = "1" if not pow.verify_hash(session.tx.puzzle, "1") else "2"
    return f"POW RECEIPT {session.tx.puzzle.wire}:{bad}"


def _forged_receipt(session):
    return f"POW RECEIPT {pow.solve(pow.Puzzle(0, session.tx.puzzle.difficulty, '42')).wire}"


def _delayed_session(core):
    session = legacy_session(core, host="10.1.2.3")
    send_envelope(session)
    submit_body(session, HAM_BODY)
    return session


BURDENED_STARTS = {
    "awaiting-receipt": lambda core: setup_awaiting(core)[0],
    "delayed": _delayed_session,
}

# exit -> (how the session leaves, first reply code it gets)
BURDENED_EXITS = {
    "quit": (lambda s: s.handle_line("QUIT", 0.0), "221"),
    "rset": (lambda s: s.handle_line("RSET", 0.0), "250"),
    "ehlo": (lambda s: s.handle_line("EHLO x.example", 0.0), "250"),
    "helo": (lambda s: s.handle_line("HELO x.example", 0.0), "250"),
    "eof": (lambda s: s.on_disconnect(0.0), None),
    "554": (lambda s: s.handle_line(_forged_receipt(s), 0.0), "554"),
    "452-reissue": (lambda s: s.handle_line(_bad_receipt(s), 0.0), "452"),
    "accepted": (lambda s: s.handle_line(f"POW RECEIPT {pow.solve(s.tx.puzzle).wire}", 0.0), "250"),
    "legacy-release": (lambda s: s.poll(30.0), "250"),
}


@pytest.mark.parametrize(
    "start, exit_name",
    [
        *(("awaiting-receipt", name) for name in
          ("quit", "rset", "ehlo", "helo", "eof", "554", "452-reissue", "accepted")),
        *(("delayed", name) for name in ("quit", "eof", "legacy-release")),
    ],
)
def test_every_exit_releases_the_burdened_host(start, exit_name):
    core = build_core(legacy=LegacyPolicy(pre_accept_delay=30.0))
    core.store = pow.IssuedPuzzleStore(1)  # full once the session's own puzzle is out
    session = BURDENED_STARTS[start](core)
    assert core.traffic.burdened_count("10.1.2.3") == 1
    leave, code = BURDENED_EXITS[exit_name]
    replies = leave(session)
    if code is not None:
        assert replies[0][:3] == code
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert session.tx is None
    assert len(core.store) == 0


def _break_sink(core):
    def broken(*args):
        raise OSError("injected fault")

    core.sink.deliver = broken


# the exits from DATA that no burdened state reaches: (server config, the
# core's setup, body, reply to ".")
DATA_EXITS = {
    "552": (ServerConfig(max_message_bytes=16), None, HAM_BODY,
            "552 Message size exceeds fixed maximum message size"),
    "500": (None, None, ["x" * MAX_LINE_BYTES], "500 Line too long"),
    "421": (None, lambda core: core.sinbin.record_refusal("10.1.2.3", 0.0), SPAM_BODY,
            "421 Service temporarily unavailable, try again later"),
    "451": (None, _break_sink, HAM_BODY, "451 Requested action aborted: local error in processing"),
}


@pytest.mark.parametrize("exit_name", DATA_EXITS)
def test_every_exit_from_data_drops_the_transaction(exit_name):
    server, setup, body, reply = DATA_EXITS[exit_name]
    core = build_core(server=server, sinbin=SinBinConfig(max_refusals=1))
    if setup is not None:
        setup(core)
    session = make_session(core)
    negotiate(session)
    send_envelope(session)
    assert submit_body(session, body) == [reply]
    assert session.tx is None
    assert len(core.store) == 0
    assert core.traffic.burdened_count("10.1.2.3") == 0


class LeapingClock(VirtualClock):
    """A clock that is a minute later at every reading, so a withheld legacy
    reply is due as soon as the session is read from again."""

    def now(self):
        return self.advance(60.0)


@pytest.mark.parametrize(
    "start, fault",
    [
        pytest.param("awaiting-receipt", RuntimeError, id="awaiting-receipt"),
        pytest.param("delayed", RuntimeError, id="delayed"),
        # an OSError inside the server is a fault too, not the peer hanging up
        pytest.param("awaiting-receipt", PermissionError, id="awaiting-receipt-oserror"),
        pytest.param("delayed", PermissionError, id="delayed-oserror"),
    ],
)
def test_server_fault_releases_the_session_without_a_refusal(monkeypatch, start, fault):
    core = build_core(
        clock=LeapingClock(),
        legacy=LegacyPolicy(pre_accept_delay=30.0),
        sinbin=SinBinConfig(max_refusals=1),
    )
    core.entropy = FixedEntropy(int(GOLDEN_NONCE))

    def broken(*args):
        raise fault("injected fault")

    # a receipt faults in AWAITING_RECEIPT; the release of the withheld
    # reply faults in DELAYED
    monkeypatch.setattr(core.store, "verify_and_consume", broken)
    monkeypatch.setattr(core.sink, "deliver", broken)
    sessions = []

    class RecordingSession(ServerSession):
        def __init__(self, *args):
            super().__init__(*args)
            sessions.append(self)

    monkeypatch.setattr(smtp, "ServerSession", RecordingSession)
    hello = ["EHLO a.example", "POW ISUPPORT ALG0"] if start == "awaiting-receipt" else ["EHLO a.example"]
    lines = [*hello, "MAIL FROM: a@b", "RCPT TO: c@d", "DATA", *SPAM_BODY, "."]
    if start == "awaiting-receipt":
        lines.append(f"POW RECEIPT 0:8:{GOLDEN_NONCE}:1")
    server_end, client_end = socket.socketpair()
    with client_end:
        client_end.sendall("".join(line + "\r\n" for line in lines).encode())
        client_end.shutdown(socket.SHUT_WR)
        serve_connection(core, server_end, "10.1.2.3")
        with client_end.makefile("rb") as rfile:
            assert rfile.readlines()[-1] == b"451 Requested action aborted: local error in processing\r\n"
    (session,) = sessions
    assert session.state is SessionState.DONE
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert session.tx is None
    assert core.sinbin.blocked_until("10.1.2.3", 0.0) is None
    assert not core.sink.messages


# -- the socket transport -----------------------------------------------------------


def converse(core, data: bytes, host="10.1.2.3") -> list[bytes]:
    """Run ``data`` through ``serve_connection``; return the reply lines."""
    server_end, client_end = socket.socketpair()
    with client_end:
        worker = threading.Thread(target=serve_connection, args=(core, server_end, host))
        worker.start()
        client_end.sendall(data)
        client_end.shutdown(socket.SHUT_WR)
        with client_end.makefile("rb") as rfile:
            replies = rfile.readlines()
        worker.join(10)
    assert not worker.is_alive()
    return replies


def pow_transaction(mail_from="alice@example.org") -> list[str]:
    return ["EHLO a.example", "POW ISUPPORT ALG0", f"MAIL FROM: {mail_from}", "RCPT TO: bob@example.net", "DATA"]


def wire(lines) -> bytes:
    return "".join(line + "\r\n" for line in lines).encode("latin-1")


def test_overlong_command_line_gets_one_reply():
    core = build_core()
    replies = converse(core, b"A" * MAX_LINE_BYTES + b"NOOP\r\nNOOP\r\nQUIT\r\n")
    assert replies[1:] == [b"500 Line too long\r\n", b"250 OK\r\n", b"221 receiving-mail.com closing connection\r\n"]


def test_overlong_body_line_refuses_the_message():
    core = build_core()
    long_line = "meeting friend " + "a" * 70_000
    replies = converse(core, wire([*pow_transaction(), *HAM_BODY, long_line, "lunch", ".", "NOOP", "QUIT"]))
    assert replies[-3:] == [b"500 Line too long\r\n", b"250 OK\r\n", b"221 receiving-mail.com closing connection\r\n"]
    assert not core.sink.messages
    # a line of exactly the cap is a body line like any other
    longest = "meeting friend ".ljust(MAX_LINE_BYTES - 2, "a")
    replies = converse(core, wire([*pow_transaction(), longest, ".", "QUIT"]))
    assert replies[-2].startswith(b"250 OK id=")
    assert core.sink.messages[0]["body"] == longest.encode()


def test_non_ascii_sender_is_delivered_to_the_mailbox(tmp_path):
    core = build_core()
    core.sink = MailboxSink(tmp_path)
    replies = converse(core, wire([*pow_transaction("jos\xe9@example.org"), *HAM_BODY, ".", "QUIT"]))
    assert replies[-2].startswith(b"250 OK id=")
    assert (tmp_path / "bob@example.net.mbox").read_bytes().startswith(b"From jos\xe9@example.org ")


def test_scorer_fault_gets_a_451(monkeypatch):
    core = build_core()

    def broken(body):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(core.scorer, "score", broken)
    replies = converse(core, wire([*pow_transaction(), *HAM_BODY, "."]))
    assert replies[-1] == b"451 Requested action aborted: local error in processing\r\n"
    assert not core.sink.messages


@pytest.mark.parametrize("fault", [RuntimeError, PermissionError])
def test_sink_fault_gets_a_451_after_the_pipelined_replies(monkeypatch, fault):
    core = build_core()

    def broken(*args):
        raise fault("injected fault")

    monkeypatch.setattr(core.sink, "deliver", broken)
    # the whole transaction arrives in one read, so one feed builds every
    # reply; 451 ends the transaction, so the pipelined QUIT is answered
    replies = converse(core, wire([*pow_transaction(), *HAM_BODY, ".", "QUIT"]))
    assert replies[0] == b"250 ESMTP Server Ready\r\n"
    assert replies[-6:] == [
        b"250 OK\r\n",
        b"250 OK\r\n",
        b"250 Accepted\r\n",
        b'354 Enter message, ending with "." on a line by itself\r\n',
        b"451 Requested action aborted: local error in processing\r\n",
        b"221 receiving-mail.com closing connection\r\n",
    ]


def test_fault_resets_the_transaction_as_rset_does(monkeypatch):
    def broken(self, rest, now):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(ServerSession._COMMANDS, "NOOP", broken)
    session = make_session(build_core())
    replies = session.feed(wire(["NOOP", "MAIL FROM: a@b", "HELO a.example", "NOOP", "MAIL FROM: a@b", "QUIT"]), 0.0)
    fault = b"451 Requested action aborted: local error in processing\r\n"
    # before a hello the session stays GREETED, after it READY
    assert replies.splitlines(keepends=True) == [
        fault,
        b"503 Bad sequence of commands\r\n",
        b"250 receiving-mail.com Hello a.example [10.1.2.3]\r\n",
        fault,
        b"250 OK\r\n",
        b"221 receiving-mail.com closing connection\r\n",
    ]


# -- framing: bytes in, lines to handle_line -----------------------------------------


def readline_framing(session, data: bytes) -> bytes:
    """Reference framing: hand ``data`` to the session line by line as a
    ``readline(MAX_LINE_BYTES)`` loop does, discarding the rest of an
    over-long line; return the reply bytes."""
    stream = io.BytesIO(data)
    replies = []
    while session.state is not SessionState.DONE and (raw := stream.readline(MAX_LINE_BYTES)):
        if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
            while (rest := stream.readline(MAX_LINE_BYTES)) and not rest.endswith(b"\n"):
                pass
        replies += session.handle_line(raw.rstrip(b"\r\n").decode("latin-1"), 0.0)
    return wire(replies)


# body lines: dots to un-stuff, stray CRs, and lines at and past the cap
BODY_LINE = st.one_of(
    st.text(alphabet="a.\r ", max_size=6),
    st.integers(MAX_LINE_BYTES - 3, MAX_LINE_BYTES + 3).map(lambda n: "meeting " + "a" * (n - 8)),
)


@settings(max_examples=40, deadline=None)
@given(
    lines=st.lists(st.tuples(BODY_LINE, st.sampled_from(["\r\n", "\n", "\r\r\n"])), max_size=6),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=8),
)
def test_feed_in_any_chunks_frames_like_readline(lines, cuts):
    body = "".join(line + end for line, end in lines) + ".\r\nNOOP\nQUIT\r\nNOOP\r\n"
    data = wire(pow_transaction()) + body.encode("latin-1")
    reference_core, whole_core, chunked_core = build_core(), build_core(), build_core()
    expected = readline_framing(make_session(reference_core), data)
    assert make_session(whole_core).feed(data, 0.0) == expected
    session = make_session(chunked_core)
    bounds = [0, *sorted(int(c * len(data)) for c in cuts), len(data)]
    assert b"".join(session.feed(data[a:b], 0.0) for a, b in zip(bounds, bounds[1:])) == expected
    assert reference_core.sink.messages == whole_core.sink.messages == chunked_core.sink.messages
    assert expected.endswith(b"221 receiving-mail.com closing connection\r\n")


def test_feed_keeps_a_partial_line_until_its_end_arrives():
    session = make_session(build_core())
    assert session.feed(b"NO", 0.0) == b""
    assert session.feed(b"OP\r", 0.0) == b""
    assert session.feed(b"\nNOOP\r\nHE", 0.0) == b"250 OK\r\n250 OK\r\n"
    # an over-long line is answered as soon as the cap is reached
    assert session.feed(b"LP" + b"x" * (MAX_LINE_BYTES - 4), 0.0) == b"500 Line too long\r\n"
    assert session.feed(b"xx" * 40_000, 0.0) == b""
    assert session.feed(b"x\r\nNOOP\r\n", 0.0) == b"250 OK\r\n"


# -- DATA: the body against a line-at-a-time reference --------------------------------


def data_reference(raw_lines: list[bytes], limit: int) -> tuple[str | None, bytes | None]:
    """DATA as specified, one input line at a time: return the refusal sent
    for ".", or None, and the body delivered, or None.

    An input line is cut at MAX_LINE_BYTES and loses its trailing CRs and
    LFs.  A line over MAX_LINE_BYTES - 2 refuses the message with 500.  One
    leading dot is removed, each line counts its length plus 2 against
    ``limit`` for 552, and the lines are rejoined with CRLF."""
    kept, size = [], 0
    for raw in raw_lines:
        line = raw[:MAX_LINE_BYTES].rstrip(b"\r\n")
        if len(line) > MAX_LINE_BYTES - 2:
            return "500 Line too long", None
        if line.startswith(b"."):
            line = line[1:]
        size += len(line) + 2
        if size > limit:
            return "552 Message size exceeds fixed maximum message size", None
        kept.append(line)
    return None, b"\r\n".join(kept)


# one input line, its ending included: Latin-1 bytes, bare CRs, dots, and
# lengths around the cap; a lone "." would end the data, so it is left out
DATA_LINE = st.tuples(
    st.one_of(
        st.binary(max_size=8).map(lambda b: b.replace(b"\n", b"")),
        st.sampled_from([b"", b".", b"..", b"...", b".x"]),
        st.tuples(st.sampled_from([b"", b"."]), st.integers(MAX_LINE_BYTES - 4, MAX_LINE_BYTES + 1)).map(
            lambda t: t[0] + b"m" * t[1]
        ),
    ),
    st.sampled_from([b"\r\n", b"\n", b"\r\r\n"]),
).map(b"".join).filter(lambda raw: raw[:MAX_LINE_BYTES].rstrip(b"\r\n") != b".")


@settings(max_examples=100, deadline=None)
@example(raw_lines=[b"abc\r\n", b"..d\n"], slack=0, cuts=[])  # exactly the limit: delivered
@example(raw_lines=[b"abc\r\n", b"..d\n"], slack=-1, cuts=[])  # one byte more: 552
@given(
    raw_lines=st.lists(DATA_LINE, max_size=6),
    slack=st.one_of(st.none(), st.integers(-2, 2)),
    cuts=st.lists(st.floats(0.0, 1.0), max_size=8),
)
def test_data_matches_a_line_at_a_time_reference(raw_lines, slack, cuts):
    limit = ServerConfig().max_message_bytes
    if slack is not None:
        _, whole = data_reference(raw_lines, limit)
        if whole is not None:
            # the body's size, CRLFs counted, give or take a byte or two
            limit = max(1, len(whole) + 2 * bool(raw_lines) + slack)
    # a legacy sender with no delay gets its final reply at "." whatever the score
    core = build_core(
        server=ServerConfig(hostname="receiving-mail.com", max_message_bytes=limit),
        legacy=LegacyPolicy(pre_accept_delay=0.0),
    )
    session = make_session(core)
    session.feed(wire(["EHLO legacy.example", "MAIL FROM: <a@b>", "RCPT TO: <c@d>", "DATA"]), 0.0)
    data = b"".join(raw_lines) + b".\r\nNOOP\r\nQUIT\r\n"
    bounds = [0, *sorted(int(c * len(data)) for c in cuts), len(data)]
    replies = b"".join(session.feed(data[a:b], 0.0) for a, b in zip(bounds, bounds[1:]))
    final, body = data_reference(raw_lines, limit)
    if body is None:
        assert not core.sink.messages
    else:
        assert [m["body"] for m in core.sink.messages] == [body]
        final = f"250 OK id={core.sink.messages[0]['id']}"
    assert replies == wire([final, "250 OK", "221 receiving-mail.com closing connection"])


def test_body_is_held_once_from_its_first_line_to_delivery():
    core = build_core()
    session = make_session(core)
    session.feed(wire(pow_transaction()), 0.0)
    body = b"see you at the meeting friend " * 34_953
    data = b"".join(body[i:i + 60] + b"\r\n" for i in range(0, len(body), 60)) + b".\r\n"
    chunks = [data[i:i + 65_536] for i in range(0, len(data), 65_536)]
    tracemalloc.start()
    try:
        replies = b"".join(session.feed(chunk, 0.0) for chunk in chunks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert replies.startswith(b"250 OK id=")
    delivered = core.sink.messages[0]["body"]
    assert len(delivered) >= 1 << 20
    assert peak < 2 * len(delivered)


# -- legacy delay over a socket: the server keeps listening ---------------------------

LEGACY_DELAY = 1.0


def start_legacy_delay(core):
    """Serve a socketpair in a thread and send a legacy transaction up to its
    final dot; return (client socket, reply reader, server thread, time the
    dot was sent) once the reply is being withheld."""
    server_end, client_end = socket.socketpair()
    worker = threading.Thread(target=serve_connection, args=(core, server_end, "10.1.2.3"), daemon=True)
    worker.start()
    rfile = client_end.makefile("rb")
    sent = time.time()
    client_end.sendall(wire(["EHLO legacy.example", "MAIL FROM: a@b", "RCPT TO: c@d", "DATA", *HAM_BODY, "."]))
    assert [read_reply(rfile)[0] for _ in range(5)] == [250, 250, 250, 250, 354]
    deadline = time.monotonic() + 5
    while core.traffic.burdened_count("10.1.2.3") == 0:
        assert time.monotonic() < deadline, "server never entered the delay"
        time.sleep(0.005)
    return client_end, rfile, worker, sent


def legacy_delay_core():
    return build_core(clock=SystemClock(), legacy=LegacyPolicy(pre_accept_delay=LEGACY_DELAY))


def test_hang_up_during_delay_drops_the_message():
    core = legacy_delay_core()
    client, rfile, worker, _ = start_legacy_delay(core)
    rfile.close()
    client.close()
    # the hang-up is seen at once, and frees the host's burdened slot
    worker.join(LEGACY_DELAY / 2)
    assert not worker.is_alive()
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert not core.sink.messages


def test_quit_during_delay_gets_221_at_once():
    core = legacy_delay_core()
    client, rfile, worker, _ = start_legacy_delay(core)
    with client, rfile:
        asked = time.monotonic()
        client.sendall(b"QUIT\r\n")
        assert read_reply(rfile) == (221, ["221 receiving-mail.com closing connection"])
        assert time.monotonic() - asked < LEGACY_DELAY / 2
        worker.join(10)
    assert not worker.is_alive()
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert not core.sink.messages


def test_noop_during_delay_gets_503_then_the_release():
    core = legacy_delay_core()
    client, rfile, worker, sent = start_legacy_delay(core)
    with client, rfile:
        asked = time.monotonic()
        client.sendall(b"NOOP\r\n")
        assert read_reply(rfile) == (503, ["503 Reply pending, wait"])
        assert time.monotonic() - asked < LEGACY_DELAY / 2
        code, lines = read_reply(rfile)
        assert lines[0].startswith("250 OK id=")
        assert time.time() >= sent + LEGACY_DELAY
        client.sendall(b"QUIT\r\n")
        assert read_reply(rfile)[0] == 221
        worker.join(10)
    assert not worker.is_alive()
    assert len(core.sink.messages) == 1


def test_release_already_due_is_sent_without_a_read():
    core = build_core(clock=LeapingClock(), legacy=LegacyPolicy(pre_accept_delay=30.0))
    replies = converse(core, wire(["EHLO legacy.example", "MAIL FROM: a@b", "RCPT TO: c@d", "DATA", *HAM_BODY, "."]))
    assert replies[-1].startswith(b"250 OK id=")
    assert len(core.sink.messages) == 1


# -- mailbox sink -----------------------------------------------------------------


def test_mailbox_sink_appends_per_recipient(tmp_path):
    sink = MailboxSink(tmp_path)
    sink.deliver("a@x", ["bob@ex.net"], b"first", "id1-000001-AA", 0.0)
    sink.deliver("c@y", ["bob@ex.net", "eve/../../etc@bad"], b"second", "id2-000002-BB", 1.0)
    box = (tmp_path / "bob@ex.net.mbox").read_bytes()
    assert b"first" in box and b"second" in box
    assert box.index(b"first") < box.index(b"second")
    assert b"id1-000001-AA" in box
    # path separators in recipient names must not escape the directory
    assert all(p.parent == tmp_path for p in tmp_path.iterdir())
    assert (tmp_path / "eve%2F..%2F..%2Fetc@bad.mbox").exists()


def test_mailbox_names_keep_distinct_addresses_apart(tmp_path):
    sink = MailboxSink(tmp_path)
    sink.deliver("a@x", ["eve/x@bad", "eve_x@bad", "eve%2Fx@bad"], b"hello", "id1-000001-AA", 0.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "eve%252Fx@bad.mbox", "eve%2Fx@bad.mbox", "eve_x@bad.mbox",
    ]


def test_long_mailbox_name_ends_in_its_address_digest():
    recipient = "x" * 300 + "@example.org"
    digest = hashlib.sha256(recipient.encode()).hexdigest()[:32]
    name = MailboxSink._mailbox_name(recipient)
    assert name == "x" * (255 - len("~.mbox") - 32) + "~" + digest + ".mbox"
    assert digest == "09c64bd540659e1b03059b8d52f15dbc"


def test_mailbox_quotes_body_lines_that_read_as_separators(tmp_path):
    sink = MailboxSink(tmp_path)
    sink.deliver("a@x", ["bob@ex.net"], b"Hi\r\nFrom the desk of X\r\n>From me\r\n", "id1-000001-AA", 0.0)
    sink.deliver("c@y", ["bob@ex.net"], b"second\r\n", "id2-000002-BB", 1.0)
    path = tmp_path / "bob@ex.net.mbox"
    assert b"\n>From the desk of X\r\n>>From me\r\n" in path.read_bytes()
    box = mailbox.mbox(path, create=False)
    try:
        assert len(box) == 2
    finally:
        box.close()


def mboxrd_quoted(body: bytes) -> bytes:
    return b"\n".join(b">" + line if re.match(rb">*From ", line) else line for line in body.split(b"\n"))


@pytest.mark.parametrize(
    "body",
    [
        # short lines, so that quoting makes the most pieces
        b"".join(b"%sFrom %d\r\n" % (b">" * (i % 3), i) for i in range(100_000)),
        # one long line to quote
        b"From " + b"x" * ((1 << 20) - 6) + b"\n",
    ],
    ids=["short-lines", "one-long-line"],
)
def test_mailbox_quotes_a_body_without_copying_it_whole(tmp_path, body):
    sink = MailboxSink(tmp_path)
    assert len(body) >= 1 << 20
    tracemalloc.start()
    try:
        sink.deliver("a@x", ["bob@ex.net"], body, "id1-000001-AA", 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(body) // 8
    box = (tmp_path / "bob@ex.net.mbox").read_bytes()
    assert box.split(b"\n", 2)[2] == mboxrd_quoted(body) + b"\n"


_BODY_LINES = st.one_of(
    st.sampled_from([b"", b".", b"..", b"From ", b">From ", b">>From me", b"From the desk of X", b".From x", b"From"]),
    st.builds(lambda lead, rest: lead + rest, st.sampled_from([b"From ", b">From ", b"."]), st.binary(max_size=12)),
    st.binary(max_size=20),
)
_DELIVERIES = st.lists(
    st.tuples(
        st.lists(st.text(min_size=1, max_size=300), min_size=1, max_size=3),
        st.lists(_BODY_LINES, max_size=8),
        st.sampled_from([b"\n", b"\r\n"]),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(deliveries=_DELIVERIES)
def test_mailboxes_read_back_every_delivery_as_sent(deliveries):
    with tempfile.TemporaryDirectory() as directory:
        sink = MailboxSink(directory)
        expected: dict[str, list[bytes]] = {}
        for n, (recipients, lines, eol) in enumerate(deliveries):
            message_id = f"id{n:04d}-000001-AA"
            body = eol.join(lines)
            sink.deliver("a@x", recipients, body, message_id, float(n))
            ending = b"" if body.endswith(b"\n") else b"\n"
            record = b"X-SpamFriction-Id: %s\n%s%s" % (message_id.encode(), mboxrd_quoted(body), ending)
            for rcpt in recipients:
                expected.setdefault(rcpt, []).append(record)
        # one file per distinct address, each holding that address's mail in order
        assert len(os.listdir(directory)) == len(expected)
        for rcpt, records in expected.items():
            box = mailbox.mbox(os.path.join(directory, MailboxSink._mailbox_name(rcpt)), create=False)
            try:
                assert [box.get_bytes(key) for key in box.keys()] == records
            finally:
                box.close()


def test_failed_delivery_leaves_every_mailbox_as_it_was(tmp_path):
    core = build_core()
    core.sink = MailboxSink(tmp_path)
    core.sink.deliver("a@x", ["old@x"], b"earlier mail", "id1-000001-AA", 0.0)
    before = (tmp_path / "old@x.mbox").read_bytes()
    (tmp_path / "dir@x.mbox").mkdir()  # opening it raises IsADirectoryError, even for root
    session = make_session(core)
    negotiate(session)
    session.handle_line("MAIL FROM: alice@example.org", 0.0)
    for rcpt in ("old@x", "ann@x", "dir@x", "bob@x"):
        assert session.handle_line(f"RCPT TO: {rcpt}", 0.0) == ["250 Accepted"]
    session.handle_line("DATA", 0.0)
    assert submit_body(session, HAM_BODY) == ["451 Requested action aborted: local error in processing"]
    assert (tmp_path / "old@x.mbox").read_bytes() == before
    box = mailbox.mbox(tmp_path / "ann@x.mbox", create=False)
    try:
        assert len(box) == 0
    finally:
        box.close()
    assert not (tmp_path / "bob@x.mbox").exists()


def test_longest_recipients_get_mailboxes_of_their_own(tmp_path):
    core = build_core()
    core.sink = MailboxSink(tmp_path)
    longest = ["x" * 253 + end for end in "yz"]
    replies = converse(core, wire(["EHLO a.example", "POW ISUPPORT ALG0", "MAIL FROM: <a@b.example>",
                                   *(f"RCPT TO:<{rcpt}>" for rcpt in longest), "DATA", *HAM_BODY, ".", "QUIT"]))
    assert replies[-2].startswith(b"250 OK id=")
    boxes = list(tmp_path.iterdir())
    assert len(boxes) == 2
    assert all(len(box.name) <= 255 and box.read_bytes().count(b"meeting friend") == 1 for box in boxes)


# -- reply parsing ------------------------------------------------------------------


def test_read_reply_multiline():
    stream = io.BytesIO(b"250-one\r\n250-two\r\n250 three\r\n")
    code, lines = read_reply(stream)
    assert code == 250
    assert lines == ["250-one", "250-two", "250 three"]


def test_read_reply_takes_a_bare_code():
    assert read_reply(io.BytesIO(b"250\r\n")) == (250, ["250"])
    assert read_reply(io.BytesIO(b"250-one\r\n354\r\n")) == (354, ["250-one", "354"])
    # a latin-1 superscript digit is no reply code
    with pytest.raises(ConnectionError):
        read_reply(io.BytesIO(b"25\xb2 OK\r\n"))


def test_read_reply_eof_raises():
    with pytest.raises(ConnectionError):
        read_reply(io.BytesIO(b""))
    with pytest.raises(ConnectionError):
        read_reply(io.BytesIO(b"250-never ends\r\n"))
    with pytest.raises(ConnectionError):
        read_reply(io.BytesIO(b"garbage\r\n"))


# -- TCP loopback -------------------------------------------------------------------


@pytest.fixture
def tcp_server():
    core = build_core(clock=SystemClock(), legacy=LegacyPolicy(pre_accept_delay=0.0))
    server, addr = start_server(core)
    yield core, addr
    server.shutdown()
    server.server_close()


def test_started_server_stops_promptly():
    server, addr = start_server(build_core(clock=SystemClock()))
    try:
        # one served connection shows the accept loop is running
        with socket.create_connection(addr, timeout=5) as conn:
            conn.recv(1024)
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 0.25
    finally:
        server.server_close()


def test_stock_smtplib_client_delivers_on_the_legacy_path(tmp_path):
    core = build_core(clock=SystemClock(), legacy=LegacyPolicy(pre_accept_delay=0.2))
    core.sink = MailboxSink(tmp_path)
    server, addr = start_server(core)
    body = b"Subject: lunch\r\n\r\n.see you at the meeting\r\n..friend\r\n.\r\nbye\r\n"
    recipients = ["bob@ex.net", "carol@ex.net"]
    try:
        client = smtplib.SMTP(local_hostname="legacy.example", timeout=10)
        # SMTP.connect demands a 220 greeting and the server greets with
        # 250, so the test connects the socket and reads the greeting itself
        client.sock = socket.create_connection(addr, timeout=10)
        try:
            assert client.getreply()[0] == 250
            started = time.monotonic()
            assert client.sendmail("alice@example.org", recipients, body) == {}
            assert time.monotonic() - started >= 0.2
            client.quit()
        finally:
            client.close()
    finally:
        server.shutdown()
        server.server_close()
    for rcpt in recipients:
        box = (tmp_path / f"{rcpt}.mbox").read_bytes()
        # smtplib doubled each leading dot; the server took one away again
        assert box.split(b"\n", 2)[2] == body[: -len(b"\r\n")] + b"\n\n"


def record_delivering_threads(core) -> list:
    """Make ``core.sink`` note the thread of every delivery in the list returned."""
    threads = []
    deliver = core.sink.deliver

    def noting(*args):
        threads.append(threading.current_thread())
        deliver(*args)

    core.sink.deliver = noting
    return threads


def send_ham(addr):
    return send_message(
        addr, Message("alice@example.org", ["bob@example.net"], b"meeting friend"), ClientConfig(), timeout=10,
    )


def test_sessions_one_after_another_reuse_their_threads():
    core = build_core(clock=SystemClock())
    threads = record_delivering_threads(core)
    server, addr = start_server(core)
    try:
        for _ in range(20):
            assert send_ham(addr).status is SendStatus.DELIVERED
    finally:
        server.shutdown()
        server.server_close()
    # the next connection can be accepted just before the last session's
    # thread goes idle, so a second thread may start
    assert len(threads) == 20
    assert len(set(threads)) <= 2


def test_server_delivers_over_ipv6_loopback():
    core = build_core(clock=SystemClock())
    server, addr = start_server(core, ("::1", 0))
    try:
        assert addr[0] == "::1" and len(addr) == 2
        assert send_ham(addr).status is SendStatus.DELIVERED
    finally:
        server.shutdown()
        server.server_close()
    assert len(core.sink.messages) == 1


def test_a_silent_session_delays_no_other():
    core = build_core(clock=SystemClock())
    server, addr = start_server(core)
    try:
        assert send_ham(addr).status is SendStatus.DELIVERED
        # the silent client holds the one idle thread: the next session needs another
        with socket.create_connection(addr, timeout=10) as silent, silent.makefile("rb") as rfile:
            assert read_reply(rfile)[0] == 250
            started = time.monotonic()
            assert send_ham(addr).status is SendStatus.DELIVERED
            assert time.monotonic() - started < 5
    finally:
        server.shutdown()
        server.server_close()
    assert len(core.sink.messages) == 2


def test_server_close_ends_idle_session_threads():
    core = build_core(clock=SystemClock())
    threads = record_delivering_threads(core)
    server, addr = start_server(core)
    try:
        # two at once, so that two threads serve them
        with socket.create_connection(addr, timeout=10) as held, held.makefile("rb") as rfile:
            assert read_reply(rfile)[0] == 250
            assert send_ham(addr).status is SendStatus.DELIVERED
            held.sendall(wire([*pow_transaction(), *HAM_BODY, ".", "QUIT"]))
            assert [read_reply(rfile)[0] for _ in range(7)] == [250, 250, 250, 250, 354, 250, 221]
    finally:
        server.shutdown()
        server.server_close()
    assert len(set(threads)) == 2
    for thread in threads:
        thread.join(5)
        assert not thread.is_alive()


def test_client_delivers_ham_over_tcp(tcp_server):
    core, addr = tcp_server
    result = send_message(
        addr,
        Message("alice@example.org", ["bob@example.net"], b"subject: lunch\n\nmeeting friend"),
        ClientConfig(work_budget_seconds=30.0),
    )
    assert result.status is SendStatus.DELIVERED
    assert MESSAGE_ID_RE.match(result.message_id)
    assert len(core.sink.messages) == 1
    body = core.sink.messages[0]["body"]
    assert body.replace(b"\r\n", b"\n") == b"subject: lunch\n\nmeeting friend"


def test_client_solves_puzzle_over_tcp(tcp_server):
    core, addr = tcp_server
    result = send_message(
        addr,
        Message("mallory@example.org", ["bob@example.net"], b"buy spam pills"),
        ClientConfig(work_budget_seconds=30.0),
    )
    assert result.status is SendStatus.DELIVERED
    assert core.sink.messages[0]["body"] == b"buy spam pills"


def test_client_refuses_unaffordable_burden():
    core = build_core(clock=SystemClock(), difficulty=40)
    server, addr = start_server(core)
    try:
        result = send_message(
            addr,
            Message("mallory@example.org", ["bob@example.net"], b"buy spam pills"),
            ClientConfig(work_budget_seconds=5.0, hash_rate=1e6),
        )
        assert result.status is SendStatus.REFUSED_BURDEN
        assert result.estimate_seconds > 5.0
        assert not core.sink.messages
    finally:
        server.shutdown()
        server.server_close()


def test_client_rejected_when_host_blocked(tcp_server):
    core, addr = tcp_server
    now = core.clock.now()
    for t in (now - 3, now - 2, now - 1):
        core.sinbin.record_refusal("127.0.0.1", t)
    result = send_message(
        addr,
        Message("mallory@example.org", ["bob@example.net"], b"buy spam pills"),
        ClientConfig(),
    )
    assert result.status is SendStatus.REJECTED
    assert result.code == 421


def test_client_transport_error_raises():
    probe = socket.create_server(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    with pytest.raises(OSError):
        send_message(addr, Message("a@b", ["c@d"], b"x"), ClientConfig(), timeout=0.5)


def test_dot_heavy_body_round_trips_over_tcp(tcp_server):
    core, addr = tcp_server
    body = b".\n..\n.leading meeting friend lunch\nplain"
    result = send_message(
        addr, Message("alice@example.org", ["bob@example.net"], body), ClientConfig()
    )
    assert result.status is SendStatus.DELIVERED
    assert core.sink.messages[0]["body"].replace(b"\r\n", b"\n") == body


def test_second_connection_refused_while_host_delayed():
    core = build_core(
        clock=SystemClock(),
        legacy=LegacyPolicy(
            pre_accept_delay=1.5, max_connections_per_host=1, overload_mode="refuse-connections"
        ),
    )
    server, addr = start_server(core)
    try:
        first = socket.create_connection(addr, timeout=10)
        first.settimeout(10)
        rfile = first.makefile("rb")
        read_reply(rfile)

        def command(text):
            first.sendall(text.encode() + b"\r\n")
            return read_reply(rfile)

        command("EHLO legacy.example")
        command("MAIL FROM: a@b")
        command("RCPT TO: c@d")
        command("DATA")
        first.sendall(b"meeting friend\r\n.\r\n")
        deadline = time.monotonic() + 5
        while core.traffic.burdened_count("127.0.0.1") == 0:
            assert time.monotonic() < deadline, "server never entered the delay"
            time.sleep(0.01)
        # host now has a session waiting out the delay: new connection dies
        second = socket.create_connection(addr, timeout=10)
        second.settimeout(10)
        assert second.recv(128) == b""
        second.close()
        # the first connection still gets its acceptance
        code, lines = read_reply(rfile)
        assert code == 250
        rfile.close()
        first.close()
    finally:
        server.shutdown()
        server.server_close()


def test_session_fault_counts_as_disconnect(monkeypatch):
    core = build_core(clock=SystemClock(), sinbin=SinBinConfig(max_refusals=1))

    def broken(self, arg, now):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(ServerSession, "_handle_receipt", broken)
    server, addr = start_server(core)
    try:
        conn = socket.create_connection(addr, timeout=10)
        rfile = conn.makefile("rb")
        read_reply(rfile)
        for line in ("EHLO a.example", "POW ISUPPORT ALG0", "MAIL FROM: a@b", "RCPT TO: c@d", "DATA"):
            conn.sendall(line.encode() + b"\r\n")
            read_reply(rfile)
        conn.sendall(b"buy spam pills\r\n.\r\n")
        code, lines = read_reply(rfile)
        assert code == 211
        assert core.traffic.burdened_count("127.0.0.1") == 1
        conn.sendall(f"POW RECEIPT {lines[-1].rsplit(' ', 1)[-1]}:1\r\n".encode())
        # the fault still gets a reply, sent after the session's state is released
        assert rfile.readline() == b"451 Requested action aborted: local error in processing\r\n"
        assert core.traffic.burdened_count("127.0.0.1") == 0
        conn.sendall(b"QUIT\r\n")
        assert rfile.readline() == b"221 receiving-mail.com closing connection\r\n"
        assert rfile.readline() == b""
        # the fault is the server's: no refusal is held against the host
        assert core.sinbin.blocked_until("127.0.0.1", time.time()) is None
        rfile.close()
        conn.close()
    finally:
        server.shutdown()
        server.server_close()


def test_reset_connection_counts_as_disconnect(caplog, monkeypatch):
    core = build_core(clock=SystemClock(), sinbin=SinBinConfig(max_refusals=2))
    server, addr = start_server(core)
    finished = threading.Event()
    errors = []
    serve_connection = smtp.serve_connection

    def serving(*args):
        try:
            serve_connection(*args)
        except BaseException as exc:
            errors.append(exc)
            raise
        finally:
            finished.set()

    monkeypatch.setattr(smtp, "serve_connection", serving)
    try:
        with caplog.at_level("INFO", logger="spamfriction.server"):
            conn = socket.create_connection(addr, timeout=10)
            with conn.makefile("rb") as rfile:
                read_reply(rfile)
                conn.sendall(wire([*pow_transaction(), *SPAM_BODY, "."]))
                for _ in range(6):
                    code, _ = read_reply(rfile)
            assert code == 211
            # abort the link: the server's recv gets a reset, not an EOF
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            conn.close()
            assert finished.wait(10)
    finally:
        server.shutdown()
        server.server_close()
    # the reset is the peer gone, not a server error
    assert errors == []
    assert len(core.store) == 0
    assert core.traffic.burdened_count("127.0.0.1") == 0
    refusals = [r.getMessage() for r in caplog.records if "outcome=refused" in r.getMessage()]
    assert refusals == ["outcome=refused peer=127.0.0.1 reason=disconnect"]
    # the sin bin holds that one refusal: a second one blocks the host
    now = time.time()
    assert core.sinbin.blocked_until("127.0.0.1", now) is None
    core.sinbin.record_refusal("127.0.0.1", now)
    assert core.sinbin.blocked_until("127.0.0.1", now) is not None


def test_expired_puzzle_gives_back_its_slot_while_the_sender_waits():
    core = build_core(clock=SystemClock(), server=ServerConfig(hostname="r.example", puzzle_ttl=0.3))
    server, addr = start_server(core)
    try:
        with socket.create_connection(addr, timeout=10) as conn, conn.makefile("rb") as rfile:
            read_reply(rfile)
            conn.sendall(wire([*pow_transaction(), *SPAM_BODY, "."]))
            for _ in range(6):
                code, lines = read_reply(rfile)
            assert code == 211
            deadline = time.monotonic() + 5
            while len(core.store):
                assert time.monotonic() < deadline, "the expired puzzle kept its store slot"
                time.sleep(0.01)
            # still connected: the late receipt earns its reissue, which delivers
            receipt = pow.solve(pow.parse_puzzle(lines[-1].rsplit(" ", 1)[-1]))
            conn.sendall(wire([f"POW RECEIPT {receipt.wire}"]))
            code, lines = read_reply(rfile)
            assert code == 211
            receipt = pow.solve(pow.parse_puzzle(lines[-1].rsplit(" ", 1)[-1]))
            conn.sendall(wire([f"POW RECEIPT {receipt.wire}", "QUIT"]))
            assert read_reply(rfile)[1][0].startswith("250 OK id=")
            assert read_reply(rfile)[0] == 221
    finally:
        server.shutdown()
        server.server_close()
    assert len(core.sink.messages) == 1


def test_client_gives_up_when_the_solution_lies_beyond_its_budget():
    core = build_core(clock=SystemClock(), difficulty=8)
    # first solution of 0:8:<nonce> is counter 1450, past the 256-hash cap below
    core.entropy = FixedEntropy(100000000000000033)
    server, addr = start_server(core)
    try:
        result = send_message(
            addr,
            Message("mallory@example.org", ["bob@example.net"], b"buy spam pills"),
            ClientConfig(work_budget_seconds=1.0, hash_rate=256.0),
        )
        assert result.status is SendStatus.REFUSED_BURDEN
        assert result.estimate_seconds == 1.0
        assert "256 attempts" in result.detail
        assert not core.sink.messages
    finally:
        server.shutdown()
        server.server_close()
