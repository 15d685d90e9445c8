"""Server session state machine, receipt handling, legacy senders, client."""
import io
import re
import socket
import threading
import time

import pytest

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
from spamfriction.policy import PolicyConfig, SinBinConfig
from spamfriction.scoring import Scorer, ScorerConfig
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
    assert session.mail_from == "a@b.example"
    assert session.recipients == ["c@d.example"]


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
    assert session.pow_negotiated
    assert session.negotiated_alg == 0


def test_no_common_algorithm_falls_back_to_legacy(session):
    session.handle_line("EHLO x.example", 0.0)
    # advertised but not locally implemented algorithms do not count
    assert session.handle_line("POW ISUPPORT ALG1, ALG2", 0.0) == ["250 OK"]
    assert not session.pow_negotiated
    send_envelope(session)
    assert submit_body(session, SPAM_BODY) == []
    assert session.state is SessionState.DELAYED


def test_ehlo_resets_negotiation(session):
    negotiate(session)
    assert session.pow_negotiated
    session.handle_line("EHLO x.example", 0.0)
    assert not session.pow_negotiated
    send_envelope(session)
    submit_body(session, SPAM_BODY)
    assert session.state is SessionState.DELAYED  # legacy handling again


def test_malformed_isupport_rejected(session):
    session.handle_line("EHLO x.example", 0.0)
    assert session.handle_line("POW ISUPPORT", 0.0)[0].startswith("501")
    assert session.handle_line("POW ISUPPORT ALGX", 0.0)[0].startswith("501")
    assert not session.pow_negotiated


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
    assert session.puzzle is None
    assert core.traffic.burdened_count("10.1.2.3") == 0
    # the overload is the server's: no refusal is held against the host
    assert core.sinbin.blocked_until("10.1.2.3", 1.0) is None
    send_envelope(session)
    assert submit_body(session, HAM_BODY)[0].startswith("250 OK")


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
    assert session._body_lines == []
    assert session._pending.body == "\r\n".join(lines).encode()


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
    receipt = pow.solve(session.puzzle)
    session.handle_line(f"POW RECEIPT {receipt.wire}", 0.0)
    assert core.traffic.burdened_count("10.7.7.7") == 0


# -- every exit from a burdened state releases it -------------------------------


def _bad_receipt(session):
    bad = "1" if not pow.verify_hash(session.puzzle, "1") else "2"
    return f"POW RECEIPT {session.puzzle.wire}:{bad}"


def _forged_receipt(session):
    return f"POW RECEIPT {pow.solve(pow.Puzzle(0, session.puzzle.difficulty, '42')).wire}"


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
    "accepted": (lambda s: s.handle_line(f"POW RECEIPT {pow.solve(s.puzzle).wire}", 0.0), "250"),
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
    assert session.puzzle is None
    assert session._pending is None and session._withheld is None


class FaultyClock(VirtualClock):
    """A clock whose sleep fails: a server fault while a reply is withheld."""

    def sleep(self, seconds):
        raise RuntimeError("injected fault")


@pytest.mark.parametrize("start", ["awaiting-receipt", "delayed"])
def test_server_fault_releases_the_session_without_a_refusal(monkeypatch, start):
    core = build_core(
        clock=FaultyClock(),
        legacy=LegacyPolicy(pre_accept_delay=30.0),
        sinbin=SinBinConfig(max_refusals=1),
    )
    core.entropy = FixedEntropy(int(GOLDEN_NONCE))

    def broken(receipt, now):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(core.store, "verify_and_consume", broken)
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
    (session,) = sessions
    assert session.state is SessionState.DONE
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert session.puzzle is None
    assert session._pending is None and session._withheld is None
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


def test_scorer_fault_gets_a_451():
    core = build_core()
    core.scorer = Scorer(ScorerConfig(max_body_bytes=10))
    replies = converse(core, wire([*pow_transaction(), *HAM_BODY, "."]))
    assert replies[-1] == b"451 Requested action aborted: local error in processing\r\n"
    assert not core.sink.messages


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
    assert (tmp_path / "eve_.._.._etc@bad.mbox").exists()


# -- reply parsing ------------------------------------------------------------------


def test_read_reply_multiline():
    stream = io.BytesIO(b"250-one\r\n250-two\r\n250 three\r\n")
    code, lines = read_reply(stream)
    assert code == 250
    assert lines == ["250-one", "250-two", "250 three"]


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
        # the fault still gets a reply, and the server drops the link only
        # after releasing the session's state
        assert rfile.readline() == b"451 Requested action aborted: local error in processing\r\n"
        assert rfile.readline() == b""
        assert core.traffic.burdened_count("127.0.0.1") == 0
        # the fault is the server's: no refusal is held against the host
        assert core.sinbin.blocked_until("127.0.0.1", time.time()) is None
        rfile.close()
        conn.close()
    finally:
        server.shutdown()
        server.server_close()


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
