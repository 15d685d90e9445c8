"""The sending side as a sans-IO dialogue, driven in memory and over TCP."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedEntropy, build_core, converse
from spamfriction import puzzle as pow
from spamfriction import smtp
from spamfriction.clock import SystemClock
from spamfriction.policy import PolicyConfig, SinBinConfig
from spamfriction.smtp import ClientConfig, Message, SendStatus, ServerSession, send_message, start_server
from test_protocol import GOLDEN_NONCE, GOLDEN_SOLUTION, GOLDEN_TRANSCRIPT

SPAM = Message("mallory@example.org", ["bob@example.net"], b"buy spam pills")
FAST = ClientConfig(hash_rate=1e6)  # a given rate, so nothing is measured

# the replies of a POW-capable server up to the end of DATA
UP_TO_DATA = [
    (250, ["250 ESMTP Server Ready"]),
    (250, ["250-receiving-mail.com Hello", "250-SPAMFRICTION ALG0", "250 HELP"]),
    (250, ["250 OK"]),
    (250, ["250 OK"]),
    (250, ["250 Accepted"]),
    (354, ["354 Enter message"]),
]


def script(dialogue, replies):
    """Send the scripted replies into ``dialogue``; return the lines it
    yielded before each of them and its result."""
    sent = [next(dialogue)]
    try:
        for reply in replies:
            sent.append(dialogue.send(reply))
    except StopIteration as done:
        return sent, done.value
    raise AssertionError(f"the dialogue went on after {sent}")


def test_malformed_puzzle_is_a_rejection_that_still_quits():
    sent, result = script(
        smtp.client_dialogue(SPAM, FAST),
        [*UP_TO_DATA, (211, ["211 POW Required (SPAM) 0:99:123"]), (221, ["221 bye"])],
    )
    assert sent[-1] == ["QUIT"]
    assert result.status is SendStatus.REJECTED
    assert result.code == 211
    assert "malformed puzzle" in result.detail


REJECTED, REFUSED = SendStatus.REJECTED, SendStatus.REFUSED_BURDEN


def test_a_puzzle_the_solver_lacks_is_a_refused_burden_that_still_quits():
    # the client accepts algorithm 1, but pow.solve has no solver for it
    sent, result = script(
        smtp.client_dialogue(SPAM, ClientConfig(supported_algorithms=(0, 1), hash_rate=1e6)),
        [*UP_TO_DATA, (211, ["211 POW Required (SPAM) 1:4:123"]), (221, ["221 bye"])],
    )
    assert sent[-1] == ["QUIT"]
    assert (result.status, result.detail) == (REFUSED, "unsupported algorithm 1")


@pytest.mark.parametrize(
    "replies, status, code, detail",
    [
        pytest.param([(421, ["421 busy"])], REJECTED, 421, "rejected at greeting", id="greeting-4xx"),
        pytest.param([(554, ["554 no"])], REJECTED, 554, "rejected at greeting", id="greeting-5xx"),
        pytest.param([*UP_TO_DATA[:2], (502, ["502 no"])], REJECTED, 502, "POW ISUPPORT rejected", id="isupport"),
        pytest.param([*UP_TO_DATA[:3], (550, ["550 no sender"])], REJECTED, 550, "550 no sender", id="mail"),
        pytest.param([*UP_TO_DATA[:4], (550, ["550 no user"])], REJECTED, 550, "550 no user", id="rcpt"),
        pytest.param([*UP_TO_DATA[:5], (554, ["554 no data"])], REJECTED, 554, "554 no data", id="data"),
        pytest.param(
            [*UP_TO_DATA, (211, ["211 POW Required (SPAM) 7:8:123"])],
            REFUSED,
            None,
            "unsupported algorithm 7",
            id="unsupported-algorithm",
        ),
    ],
)
def test_refusals_end_the_dialogue(replies, status, code, detail):
    past_greeting = len(replies) > 1
    sent, result = script(smtp.client_dialogue(SPAM, FAST), replies + [(221, ["221 bye"])] * past_greeting)
    assert (result.status, result.code, result.detail) == (status, code, detail)
    # past the greeting, every outcome still says QUIT
    assert sent[-1] == (["QUIT"] if past_greeting else [])


def test_only_the_final_quit_forgives_a_transport_error():
    dialogue = smtp.client_dialogue(SPAM, FAST)
    next(dialogue)
    with pytest.raises(ConnectionResetError):
        dialogue.throw(ConnectionResetError())
    dialogue = smtp.client_dialogue(SPAM, FAST)
    next(dialogue)
    dialogue.send((250, ["250 ESMTP Server Ready"]))
    assert dialogue.send((550, ["550 go away"])) == ["QUIT"]
    with pytest.raises(StopIteration) as done:
        dialogue.throw(ConnectionResetError())
    assert done.value.value == smtp.SendResult(SendStatus.REJECTED, code=550, detail="EHLO rejected")


def test_golden_transcript_from_the_client_end(monkeypatch):
    core = build_core(policy=PolicyConfig(base_difficulty=21))
    core.entropy = FixedEntropy(int(GOLDEN_NONCE))
    session = ServerSession(core, "10.1.2.3")
    lines = [f"S: {reply}" for reply in session.greet()]
    handle_line = ServerSession.handle_line

    def recording_handle_line(self, line, now=None):
        lines.append(f"C: {line}".rstrip())
        replies = handle_line(self, line, now)
        lines.extend(f"S: {reply}" for reply in replies)
        return replies

    monkeypatch.setattr(ServerSession, "handle_line", recording_handle_line)
    monkeypatch.setattr(pow, "solve", lambda puzzle, **kwargs: pow.Receipt(puzzle, GOLDEN_SOLUTION))
    message = Message("alice@sending-mail.com", ["bob@receiving-mail.com"], b"Subject: spam\n\nbuy spam pills")
    result = converse(message, session, ClientConfig(helo_name="sending-mail.com", supported_algorithms=(0, 1, 4)))
    assert result.status is SendStatus.DELIVERED
    rendered = "\n".join(lines) + "\n"
    templated = rendered.replace(GOLDEN_NONCE, "{NONCE}").replace(GOLDEN_SOLUTION, "{SOLUTION}")
    assert templated.replace(result.message_id, "{ID}") == GOLDEN_TRANSCRIPT


def test_legacy_reply_is_released_in_memory():
    core = build_core()
    result = converse(SPAM, ServerSession(core, "10.1.2.3"), ClientConfig(supported_algorithms=(7,)))
    assert result.status is SendStatus.DELIVERED
    assert core.sink.messages[0]["body"] == b"buy spam pills"


@pytest.mark.parametrize(
    "client",
    [FAST, ClientConfig(supported_algorithms=(7,))],
    ids=["after-the-receipt", "at-the-legacy-release"],
)
def test_sink_fault_gets_a_451_in_memory_and_releases_the_host(client):
    core = build_core(sinbin=SinBinConfig(max_refusals=1))

    def broken(*args):
        raise PermissionError("injected fault")

    core.sink.deliver = broken
    session = ServerSession(core, "10.1.2.3")
    result = converse(SPAM, session, client)
    assert (result.status, result.code) == (SendStatus.REJECTED, 451)
    assert session.state is smtp.SessionState.DONE
    assert core.traffic.burdened_count("10.1.2.3") == 0
    assert len(core.store) == 0
    assert core.sinbin.blocked_until("10.1.2.3", 0.0) is None


# -- a finished transaction gives back its puzzle-store slot ---------------------


def test_paid_messages_give_back_their_store_slots():
    core = build_core()
    core.store = pow.IssuedPuzzleStore(10)
    for _ in range(12):
        assert converse(SPAM, ServerSession(core, "10.1.2.3"), FAST).status is SendStatus.DELIVERED
        assert len(core.store) == 0
    assert len(core.sink.messages) == 12


def test_abandoned_puzzles_give_back_their_store_slots():
    core = build_core()
    core.store = pow.IssuedPuzzleStore(50)
    walk_away = ClientConfig(hash_rate=1e6, work_budget_seconds=0.0)
    for host in range(50):
        result = converse(SPAM, ServerSession(core, f"10.0.0.{host}"), walk_away)
        assert result.status is SendStatus.REFUSED_BURDEN
        assert len(core.store) == 0
    core.clock.advance(60.0)
    assert converse(SPAM, ServerSession(core, "10.1.2.3"), FAST).status is SendStatus.DELIVERED


# -- the in-memory conversation delivers what the wire delivers --------------------

BODIES = st.lists(
    st.sampled_from([".", "..", "\r", "\n", "\r\n", "meeting ", "spam ", "\xe9"]), max_size=12
).map(lambda tokens: "".join(tokens).encode("latin-1"))


@pytest.fixture(scope="module")
def loopback():
    core = build_core(clock=SystemClock())
    server, addr = start_server(core)
    yield core, addr
    server.shutdown()
    server.server_close()


@settings(max_examples=30, deadline=None)
@given(body=BODIES)
def test_converse_delivers_what_the_socket_delivers(loopback, body):
    tcp_core, addr = loopback
    message = Message("alice@example.org", ["bob@example.net"], body)
    over_tcp = send_message(addr, message, FAST)
    memory_core = build_core()
    in_memory = converse(message, ServerSession(memory_core, "127.0.0.1"), FAST)
    assert over_tcp.status is in_memory.status is SendStatus.DELIVERED
    assert memory_core.sink.messages[-1]["body"] == tcp_core.sink.messages[-1]["body"]
