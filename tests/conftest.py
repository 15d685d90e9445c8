import io
import random

import pytest

from spamfriction import smtp
from spamfriction.clock import VirtualClock
from spamfriction.policy import PolicyConfig, SinBinConfig
from spamfriction.scoring import Scorer, ScorerConfig
from spamfriction.smtp import ClientConfig, LegacyPolicy, MailServerCore, ServerConfig, ServerSession

# weights chosen so test bodies land far from the 0.05 threshold
TEST_WEIGHTS = {
    "spam": 9.0,
    "viagra": 9.0,
    "pills": 9.0,
    "meeting": -9.0,
    "friend": -9.0,
    "lunch": -9.0,
}

SPAM_BODY = ["Subject: spam", "", "buy spam pills"]
HAM_BODY = ["Subject: lunch", "", "see you at the meeting friend"]


class FixedEntropy:
    """Entropy stub handing out a predetermined nonce sequence."""

    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, lo, hi):
        return self.values.pop(0)


class RecordingSink:
    """In-memory delivery target for assertions."""

    def __init__(self):
        self.messages = []

    def deliver(self, mail_from, recipients, body, message_id, when):
        self.messages.append(
            {
                "from": mail_from,
                "to": tuple(recipients),
                "body": body,
                "id": message_id,
                "when": when,
            }
        )


def build_core(
    *,
    clock=None,
    difficulty=8,
    entropy_seed=1234,
    rng_seed=99,
    sinbin=None,
    legacy=None,
    server=None,
    policy=None,
    scorer_weights=TEST_WEIGHTS,
):
    sink = RecordingSink()
    core = MailServerCore(
        config=server or ServerConfig(hostname="receiving-mail.com"),
        policy_config=policy or PolicyConfig(base_difficulty=difficulty, sinbin=sinbin or SinBinConfig()),
        scorer=Scorer(ScorerConfig(token_weights=dict(scorer_weights))),
        sink=sink,
        clock=clock or VirtualClock(),
        legacy=legacy or LegacyPolicy(),
        entropy=random.Random(entropy_seed),
        rng=random.Random(rng_seed),
    )
    return core


@pytest.fixture
def vclock():
    return VirtualClock()


@pytest.fixture
def core(vclock):
    return build_core(clock=vclock)


@pytest.fixture
def session(core):
    sess = ServerSession(core, "10.1.2.3")
    sess.greet()
    return sess


def run_lines(session, lines, now=0.0):
    """Feed lines, return the last non-empty reply list."""
    replies = []
    for line in lines:
        replies = session.handle_line(line, now)
    return replies


def negotiate(session, now=0.0, helo="sending-mail.com", algs="ALG0, ALG1, ALG4"):
    session.handle_line(f"EHLO {helo}", now)
    session.handle_line(f"POW ISUPPORT {algs}", now)


def send_envelope(session, now=0.0, mail_from="alice@example.org", rcpt="bob@example.net"):
    session.handle_line(f"MAIL FROM: {mail_from}", now)
    session.handle_line(f"RCPT TO: {rcpt}", now)
    session.handle_line("DATA", now)


def submit_body(session, body_lines, now=0.0):
    """Send body lines and the terminating dot; returns the end-of-data reply."""
    for line in body_lines:
        session.handle_line(line, now)
    return session.handle_line(".", now)


def converse(message, session, config=None):
    """Run ``smtp.client_dialogue`` against ``session`` in memory, with no
    socket or thread, and return the client's SendResult.  Time is read from
    the session's core clock; a withheld legacy reply is released as soon as
    the client waits for it, and a session that has ended reads as a closed
    connection, as it does to ``client_send``."""
    dialogue = smtp.client_dialogue(message, config or ClientConfig())
    replies = smtp._to_wire(session.greet())
    try:
        lines = next(dialogue)
        while True:
            replies += session.feed(smtp._to_wire(lines), session.core.clock.now())
            if not replies:
                replies = smtp._to_wire(session.poll(session.next_release()))
            rfile = io.BytesIO(replies)
            replies = b""
            try:
                reply = smtp.read_reply(rfile)
            except ConnectionError as exc:
                lines = dialogue.throw(exc)
                continue
            assert not rfile.read(), "more than one reply to one step of the dialogue"
            lines = dialogue.send(reply)
    except StopIteration as done:
        return done.value
