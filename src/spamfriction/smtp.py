"""SMTP dialect with targeted-cost proof-of-work.

The receiving server advertises ``SPAMFRICTION <alg list>`` in its EHLO
response; a capable client acknowledges with ``POW ISUPPORT <alg list>``.
After end-of-data the server scores the message and either accepts it,
demands work with ``211 POW Required (SPAM) <puzzle>`` (answered via
``POW RECEIPT <puzzle:solution>``), or temporarily rejects a sin-binned
host.  Clients that never negotiate POW get the legacy treatment: the
post-DATA reply is withheld for a configured delay, and concurrent traffic
from a host with sessions stuck in that state is throttled by one of three
overload modes.

Sessions are single-threaded state machines over CRLF-delimited lines; all
timers consult an injectable clock so tests and simulations can run in
virtual time.  Shared state across sessions is limited to the issued-puzzle
store, the sin bin, and the per-host traffic counters.
"""
from __future__ import annotations

import enum
import logging
import random
import re
import socket
import socketserver
import string
import threading
import time
from dataclasses import dataclass

from . import puzzle as pow
from .clock import SystemClock
from .policy import Decision, DecisionKind, PolicyConfig, SinBin, decide
from .scoring import DEFAULT_MAX_BODY_BYTES, Scorer, ScorerConfig, SpamScore

logger = logging.getLogger("spamfriction.server")

GREETING = "250 ESMTP Server Ready"
CRLF = "\r\n"
# longest line read from the wire, CRLF included; the rest of a longer line
# is discarded, and the session refuses what it was handed of it
MAX_LINE_BYTES = 65536

# algorithms this implementation can actually mint and verify locally;
# the advertised list may be wider for negotiation purposes
IMPLEMENTED_ALGORITHMS = frozenset({pow.ALG_BASELINE})

_ALG_TOKEN_RE = re.compile(r"^ALG(\d{1,3})$", re.IGNORECASE)


def format_alg_list(algorithms) -> str:
    return ", ".join(f"ALG{a}" for a in sorted(algorithms))


def parse_alg_list(text: str) -> set[int]:
    """Parse ``ALG0, ALG1, ALG4`` (comma separated, spacing tolerated)."""
    algs: set[int] = set()
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        m = _ALG_TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad algorithm token: {token!r}")
        algs.add(int(m.group(1)))
    if not algs:
        raise ValueError("empty algorithm list")
    return algs


@dataclass
class ServerConfig:
    hostname: str = "localhost"
    max_message_bytes: int = DEFAULT_MAX_BODY_BYTES
    advertise_auth: bool = True
    advertise_starttls: bool = True
    pow_algorithms: tuple[int, ...] = (0, 1, 2)
    puzzle_ttl: float = 7200.0

    def __post_init__(self) -> None:
        if self.max_message_bytes < 1:
            raise ValueError("max_message_bytes must be positive")
        if self.puzzle_ttl <= 0:
            raise ValueError("puzzle_ttl must be positive")
        if any(a < 0 for a in self.pow_algorithms):
            raise ValueError("algorithm ids must be non-negative")


OVERLOAD_REFUSE = "refuse-connections"
OVERLOAD_TEMP_REJECT = "temp-reject"
OVERLOAD_ESCALATE = "escalate-difficulty"
OVERLOAD_MODES = (OVERLOAD_REFUSE, OVERLOAD_TEMP_REJECT, OVERLOAD_ESCALATE)


@dataclass
class LegacyPolicy:
    """How non-POW senders are treated, and what happens to extra traffic
    from a host that already has sessions waiting (for a receipt or for the
    legacy delay to elapse)."""

    pre_accept_delay: float = 30.0
    max_connections_per_host: int = 1
    overload_mode: str = OVERLOAD_REFUSE

    def __post_init__(self) -> None:
        if self.pre_accept_delay < 0:
            raise ValueError("pre_accept_delay must be non-negative")
        if self.max_connections_per_host < 1:
            raise ValueError("max_connections_per_host must be at least 1")
        if self.overload_mode not in OVERLOAD_MODES:
            raise ValueError(f"overload_mode must be one of {OVERLOAD_MODES}")


class HostTraffic:
    """Per-host count of sessions currently holding the server's patience:
    awaiting a POW receipt or sitting out the legacy delay."""

    def __init__(self, legacy: LegacyPolicy):
        self.legacy = legacy
        self._burdened: dict[str, int] = {}
        self._lock = threading.Lock()

    def burdened_count(self, host: str) -> int:
        with self._lock:
            return self._burdened.get(host, 0)

    def enter_burdened(self, host: str) -> None:
        with self._lock:
            self._burdened[host] = self._burdened.get(host, 0) + 1

    def leave_burdened(self, host: str) -> None:
        with self._lock:
            count = self._burdened.get(host, 0) - 1
            if count <= 0:
                self._burdened.pop(host, None)
            else:
                self._burdened[host] = count

    def overloaded(self, host: str) -> bool:
        return self.burdened_count(host) >= self.legacy.max_connections_per_host

    def connection_allowed(self, host: str) -> bool:
        if self.legacy.overload_mode != OVERLOAD_REFUSE:
            return True
        return not self.overloaded(host)


class MailboxSink:
    """Append-only mailbox file per recipient under one directory."""

    def __init__(self, directory):
        import os

        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()

    @staticmethod
    def _mailbox_name(recipient: str) -> str:
        safe = re.sub(r"[^A-Za-z0-9.@+_-]", "_", recipient)
        return f"{safe}.mbox"

    def deliver(self, mail_from: str, recipients, body: bytes, message_id: str, when: float) -> None:
        import os

        stamp = time.asctime(time.gmtime(when))
        header = f"From {mail_from} {stamp}\nX-SpamFriction-Id: {message_id}\n".encode("latin-1")
        with self._lock:
            for rcpt in recipients:
                path = os.path.join(self.directory, self._mailbox_name(rcpt))
                with open(path, "ab") as fh:
                    fh.write(header)
                    fh.write(body)
                    if not body.endswith(b"\n"):
                        fh.write(b"\n")
                    fh.write(b"\n")


class MailServerCore:
    """State shared by every session of one receiving server."""

    def __init__(
        self,
        *,
        config: ServerConfig | None = None,
        policy_config: PolicyConfig | None = None,
        scorer: Scorer | None = None,
        sinbin: SinBin | None = None,
        store: pow.IssuedPuzzleStore | None = None,
        sink=None,
        clock=None,
        legacy: LegacyPolicy | None = None,
        entropy: random.Random | None = None,
        rng: random.Random | None = None,
    ):
        # "is None", not "or": an empty store is falsy (it has __len__)
        self.config = ServerConfig() if config is None else config
        self.policy_config = PolicyConfig() if policy_config is None else policy_config
        self.scorer = Scorer(ScorerConfig()) if scorer is None else scorer
        self.sinbin = SinBin(self.policy_config.sinbin) if sinbin is None else sinbin
        self.store = pow.IssuedPuzzleStore() if store is None else store
        self.sink = sink
        self.clock = SystemClock() if clock is None else clock
        self.legacy = LegacyPolicy() if legacy is None else legacy
        self.entropy = entropy
        self.rng = random.Random() if rng is None else rng
        self.traffic = HostTraffic(self.legacy)
        self._id_lock = threading.Lock()

    def issuable_algorithms(self, client_algs: set[int]) -> list[int]:
        usable = set(self.config.pow_algorithms) & client_algs & IMPLEMENTED_ALGORITHMS
        return sorted(usable)

    def new_message_id(self) -> str:
        alnum = string.ascii_letters + string.digits
        with self._id_lock:
            a = "".join(self.rng.choice(alnum) for _ in range(6))
            b = "".join(self.rng.choice(string.digits) for _ in range(6))
            c = "".join(self.rng.choice(alnum) for _ in range(2))
        return f"{a}-{b}-{c}"


class SessionState(enum.Enum):
    GREETED = "greeted"              # banner sent, waiting for EHLO/HELO
    READY = "ready"                  # hello done, no open envelope
    MAIL_FROM = "mail-from"
    RCPT_TO = "rcpt-to"
    DATA = "data"
    AWAITING_RECEIPT = "awaiting-receipt"
    DELAYED = "delayed"              # legacy post-DATA reply withheld
    DONE = "done"


# the states in which a session holds one of its host's burdened slots
_BURDENED_STATES = frozenset({SessionState.AWAITING_RECEIPT, SessionState.DELAYED})


@dataclass
class _PendingMessage:
    mail_from: str
    recipients: list[str]
    body: bytes
    score: SpamScore


class ServerSession:
    """One SMTP session: a state machine fed CRLF-stripped lines.

    ``handle_line`` returns the reply lines to send (without CRLF).  While
    the session is in DELAYED state the transport must call ``poll`` until
    the withheld reply becomes due; ``next_release`` says when.
    """

    def __init__(self, core: MailServerCore, peer_host: str):
        self.core = core
        self.peer_host = peer_host
        self.state = SessionState.GREETED
        self.helo_name: str | None = None
        self.client_algs: set[int] | None = None
        self.pow_negotiated = False
        self.negotiated_alg: int | None = None
        self.mail_from: str | None = None
        self.recipients: list[str] = []
        self._body_lines: list[bytes] = []
        self._body_size = 0
        self._data_error: str | None = None
        self.puzzle: pow.Puzzle | None = None
        self._reissued = False
        self._pending: _PendingMessage | None = None
        self._release_at: float | None = None
        self._withheld: list[str] | None = None

    # -- transport surface -------------------------------------------------

    def greet(self) -> list[str]:
        return [GREETING]

    def handle_line(self, line: str, now: float | None = None) -> list[str]:
        if now is None:
            now = self.core.clock.now()
        if self.state is SessionState.DONE:
            return []
        if self.state is SessionState.DATA:
            return self._handle_data_line(line, now)
        if len(line) > 8192:
            return ["500 Line too long"]
        verb, _, rest = line.partition(" ")
        verb = verb.upper()
        rest = rest.strip()
        if self.state is SessionState.DELAYED:
            if verb == "QUIT":
                return self._handle_quit(now)
            return ["503 Reply pending, wait"]
        handler = self._COMMANDS.get(verb)
        if handler is None:
            return ["500 Unrecognised command"]
        return handler(self, rest, now)

    def poll(self, now: float | None = None) -> list[str]:
        """Release a withheld legacy reply once its delay has elapsed."""
        if now is None:
            now = self.core.clock.now()
        if self.state is not SessionState.DELAYED or self._release_at is None:
            return []
        if now < self._release_at:
            return []
        pending = self._pending
        withheld = self._withheld
        if pending is not None:
            # the acceptance is only uttered now, so delivery happens now
            self._end_transaction(SessionState.READY, now)
            return [self._deliver(pending, now, resisted=False)]
        # the withheld reply was a temporary rejection; end the session
        self._end_transaction(SessionState.DONE, now)
        return withheld or []

    def next_release(self) -> float | None:
        return self._release_at if self.state is SessionState.DELAYED else None

    def on_disconnect(self, now: float | None = None) -> None:
        """Transport-level EOF.  Dropping the link while a puzzle is
        outstanding counts as declining the burden."""
        if now is None:
            now = self.core.clock.now()
        self._end_transaction(SessionState.DONE, now, refusal="disconnect")

    # -- command handlers ----------------------------------------------------

    def _hello(self, arg: str, now: float, reason: str) -> None:
        # a fresh EHLO or HELO ends any transaction and renegotiates from scratch
        self._end_transaction(SessionState.READY, now, refusal=reason)
        self.helo_name = arg
        self.client_algs = None
        self.pow_negotiated = False
        self.negotiated_alg = None

    def _handle_ehlo(self, arg: str, now: float) -> list[str]:
        if not arg:
            return ["501 EHLO requires a domain"]
        self._hello(arg, now, "ehlo-reset")
        cfg = self.core.config
        lines = [f"250-{cfg.hostname} Hello {arg} [{self.peer_host}]"]
        lines.append(f"250-SIZE {cfg.max_message_bytes}")
        if cfg.advertise_auth:
            lines.append("250-AUTH PLAIN LOGIN")
        if cfg.advertise_starttls:
            lines.append("250-STARTTLS")
        if cfg.pow_algorithms:
            lines.append(f"250-SPAMFRICTION {format_alg_list(cfg.pow_algorithms)}")
        lines.append("250 HELP")
        return lines

    def _handle_helo(self, arg: str, now: float) -> list[str]:
        if not arg:
            return ["501 HELO requires a domain"]
        self._hello(arg, now, "helo-reset")
        return [f"250 {self.core.config.hostname} Hello {arg} [{self.peer_host}]"]

    def _handle_pow(self, rest: str, now: float) -> list[str]:
        subverb, _, arg = rest.partition(" ")
        subverb = subverb.upper()
        if subverb == "ISUPPORT":
            if not self.core.config.pow_algorithms:
                return ["500 Unrecognised command"]
            if self.state is not SessionState.READY:
                return ["503 Bad sequence of commands"]
            try:
                algs = parse_alg_list(arg)
            except ValueError:
                return ["501 Malformed algorithm list"]
            self.client_algs = algs
            usable = self.core.issuable_algorithms(algs)
            self.pow_negotiated = bool(usable)
            self.negotiated_alg = usable[0] if usable else None
            return ["250 OK"]
        if subverb == "RECEIPT":
            if self.state is not SessionState.AWAITING_RECEIPT:
                return ["503 Bad sequence of commands"]
            return self._handle_receipt(arg, now)
        return ["501 Unknown POW subcommand"]

    def _handle_mail(self, rest: str, now: float) -> list[str]:
        if self.state is not SessionState.READY:
            return ["503 Bad sequence of commands"]
        if (
            self.core.legacy.overload_mode == OVERLOAD_TEMP_REJECT
            and self.core.traffic.overloaded(self.peer_host)
        ):
            return ["450 Host has deliveries pending, try again later"]
        addr = self._parse_path(rest, "FROM")
        if addr is None:
            return ["501 Syntax: MAIL FROM:<address>"]
        self.mail_from = addr
        self.state = SessionState.MAIL_FROM
        return ["250 OK"]

    def _handle_rcpt(self, rest: str, now: float) -> list[str]:
        if self.state not in (SessionState.MAIL_FROM, SessionState.RCPT_TO):
            return ["503 Bad sequence of commands"]
        addr = self._parse_path(rest, "TO")
        if addr is None:
            return ["501 Syntax: RCPT TO:<address>"]
        self.recipients.append(addr)
        self.state = SessionState.RCPT_TO
        return ["250 Accepted"]

    def _handle_data(self, rest: str, now: float) -> list[str]:
        if self.state is not SessionState.RCPT_TO:
            return ["503 Bad sequence of commands"]
        self.state = SessionState.DATA
        return ['354 Enter message, ending with "." on a line by itself']

    def _handle_rset(self, rest: str, now: float) -> list[str]:
        greeted = self.state is SessionState.GREETED
        self._end_transaction(SessionState.GREETED if greeted else SessionState.READY, now, refusal="rset")
        return ["250 OK"]

    def _handle_quit(self, now: float) -> list[str]:
        self._end_transaction(SessionState.DONE, now, refusal="quit")
        return [f"221 {self.core.config.hostname} closing connection"]

    @staticmethod
    def _parse_path(rest: str, keyword: str) -> str | None:
        prefix, _, remainder = rest.partition(":")
        if prefix.strip().upper() != keyword:
            return None
        addr = remainder.strip().split(" ", 1)[0] if remainder.strip() else ""
        addr = addr.strip()
        if addr.startswith("<") and addr.endswith(">"):
            addr = addr[1:-1]
        if not addr:
            return None
        return addr

    # -- DATA and the delivery decision ---------------------------------------

    def _handle_data_line(self, line: str, now: float) -> list[str]:
        if line == ".":
            return self._finish_data(now)
        if self._data_error is not None:
            return []
        too_long = len(line) > MAX_LINE_BYTES - 2
        if line.startswith("."):
            line = line[1:]  # transparency: un-stuff the leading dot
        self._body_size += len(line) + 2
        if too_long:
            self._data_error = "500 Line too long"
        elif self._body_size > self.core.config.max_message_bytes:
            self._data_error = "552 Message size exceeds fixed maximum message size"
        else:
            self._body_lines.append(line.encode("latin-1"))
            return []
        self._body_lines = []
        return []

    def _finish_data(self, now: float) -> list[str]:
        core = self.core
        if self._data_error is not None:
            error = self._data_error
            self._end_transaction(SessionState.READY, now)
            return [error]
        body = b"\r\n".join(self._body_lines)
        self._body_lines = []
        score = core.scorer.score(body)
        decision = decide(
            score,
            self.peer_host,
            self.mail_from or "",
            core.policy_config,
            core.sinbin,
            core.rng,
            now,
        )
        if (
            decision.kind is DecisionKind.RESIST
            and core.legacy.overload_mode == OVERLOAD_ESCALATE
        ):
            # pile difficulty onto hosts that already have sessions waiting
            extra = core.traffic.burdened_count(self.peer_host)
            if extra:
                decision = Decision.resist(min(pow.MAX_DIFFICULTY, decision.difficulty + extra))
        message = _PendingMessage(self.mail_from or "", list(self.recipients), body, score)
        self._log_decision(score, decision, now)
        if self.pow_negotiated:
            return self._finish_data_pow(message, decision, now)
        return self._finish_data_legacy(message, decision, now)

    def _finish_data_pow(self, message: _PendingMessage, decision: Decision, now: float) -> list[str]:
        if decision.kind is DecisionKind.BLOCKED:
            self._end_transaction(SessionState.DONE, now)
            return ["421 Service temporarily unavailable, try again later"]
        if decision.kind is DecisionKind.ACCEPT:
            self._end_transaction(SessionState.READY, now)
            return [self._deliver(message, now, resisted=False)]
        try:
            challenge = self._issue_puzzle(decision.difficulty, now)
        except pow.StoreFullError:
            self._end_transaction(SessionState.READY, now)
            return ["452 Too many outstanding puzzles, try again later"]
        self._pending = message
        self.core.traffic.enter_burdened(self.peer_host)
        self.state = SessionState.AWAITING_RECEIPT
        return [f"211 POW Required (SPAM) {challenge.wire}"]

    def _finish_data_legacy(self, message: _PendingMessage, decision: Decision, now: float) -> list[str]:
        # a sender that never negotiated POW cannot solve puzzles; the
        # pre-accept delay is the burden it carries instead, and the reply
        # (acceptance or rejection) is withheld until the delay elapses
        if decision.kind is DecisionKind.BLOCKED:
            self._withheld = ["421 Service temporarily unavailable, try again later"]
        else:
            self._pending = message
        delay = self.core.legacy.pre_accept_delay
        self._release_at = now + delay
        self.core.traffic.enter_burdened(self.peer_host)
        self.state = SessionState.DELAYED
        if delay == 0:
            return self.poll(now)
        return []

    def _issue_puzzle(self, difficulty: int, now: float) -> pow.Puzzle:
        core = self.core
        challenge = pow.generate_challenge(
            core.store,
            algorithm=self.negotiated_alg if self.negotiated_alg is not None else pow.ALG_BASELINE,
            difficulty=difficulty,
            ttl=core.config.puzzle_ttl,
            entropy=core.entropy,
            now=now,
        )
        self.puzzle = challenge
        return challenge

    # -- receipt verification --------------------------------------------------

    def _handle_receipt(self, arg: str, now: float) -> list[str]:
        try:
            receipt = pow.parse_receipt(arg)
        except pow.WireFormatError:
            return ["501 Malformed POW receipt"]
        assert self.puzzle is not None
        if receipt.puzzle.nonce != self.puzzle.nonce:
            # replayed or fabricated receipt: no second chance
            return self._fail_receipt(now, "wrong-nonce")
        outcome = self.core.store.verify_and_consume(receipt, now)
        if outcome is pow.VerifyOutcome.ACCEPTED:
            pending = self._pending
            assert pending is not None
            self._end_transaction(SessionState.READY, now)
            return [self._deliver(pending, now, resisted=True)]
        if outcome in (pow.VerifyOutcome.BAD_SOLUTION, pow.VerifyOutcome.EXPIRED) and not self._reissued:
            # one fresh chance for an honest solver that fumbled or ran long
            self._reissued = True
            try:
                challenge = self._issue_puzzle(self.puzzle.difficulty, now)
            except pow.StoreFullError:
                # the overload is the server's, so no refusal is recorded
                self._end_transaction(SessionState.READY, now)
                return ["452 Too many outstanding puzzles, try again later"]
            return [f"211 POW Required (SPAM) {challenge.wire}"]
        return self._fail_receipt(now, outcome.value)

    def _fail_receipt(self, now: float, reason: str) -> list[str]:
        self._end_transaction(SessionState.READY, now, refusal=reason)
        return ["554 POW verification failed"]

    # -- shared helpers --------------------------------------------------------

    def _deliver(self, message: _PendingMessage, now: float, resisted: bool) -> str:
        core = self.core
        message_id = core.new_message_id()
        if core.sink is not None:
            core.sink.deliver(message.mail_from, message.recipients, message.body, message_id, now)
        core.sinbin.record_success(self.peer_host)
        logger.info(
            "outcome=delivered peer=%s from=%s rcpts=%d resisted=%s id=%s",
            self.peer_host,
            message.mail_from,
            len(message.recipients),
            "yes" if resisted else "no",
            message_id,
        )
        return f"250 OK id={message_id}"

    def _log_decision(self, score: SpamScore, decision: Decision, now: float) -> None:
        difficulty = decision.difficulty if decision.kind is DecisionKind.RESIST else "-"
        logger.info(
            "decision ts=%.3f peer=%s from=%s score=%.4f degraded=%s decision=%s difficulty=%s pow=%s",
            now,
            self.peer_host,
            self.mail_from or "",
            score.value,
            "yes" if score.degraded else "no",
            decision.kind.value,
            difficulty,
            "yes" if self.pow_negotiated else "no",
        )

    def _end_transaction(self, state: SessionState, now: float, refusal: str | None = None) -> None:
        """The one way out of a mail transaction, whatever ends it.

        Walking away from an outstanding puzzle with ``refusal`` set counts
        as declining the burden.  The host's burdened slot is released, and
        the puzzle, the pending message, the withheld reply and the envelope
        are dropped before the session moves to ``state``.
        """
        if refusal is not None and self.puzzle is not None:
            self.core.sinbin.record_refusal(self.peer_host, now)
            logger.info("outcome=refused peer=%s reason=%s", self.peer_host, refusal)
        if self.state in _BURDENED_STATES:
            self.core.traffic.leave_burdened(self.peer_host)
        self.puzzle = None
        self._reissued = False
        self._pending = None
        self._withheld = None
        self._release_at = None
        self.mail_from = None
        self.recipients = []
        self._body_lines = []
        self._body_size = 0
        self._data_error = None
        self.state = state

    _COMMANDS = {
        "EHLO": _handle_ehlo,
        "HELO": _handle_helo,
        "POW": _handle_pow,
        "MAIL": _handle_mail,
        "RCPT": _handle_rcpt,
        "DATA": _handle_data,
        "RSET": _handle_rset,
        "NOOP": lambda self, rest, now: ["250 OK"],
        "HELP": lambda self, rest, now: [
            "214 Commands supported: EHLO HELO MAIL RCPT DATA POW RSET NOOP HELP QUIT"
        ],
        "QUIT": lambda self, rest, now: self._handle_quit(now),
    }


# -- transport: running sessions over sockets -----------------------------------


def serve_connection(core: MailServerCore, conn: socket.socket, peer_host: str) -> None:
    """Pump one connection through a ServerSession until QUIT or EOF.

    Legacy-delay waits use the core's clock, so a virtual clock makes them
    instantaneous in tests.
    """
    session = ServerSession(core, peer_host)
    rfile = conn.makefile("rb")

    def send(lines) -> None:
        if lines:
            conn.sendall(("".join(line + CRLF for line in lines)).encode("latin-1"))

    try:
        send(session.greet())
        while session.state is not SessionState.DONE:
            raw = rfile.readline(MAX_LINE_BYTES)
            if not raw:
                session.on_disconnect(core.clock.now())
                break
            if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                # over-long: drop the rest, which is no line of its own
                while (rest := rfile.readline(MAX_LINE_BYTES)) and not rest.endswith(b"\n"):
                    pass
            line = raw.rstrip(b"\r\n").decode("latin-1")
            send(session.handle_line(line, core.clock.now()))
            while session.state is SessionState.DELAYED:
                release = session.next_release()
                assert release is not None
                wait = release - core.clock.now()
                if wait > 0:
                    core.clock.sleep(wait)
                send(session.poll(core.clock.now()))
    except OSError:
        session.on_disconnect(core.clock.now())
    except Exception:
        # a server fault still ends in a reply, must release the host's
        # burdened slot, and is not the sender's refusal
        logger.exception("session with %s failed", peer_host)
        try:
            send(["451 Requested action aborted: local error in processing"])
        except OSError:
            pass
        session._end_transaction(SessionState.DONE, core.clock.now())
    finally:
        rfile.close()
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.close()


class PowSmtpServer(socketserver.ThreadingTCPServer):
    """Thread-per-session TCP front end."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, listen_addr: tuple[str, int], core: MailServerCore):
        self.core = core
        super().__init__(listen_addr, _ConnectionHandler)

    def verify_request(self, request, client_address) -> bool:
        # overload mode a: refuse connections from hosts with sessions
        # already waiting on a burden
        return self.core.traffic.connection_allowed(client_address[0])


class _ConnectionHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        serve_connection(self.server.core, self.request, self.client_address[0])


def start_server(core: MailServerCore, listen_addr: tuple[str, int] = ("127.0.0.1", 0)):
    """Start a server thread; returns (server, bound_address)."""
    server = PowSmtpServer(listen_addr, core)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address


# -- client ----------------------------------------------------------------------


class SendStatus(enum.Enum):
    DELIVERED = "delivered"
    REFUSED_BURDEN = "refused-burden"
    REJECTED = "rejected"


@dataclass(frozen=True)
class SendResult:
    status: SendStatus
    code: int | None = None
    detail: str = ""
    message_id: str | None = None
    estimate_seconds: float | None = None


@dataclass
class Message:
    mail_from: str
    recipients: list[str]
    body: bytes

    def __post_init__(self) -> None:
        if not self.mail_from:
            raise ValueError("message needs an envelope sender")
        if not self.recipients:
            raise ValueError("message needs at least one recipient")


class SmtpReplyError(Exception):
    def __init__(self, code: int, lines: list[str]):
        super().__init__(f"{code}: {lines[-1] if lines else ''}")
        self.code = code
        self.lines = lines


def read_reply(rfile) -> tuple[int, list[str]]:
    """Read one (possibly multiline) SMTP reply; returns (code, text lines)."""
    lines: list[str] = []
    while True:
        raw = rfile.readline(MAX_LINE_BYTES)
        if not raw:
            raise ConnectionError("server closed the connection mid-reply")
        text = raw.rstrip(b"\r\n").decode("latin-1")
        if len(text) < 4 or not text[:3].isdigit():
            raise ConnectionError(f"malformed reply line: {text!r}")
        lines.append(text)
        if text[3] != "-":
            return int(text[:3]), lines


@dataclass
class ClientConfig:
    helo_name: str = "sending-mail.invalid"
    supported_algorithms: tuple[int, ...] = (0,)
    work_budget_seconds: float = 60.0
    hash_rate: float | None = None     # measured on first use when None
    max_reissues: int = 2


_rate_cache_lock = threading.Lock()
_rate_cache: list[float] = []


def _local_hash_rate() -> float:
    with _rate_cache_lock:
        if not _rate_cache:
            _rate_cache.append(pow.measure_hash_rate(0.05))
        return _rate_cache[0]


def client_send(message: Message, conn: socket.socket, config: ClientConfig | None = None) -> SendResult:
    """Deliver one message over an established connection.

    Follows the capability negotiation, solves a demanded puzzle when the
    estimated cost fits the work budget, and otherwise gives up politely so
    the caller can tell the user the message was too spammy to afford.
    Transport failures raise OSError subclasses.
    """
    cfg = config or ClientConfig()
    rfile = conn.makefile("rb")

    def send_line(line: str) -> None:
        conn.sendall((line + CRLF).encode("latin-1"))

    def command(line: str) -> tuple[int, list[str]]:
        send_line(line)
        return read_reply(rfile)

    def quit_politely() -> None:
        try:
            send_line("QUIT")
            read_reply(rfile)
        except OSError:
            pass

    try:
        code, _ = read_reply(rfile)
        if code >= 400:
            return SendResult(SendStatus.REJECTED, code=code, detail="rejected at greeting")
        code, ehlo_lines = command(f"EHLO {cfg.helo_name}")
        if code != 250:
            quit_politely()
            return SendResult(SendStatus.REJECTED, code=code, detail="EHLO rejected")
        advertised = _parse_spamfriction(ehlo_lines)
        if advertised and advertised & set(cfg.supported_algorithms):
            code, _ = command(f"POW ISUPPORT {format_alg_list(cfg.supported_algorithms)}")
            if code != 250:
                quit_politely()
                return SendResult(SendStatus.REJECTED, code=code, detail="POW ISUPPORT rejected")
        for verb, reply_ok in (
            (f"MAIL FROM: {message.mail_from}", (250,)),
            *((f"RCPT TO: {rcpt}", (250,)) for rcpt in message.recipients),
            ("DATA", (354,)),
        ):
            code, lines = command(verb)
            if code not in reply_ok:
                quit_politely()
                return SendResult(SendStatus.REJECTED, code=code, detail=lines[-1])
        payload = message.body.replace(b"\r\n", b"\n").split(b"\n")
        for body_line in payload:
            text = body_line.decode("latin-1")
            if text.startswith("."):
                text = "." + text
            send_line(text)
        code, lines = command(".")

        budget_left = cfg.work_budget_seconds
        reissues = 0
        while code == 211:
            challenge = _parse_challenge(lines[-1])
            if challenge.algorithm not in cfg.supported_algorithms:
                quit_politely()
                return SendResult(
                    SendStatus.REFUSED_BURDEN,
                    detail=f"unsupported algorithm {challenge.algorithm}",
                    estimate_seconds=None,
                )
            rate = cfg.hash_rate if cfg.hash_rate else _local_hash_rate()
            estimate = float(2**challenge.difficulty) / rate
            if estimate > budget_left or reissues > cfg.max_reissues:
                quit_politely()
                return SendResult(
                    SendStatus.REFUSED_BURDEN,
                    detail=f"estimated {estimate:.1f}s of work exceeds budget",
                    estimate_seconds=estimate,
                )
            started = time.monotonic()
            try:
                receipt = pow.solve(challenge, attempt_cap=int(budget_left * rate))
            except pow.AttemptsExhausted as exc:
                quit_politely()
                return SendResult(
                    SendStatus.REFUSED_BURDEN,
                    detail=f"no solution within the work budget ({exc.attempts} attempts)",
                    estimate_seconds=estimate,
                )
            budget_left -= time.monotonic() - started
            code, lines = command(f"POW RECEIPT {receipt.wire}")
            reissues += 1
        if code == 250:
            message_id = _parse_message_id(lines[-1])
            quit_politely()
            return SendResult(SendStatus.DELIVERED, code=code, message_id=message_id)
        quit_politely()
        return SendResult(SendStatus.REJECTED, code=code, detail=lines[-1])
    finally:
        rfile.close()


def _parse_spamfriction(ehlo_lines: list[str]) -> set[int]:
    for line in ehlo_lines:
        text = line[4:]
        keyword, _, arg = text.partition(" ")
        if keyword.upper() == "SPAMFRICTION":
            try:
                return parse_alg_list(arg)
            except ValueError:
                return set()
    return set()


def _parse_challenge(line: str) -> pow.Puzzle:
    # "211 POW Required (SPAM) <alg>:<difficulty>:<nonce>"
    wire = line.rsplit(" ", 1)[-1]
    return pow.parse_puzzle(wire)


def _parse_message_id(line: str) -> str | None:
    m = re.search(r"\bid=(\S+)", line)
    return m.group(1) if m else None


def send_message(
    server_addr: tuple[str, int],
    message: Message,
    config: ClientConfig | None = None,
    timeout: float = 120.0,
) -> SendResult:
    """Connect, deliver, disconnect."""
    with socket.create_connection(server_addr, timeout=timeout) as conn:
        return client_send(message, conn, config)
