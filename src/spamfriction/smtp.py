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

Sessions are single-threaded state machines over the bytes of one
connection, split into CRLF-delimited lines; they take the time from the
transport, which reads an injectable clock so tests and simulations can run
in virtual time.  Shared state across sessions is limited to the
issued-puzzle store, the sin bin, and the per-host traffic counters.
"""
from __future__ import annotations

import enum
import logging
import math
import os
import queue
import random
import re
import socket
import socketserver
import string
import threading
import time
from dataclasses import dataclass, field

from . import puzzle as pow
from .clock import SystemClock
from .policy import Decision, DecisionKind, PolicyConfig, SinBin, decide, peer_key
from .scoring import Scorer, ScorerConfig, SpamScore

logger = logging.getLogger("spamfriction.server")

GREETING = "250 ESMTP Server Ready"
CRLF = "\r\n"
# longest line read from the wire, CRLF included, and the most bytes taken
# per read; the rest of a longer line is discarded, and the session refuses
# what it was handed of it
MAX_LINE_BYTES = 65536
# RFC 5321 section 4.5.3.1: the longest path, angle brackets included, and
# the recipients a transaction must take; it takes no more
MAX_PATH_OCTETS = 256
MAX_RECIPIENTS = 100
# the most session threads kept idle for the next connection; a thread whose
# session ends beyond that exits
MAX_IDLE_SESSION_THREADS = 16

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


def _to_wire(lines: list[str]) -> bytes:
    return "".join(line + CRLF for line in lines).encode("latin-1")


@dataclass
class ServerConfig:
    listen: tuple[str, int] = ("127.0.0.1", 2525)
    sink_dir: str = "mailbox"
    store_capacity: int = 10_000  # outstanding puzzles
    hostname: str = "localhost"
    max_message_bytes: int = 52_428_800  # advertised as SIZE
    advertise_auth: bool = True
    advertise_starttls: bool = True
    pow_algorithms: tuple[int, ...] = (0, 1, 2)
    puzzle_ttl: float = 7200.0

    def __post_init__(self) -> None:
        if self.store_capacity < 1:
            raise ValueError("store_capacity must be at least 1")
        if self.max_message_bytes < 1:
            raise ValueError("max_message_bytes must be positive")
        if not 0 < self.puzzle_ttl < math.inf:  # NaN too
            raise ValueError("puzzle_ttl must be finite and positive")
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
        if not 0 <= self.pre_accept_delay < math.inf:  # NaN too
            raise ValueError("pre_accept_delay must be finite and non-negative")
        if self.max_connections_per_host < 1:
            raise ValueError("max_connections_per_host must be at least 1")
        if self.overload_mode not in OVERLOAD_MODES:
            raise ValueError(f"overload_mode must be one of {OVERLOAD_MODES}")


class HostTraffic:
    """Per-peer count of sessions currently holding the server's patience:
    awaiting a POW receipt or sitting out the legacy delay.  Peers are keyed
    by :func:`policy.peer_key`, so one IPv6 /64 holds one count."""

    def __init__(self, legacy: LegacyPolicy):
        self.legacy = legacy
        self._burdened: dict[str, int] = {}
        self._lock = threading.Lock()

    def burdened_count(self, host: str) -> int:
        host = peer_key(host)
        with self._lock:
            return self._burdened.get(host, 0)

    def enter_burdened(self, host: str) -> None:
        host = peer_key(host)
        with self._lock:
            self._burdened[host] = self._burdened.get(host, 0) + 1

    def leave_burdened(self, host: str) -> None:
        host = peer_key(host)
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


_NAME_MAX = 255  # bytes in a file name on common file systems
_UNSAFE_NAME_BYTE = re.compile(rb"[^A-Za-z0-9.@+_-]")
# a body line that would read as a message separator, quoted or not: mboxrd
# (RFC 4155) quotes it with one more ">"
_FROM_LINE = re.compile(rb"^(?=>*From )", re.MULTILINE)


def _write_quoted(fh, body) -> None:
    """Write ``body`` with its separator lines quoted, without copying it:
    the pieces between separator lines go out as views of the body."""
    if b"From " not in body:
        fh.write(body)
        return
    with memoryview(body) as view:
        start = 0
        for match in _FROM_LINE.finditer(body):
            fh.write(view[start:match.start()])
            fh.write(b">")
            start = match.start()
        fh.write(view[start:])


class MailboxSink:
    """Append-only mailbox file per recipient under one directory, in mboxrd
    format.

    ``deliver`` takes the body as ``bytes`` or ``bytearray``; the session
    hands over the bytearray it received the message into."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()

    @staticmethod
    def _mailbox_name(recipient: str) -> str:
        # percent-encoding every other byte, "%" included, gives distinct
        # addresses distinct names and keeps path separators out
        safe = _UNSAFE_NAME_BYTE.sub(lambda m: b"%%%02X" % m[0][0], recipient.encode()).decode("ascii")
        if len(safe) > _NAME_MAX - len(".mbox"):
            # a file name holds at most 255 bytes: keep the start of a longer
            # one and tell addresses apart by a digest, after a "~" that the
            # encoding above leaves in no uncut name
            digest = pow.sha256(recipient.encode()).hexdigest()[:32]
            safe = f"{safe[:_NAME_MAX - len('~.mbox') - len(digest)]}~{digest}"
        return f"{safe}.mbox"

    def deliver(self, mail_from: str, recipients, body: bytes, message_id: str, when: float) -> None:
        """Append the message to every recipient's mailbox or to none: on an
        ``OSError`` each one opened is cut back, and the error raised again."""
        stamp = time.asctime(time.gmtime(when))
        header = f"From {mail_from} {stamp}\nX-SpamFriction-Id: {message_id}\n".encode("latin-1")
        with self._lock:
            opened: list[tuple[str, int]] = []  # (path, size before this delivery)
            try:
                for rcpt in recipients:
                    path = os.path.join(self.directory, self._mailbox_name(rcpt))
                    with open(path, "ab") as fh:
                        opened.append((path, fh.tell()))
                        fh.write(header)
                        _write_quoted(fh, body)
                        if not body.endswith(b"\n"):
                            fh.write(b"\n")
                        fh.write(b"\n")
            except OSError:
                # newest first, so a mailbox named twice ends at its first size
                for path, size in reversed(opened):
                    os.truncate(path, size)
                raise


class MailServerCore:
    """State shared by every session of one receiving server."""

    def __init__(
        self,
        *,
        config: ServerConfig | None = None,
        policy_config: PolicyConfig | None = None,
        scorer: Scorer | None = None,
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
        self.sinbin = SinBin(self.policy_config.sinbin)
        self.store = pow.IssuedPuzzleStore(self.config.store_capacity) if store is None else store
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
class _Transaction:
    """One mail transaction, from MAIL to its final reply; the session drops
    it whole when the transaction ends.

    ``body`` is the one copy of the message: each un-stuffed line and its
    CRLF are appended as they arrive, the last CRLF is dropped at ".", and
    the scorer and the sink are handed this same bytearray."""

    mail_from: str
    recipients: list[str] = field(default_factory=list)
    body: bytearray = field(default_factory=bytearray)
    error: str | None = None  # the refusal that ends it: a body's 500/552, a legacy host's 421
    puzzle: pow.Puzzle | None = None
    reissued: bool = False
    release_at: float | None = None  # the session's timer


class ServerSession:
    """One SMTP session: a state machine fed the bytes of one connection.

    ``feed`` splits them into CRLF-stripped lines for ``handle_line``, which
    returns the reply lines to send (without CRLF).  The session has one
    timer, ``next_release``: the transport calls ``poll`` once it is due.

    Everything a mail transaction holds, from its envelope to its body,
    puzzle, timer and refusal, is one record, ``tx``, made at MAIL and
    dropped whole when the transaction ends.  The body is held once, as
    one bytearray, from its first line to delivery.

    Time is an argument: every call takes ``now``, and no clock is read.
    Nothing is raised: a fault inside the server, an ``OSError`` from the
    sink included, gets ``451`` after the replies already built and resets
    the transaction as RSET does; it is not held against the sender.
    """

    def __init__(self, core: MailServerCore, peer_host: str):
        self.core = core
        self.peer_host = peer_host
        self.state = SessionState.GREETED
        self.negotiated_alg: int | None = None
        self.tx: _Transaction | None = None
        self._inbuf = bytearray()  # received bytes of a line not yet ended
        self._discarding = False   # dropping the rest of an over-long line

    # -- transport surface -------------------------------------------------

    def greet(self) -> list[str]:
        return [GREETING]

    def feed(self, data: bytes, now: float) -> bytes:
        """Take bytes off the wire; return the reply bytes to send.

        A line ends at LF and loses its trailing CRs and LFs.  A line of more
        than MAX_LINE_BYTES bytes, LF included, is handed over cut at the cap
        and its rest, up to the next LF, is discarded.  Input after DONE is
        ignored."""
        buf = self._inbuf
        scan = len(buf)  # the bytes kept from the last call hold no LF
        buf += data
        start = 0
        replies: list[str] = []
        while self.state is not SessionState.DONE:
            end = buf.find(b"\n", scan)
            if self._discarding:
                if end < 0:
                    start = len(buf)
                    break
                self._discarding = False
                start = scan = end + 1
                continue
            cut = start + MAX_LINE_BYTES
            if not 0 <= end < cut:
                if len(buf) < cut:
                    break
                end = cut - 1  # over-long: hand over its first MAX_LINE_BYTES bytes
                self._discarding = True
            line = buf[start:end + 1]
            start = scan = end + 1
            replies += self.handle_line(line.rstrip(b"\r\n").decode("latin-1"), now)
        del buf[:start]
        return _to_wire(replies)

    def handle_line(self, line: str, now: float) -> list[str]:
        # a plain try, not a wrapper call: this runs once per body line
        try:
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
        except Exception:
            return self._fault(now)

    def poll(self, now: float) -> list[str]:
        """Act on the timer once it is due: release a withheld legacy reply,
        or give back an expired puzzle's store slot, with no reply, while the
        session keeps waiting, since a late receipt still earns its reissue."""
        release = self.next_release()
        if release is None or now < release:
            return []
        tx = self.tx
        try:
            if self.state is SessionState.AWAITING_RECEIPT:
                tx.release_at = None
                self.core.store.release(tx.puzzle.nonce)
                return []
            if tx.error is not None:
                # the withheld reply was a temporary rejection; end the session
                self._end_transaction(SessionState.DONE, now)
                return [tx.error]
            # the acceptance is only uttered now, so delivery happens now
            return self._deliver(now)
        except Exception:
            return self._fault(now)

    def next_release(self) -> float | None:
        """When ``poll`` is due: the legacy release or the puzzle's expiry."""
        return None if self.tx is None else self.tx.release_at

    def on_disconnect(self, now: float) -> None:
        """Transport-level EOF, a no-op once DONE.  Dropping the link while a
        puzzle is outstanding counts as declining the burden."""
        self._end_transaction(SessionState.DONE, now, refusal="disconnect")

    def _fault(self, now: float) -> list[str]:
        # the fault is the server's, so no refusal is recorded; 451 ends
        # the transaction, not the session, so pipelined commands still run
        logger.exception("session with %s failed", self.peer_host)
        self._end_transaction(self._idle_state(), now)
        return ["451 Requested action aborted: local error in processing"]

    # -- command handlers ----------------------------------------------------

    def _hello(self, now: float, reason: str) -> None:
        # a fresh EHLO or HELO ends any transaction and renegotiates from scratch
        self._end_transaction(SessionState.READY, now, refusal=reason)
        self.negotiated_alg = None

    def _handle_ehlo(self, arg: str, now: float) -> list[str]:
        if not arg:
            return ["501 EHLO requires a domain"]
        self._hello(now, "ehlo-reset")
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
        self._hello(now, "helo-reset")
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
            usable = self.core.issuable_algorithms(algs)
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
        if len(addr) + 2 > MAX_PATH_OCTETS:
            return ["501 Path too long"]
        self.tx = _Transaction(addr)
        self.state = SessionState.MAIL_FROM
        return ["250 OK"]

    def _handle_rcpt(self, rest: str, now: float) -> list[str]:
        if self.state not in (SessionState.MAIL_FROM, SessionState.RCPT_TO):
            return ["503 Bad sequence of commands"]
        addr = self._parse_path(rest, "TO")
        if addr is None:
            return ["501 Syntax: RCPT TO:<address>"]
        if len(addr) + 2 > MAX_PATH_OCTETS:
            return ["501 Path too long"]
        if len(self.tx.recipients) >= MAX_RECIPIENTS:
            return ["452 Too many recipients"]
        self.tx.recipients.append(addr)
        self.state = SessionState.RCPT_TO
        return ["250 Accepted"]

    def _handle_data(self, rest: str, now: float) -> list[str]:
        if self.state is not SessionState.RCPT_TO:
            return ["503 Bad sequence of commands"]
        self.state = SessionState.DATA
        return ['354 Enter message, ending with "." on a line by itself']

    def _handle_rset(self, rest: str, now: float) -> list[str]:
        self._end_transaction(self._idle_state(), now, refusal="rset")
        return ["250 OK"]

    def _idle_state(self) -> SessionState:
        # where a reset transaction leaves the session: no hello yet, or READY
        return SessionState.GREETED if self.state is SessionState.GREETED else SessionState.READY

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
        tx = self.tx
        if tx.error is not None:
            return []
        if len(line) > MAX_LINE_BYTES - 2:
            tx.error = "500 Line too long"
            tx.body.clear()
            return []
        if line.startswith("."):
            line = line[1:]  # transparency: un-stuff the leading dot
        tx.body += line.encode("latin-1")
        tx.body += b"\r\n"
        if len(tx.body) > self.core.config.max_message_bytes:
            tx.error = "552 Message size exceeds fixed maximum message size"
            tx.body.clear()
        return []

    def _finish_data(self, now: float) -> list[str]:
        core = self.core
        tx = self.tx
        if tx.error is not None:
            self._end_transaction(SessionState.READY, now)
            return [tx.error]
        del tx.body[-2:]  # the last line's CRLF belongs to the "."
        score = core.scorer.score(tx.body)
        decision = decide(
            score,
            self.peer_host,
            tx.mail_from,
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
        self._log_decision(score, decision, now)
        if self.negotiated_alg is not None:
            return self._finish_data_pow(decision, now)
        return self._finish_data_legacy(decision, now)

    def _finish_data_pow(self, decision: Decision, now: float) -> list[str]:
        if decision.kind is DecisionKind.BLOCKED:
            self._end_transaction(SessionState.DONE, now)
            return ["421 Service temporarily unavailable, try again later"]
        if decision.kind is DecisionKind.ACCEPT:
            return self._deliver(now)
        return self._demand_work(decision.difficulty, now)

    def _finish_data_legacy(self, decision: Decision, now: float) -> list[str]:
        # a sender that never negotiated POW cannot solve puzzles; the
        # pre-accept delay is the burden it carries instead, and the reply
        # (acceptance or rejection) is withheld until the delay elapses
        if decision.kind is DecisionKind.BLOCKED:
            self.tx.error = "421 Service temporarily unavailable, try again later"
            self.tx.body.clear()  # never delivered, so not held through the delay
        delay = self.core.legacy.pre_accept_delay
        self.tx.release_at = now + delay
        self.core.traffic.enter_burdened(self.peer_host)
        self.state = SessionState.DELAYED
        if delay == 0:
            return self.poll(now)
        return []

    def _demand_work(self, difficulty: int, now: float) -> list[str]:
        """Issue the transaction's puzzle, or the reissue that replaces it
        once issued; a full store ends the transaction with 452."""
        core = self.core
        tx = self.tx
        replaced = tx.puzzle
        try:
            tx.puzzle = pow.generate_challenge(
                core.store,
                algorithm=self.negotiated_alg,
                difficulty=difficulty,
                ttl=core.config.puzzle_ttl,
                entropy=core.entropy,
                now=now,
            )
        except pow.StoreFullError:
            # the overload is the server's, so no refusal is recorded
            self._end_transaction(SessionState.READY, now)
            return ["452 Too many outstanding puzzles, try again later"]
        tx.release_at = tx.puzzle.expires_at
        if replaced is None:
            core.traffic.enter_burdened(self.peer_host)
            self.state = SessionState.AWAITING_RECEIPT
        else:
            core.store.release(replaced.nonce)
        return [f"211 POW Required (SPAM) {tx.puzzle.wire}"]

    # -- receipt verification --------------------------------------------------

    def _handle_receipt(self, arg: str, now: float) -> list[str]:
        try:
            receipt = pow.parse_receipt(arg)
        except pow.WireFormatError:
            return ["501 Malformed POW receipt"]
        tx = self.tx
        if receipt.puzzle.nonce != tx.puzzle.nonce:
            # replayed or fabricated receipt: no second chance
            return self._fail_receipt(now, "wrong-nonce")
        # expiry is the session's record: the store may have given back the slot
        expired = tx.puzzle.expires_at <= now
        outcome = pow.VerifyOutcome.EXPIRED if expired else self.core.store.verify_and_consume(receipt, now)
        if outcome is pow.VerifyOutcome.ACCEPTED:
            return self._deliver(now)
        if outcome in (pow.VerifyOutcome.BAD_SOLUTION, pow.VerifyOutcome.EXPIRED) and not tx.reissued:
            # one fresh chance for an honest solver that fumbled or ran long
            tx.reissued = True
            return self._demand_work(tx.puzzle.difficulty, now)
        return self._fail_receipt(now, outcome.value)

    def _fail_receipt(self, now: float, reason: str) -> list[str]:
        self._end_transaction(SessionState.READY, now, refusal=reason)
        return ["554 POW verification failed"]

    # -- shared helpers --------------------------------------------------------

    def _deliver(self, now: float) -> list[str]:
        """End the transaction and deliver its message."""
        core = self.core
        tx = self.tx
        self._end_transaction(SessionState.READY, now)
        message_id = core.new_message_id()
        if core.sink is not None:
            core.sink.deliver(tx.mail_from, tx.recipients, tx.body, message_id, now)
        core.sinbin.record_success(self.peer_host)
        logger.info(
            "outcome=delivered peer=%s from=%s rcpts=%d resisted=%s id=%s",
            self.peer_host,
            tx.mail_from,
            len(tx.recipients),
            "yes" if tx.puzzle is not None else "no",
            message_id,
        )
        return [f"250 OK id={message_id}"]

    def _log_decision(self, score: SpamScore, decision: Decision, now: float) -> None:
        difficulty = decision.difficulty if decision.kind is DecisionKind.RESIST else "-"
        logger.info(
            "decision ts=%.3f peer=%s from=%s score=%.4f degraded=%s decision=%s difficulty=%s pow=%s",
            now,
            self.peer_host,
            self.tx.mail_from,
            score.value,
            "yes" if score.degraded else "no",
            decision.kind.value,
            difficulty,
            "yes" if self.negotiated_alg is not None else "no",
        )

    def _end_transaction(self, state: SessionState, now: float, refusal: str | None = None) -> None:
        """The one way out of a mail transaction, whatever ends it.

        Walking away from an outstanding puzzle with ``refusal`` set counts
        as declining the burden.  The host's burdened slot and the puzzle's
        store entry are released, and the transaction is dropped whole
        before the session moves to ``state``.
        """
        tx = self.tx
        if tx is not None and tx.puzzle is not None:
            if refusal is not None:
                self.core.sinbin.record_refusal(self.peer_host, now)
                logger.info("outcome=refused peer=%s reason=%s", self.peer_host, refusal)
            self.core.store.release(tx.puzzle.nonce)
        if self.state in _BURDENED_STATES:
            self.core.traffic.leave_burdened(self.peer_host)
        self.tx = None
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

    The socket is read even while the session's timer runs, with a timeout
    that ends at ``next_release``, so a QUIT or a hang-up during a legacy
    delay is seen at once.
    """
    session = ServerSession(core, peer_host)
    try:
        conn.sendall(_to_wire(session.greet()))
        while session.state is not SessionState.DONE:
            release = session.next_release()
            timeout = None if release is None else release - core.clock.now()
            if timeout is not None and timeout <= 0:
                # due: poll without a read, since a zero timeout makes recv raise
                conn.sendall(_to_wire(session.poll(core.clock.now())))
                continue
            conn.settimeout(timeout)
            try:
                data = conn.recv(MAX_LINE_BYTES)
            except TimeoutError:
                continue
            if not data:
                break
            replies = session.feed(data, core.clock.now())
            if replies:
                conn.sendall(replies)
    except OSError:
        pass  # the session raises nothing, so the socket failed: the peer is gone
    finally:
        session.on_disconnect(core.clock.now())
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        conn.close()


class PowSmtpServer(socketserver.TCPServer):
    """TCP front end with one thread per open session.

    A thread whose session ends waits for the next accepted connection, and
    the one that went idle last takes it; a new thread starts only when none
    is idle, so a slow session never delays another and open sessions are
    not capped.  ``server_close`` ends the idle threads.
    """

    allow_reuse_address = True

    def __init__(self, listen_addr: tuple[str, int], core: MailServerCore):
        self.core = core
        self._idle: list[queue.SimpleQueue] = []  # one hand-off per idle thread, newest last
        self._idle_lock = threading.Lock()
        self._closed = False
        # an IPv6 literal needs an AF_INET6 socket; a name or IPv4 address binds AF_INET
        self.address_family = socket.AF_INET6 if ":" in listen_addr[0] else socket.AF_INET
        super().__init__(listen_addr, None)  # _serve_sessions serves each connection

    def verify_request(self, request, client_address) -> bool:
        # overload mode a: refuse connections from hosts with sessions
        # already waiting on a burden
        return self.core.traffic.connection_allowed(client_address[0])

    def process_request(self, request, client_address) -> None:
        with self._idle_lock:
            handoff = self._idle.pop() if self._idle else None
        if handoff is None:
            # a daemon, so serve exits without waiting for open sessions
            threading.Thread(target=self._serve_sessions, args=(request, client_address), daemon=True).start()
        else:
            handoff.put((request, client_address))

    def _serve_sessions(self, request, client_address) -> None:
        handoff = queue.SimpleQueue()
        while request is not None:
            serve_connection(self.core, request, client_address[0])
            with self._idle_lock:
                if self._closed or len(self._idle) >= MAX_IDLE_SESSION_THREADS:
                    return
                self._idle.append(handoff)
            request, client_address = handoff.get()

    def server_close(self) -> None:
        super().server_close()
        with self._idle_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for handoff in idle:
            handoff.put((None, None))


def start_server(core: MailServerCore, listen_addr: tuple[str, int] = ("127.0.0.1", 0)):
    """Start a server thread; returns (server, (host, port)).

    The thread checks for ``shutdown`` every 0.05 s, not socketserver's
    0.5 s, so a stop takes at most about 0.05 s; ``serve`` keeps the
    default, which costs less CPU while the server is idle.
    """
    server = PowSmtpServer(listen_addr, core)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, server.server_address[:2]


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


def read_reply(rfile) -> tuple[int, list[str]]:
    """Read one (possibly multiline) SMTP reply; returns (code, text lines)."""
    lines: list[str] = []
    while True:
        raw = rfile.readline(MAX_LINE_BYTES)
        if not raw:
            raise ConnectionError("server closed the connection mid-reply")
        text = raw.rstrip(b"\r\n").decode("latin-1")
        # the text after the code is optional (RFC 5321 section 4.2)
        if len(text) < 3 or not (text[:3].isascii() and text[:3].isdigit()):
            raise ConnectionError(f"malformed reply line: {text!r}")
        lines.append(text)
        if text[3:4] != "-":
            return int(text[:3]), lines


@dataclass
class ClientConfig:
    helo_name: str = "sending-mail.invalid"
    supported_algorithms: tuple[int, ...] = (0,)
    work_budget_seconds: float = 60.0
    hash_rate: float | None = None     # measured on first use when None
    max_reissues: int = 2

    def __post_init__(self) -> None:
        if not self.helo_name:
            raise ValueError("helo_name must not be empty")
        if any(a < 0 for a in self.supported_algorithms):
            raise ValueError("supported_algorithms ids must be non-negative")
        if not 0 <= self.work_budget_seconds < math.inf:  # NaN too
            raise ValueError("work_budget_seconds must be finite and non-negative")
        if self.hash_rate is not None and not 0 < self.hash_rate < math.inf:
            raise ValueError("hash_rate must be finite and positive when given")
        if self.max_reissues < 0:
            raise ValueError("max_reissues must be non-negative")


_rate_cache_lock = threading.Lock()
_rate_cache: list[float] = []


def _local_hash_rate() -> float:
    with _rate_cache_lock:
        if not _rate_cache:
            _rate_cache.append(pow.measure_hash_rate(0.05))
        return _rate_cache[0]


def client_dialogue(message: Message, cfg: ClientConfig):
    """The sending side of one conversation, with no I/O.

    Each value yielded is the lines to send (without CRLF) before the next
    reply, which is sent back as ``(code, lines)``; the return value is the
    :class:`SendResult`.  A demanded puzzle is solved only when its estimated
    cost fits the work budget.  Every outcome after the greeting ends with
    one ``QUIT``, during which a thrown ``OSError`` is ignored.
    """
    code, _ = yield []
    if code >= 400:
        return SendResult(SendStatus.REJECTED, code=code, detail="rejected at greeting")
    result = yield from _transaction(message, cfg)
    try:
        yield ["QUIT"]
    except OSError:
        pass
    return result


def _transaction(message: Message, cfg: ClientConfig):
    code, ehlo_lines = yield [f"EHLO {cfg.helo_name}"]
    if code != 250:
        return SendResult(SendStatus.REJECTED, code=code, detail="EHLO rejected")
    if _parse_spamfriction(ehlo_lines) & set(cfg.supported_algorithms):
        code, _ = yield [f"POW ISUPPORT {format_alg_list(cfg.supported_algorithms)}"]
        if code != 250:
            return SendResult(SendStatus.REJECTED, code=code, detail="POW ISUPPORT rejected")
    for verb, reply_ok in (
        (f"MAIL FROM: {message.mail_from}", 250),
        *((f"RCPT TO: {rcpt}", 250) for rcpt in message.recipients),
        ("DATA", 354),
    ):
        code, lines = yield [verb]
        if code != reply_ok:
            return SendResult(SendStatus.REJECTED, code=code, detail=lines[-1])
    payload = message.body.replace(b"\r\n", b"\n").decode("latin-1").split("\n")
    code, lines = yield ["." + text if text.startswith(".") else text for text in payload] + ["."]

    budget_left = cfg.work_budget_seconds
    reissues = 0
    while code == 211:
        try:
            challenge = _parse_challenge(lines[-1])
        except pow.WireFormatError as exc:
            return SendResult(SendStatus.REJECTED, code=code, detail=f"malformed puzzle: {exc}")
        # a supported algorithm may still be one this solver lacks
        if challenge.algorithm not in set(cfg.supported_algorithms) & IMPLEMENTED_ALGORITHMS:
            return SendResult(
                SendStatus.REFUSED_BURDEN,
                detail=f"unsupported algorithm {challenge.algorithm}",
            )
        rate = cfg.hash_rate if cfg.hash_rate else _local_hash_rate()
        estimate = pow.expected_seconds(challenge.difficulty, rate)
        if estimate > budget_left or reissues > cfg.max_reissues:
            return SendResult(
                SendStatus.REFUSED_BURDEN,
                detail=f"estimated {estimate:.1f}s of work exceeds budget",
                estimate_seconds=estimate,
            )
        started = time.monotonic()
        try:
            receipt = pow.solve(challenge, attempt_cap=int(budget_left * rate))
        except pow.AttemptsExhausted as exc:
            return SendResult(
                SendStatus.REFUSED_BURDEN,
                detail=f"no solution within the work budget ({exc.attempts} attempts)",
                estimate_seconds=estimate,
            )
        budget_left -= time.monotonic() - started
        code, lines = yield [f"POW RECEIPT {receipt.wire}"]
        reissues += 1
    if code == 250:
        return SendResult(SendStatus.DELIVERED, code=code, message_id=_parse_message_id(lines[-1]))
    return SendResult(SendStatus.REJECTED, code=code, detail=lines[-1])


def client_send(message: Message, conn: socket.socket, config: ClientConfig | None = None) -> SendResult:
    """Deliver one message over an established connection, one ``sendall``
    per line :func:`client_dialogue` yields.  Transport failures raise OSError."""
    dialogue = client_dialogue(message, config or ClientConfig())
    with conn.makefile("rb") as rfile:
        try:
            lines = next(dialogue)
            while True:
                try:
                    for line in lines:
                        conn.sendall((line + CRLF).encode("latin-1"))
                    reply = read_reply(rfile)
                except OSError as exc:
                    lines = dialogue.throw(exc)
                else:
                    lines = dialogue.send(reply)
        except StopIteration as done:
            return done.value


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
