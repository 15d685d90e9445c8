"""Mail workloads: seeded message streams, the closed-loop load generator
and the checks on what the server delivered.

Every workload is a closed loop: each client connects, runs one
``smtp.client_send`` (which waits for every reply before its next command
and ends with QUIT), and only then starts its next message, like a sending
MTA draining its queue over a pool of ``clients`` connections.
"""
from __future__ import annotations

import os
import random
import re
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass

from spamfriction import puzzle as pow
from spamfriction import smtp

HAM_TOKENS = ("meeting", "lunch", "friend", "agenda")
SPAM_TOKENS = ("viagra", "pills", "lottery", "winner")
_SYLLABLES = ("ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "ve", "zu", "bo", "de")
# weightless filler words; none of them is a scored token
FILLER = tuple(a + b for a in _SYLLABLES for b in _SYLLABLES) + tuple(
    a + b + c for a in _SYLLABLES[:6] for b in _SYLLABLES[6:] for c in _SYLLABLES[3:9]
)
LINE_CHARS = 70
STRATA = 16
POOL_LINES = 1024
SAMPLE_EVERY = 4          # keep every 4th body for the byte-for-byte check
CONNECT_TIMEOUT = 30.0


@dataclass(frozen=True)
class MailWorkload:
    name: str
    kind: str                 # "ham" or "spam"
    clients: int
    min_bytes: int
    max_bytes: int
    log_uniform: bool
    dot_line_share: float     # share of body lines that start with "."
    warmup_per_client: int


MAIL_WORKLOADS = {
    w.name: w
    for w in (
        # fixed per-message cost: connect, ~8 round trips, dispatch, decide,
        # one mbox append; the solver never runs
        MailWorkload("ham-small", "ham", 2, 300, 2_000, False, 0.0, 8),
        # per-byte cost: line writes and dot-stuffing, per-line DATA
        # handling, tokenising, the sink write
        MailWorkload("ham-bulk", "ham", 1, 32 * 1024, 256 * 1024, True, 0.02, 2),
        # puzzle cost: every message resisted; one client because solving
        # holds the interpreter lock
        MailWorkload("spam-pow", "spam", 1, 300, 1_000, False, 0.0, 3),
    )
}


@dataclass
class Outbound:
    seq: str
    index: int
    message: smtp.Message
    kind: str


@dataclass
class Sent:
    seq: str
    kind: str
    start: float
    end: float
    status: str
    message_id: str | None
    codes: list[int]
    body: bytes | None        # kept for sampled messages only
    writes: int = 0


def _sizes(workload: MailWorkload, rng: random.Random):
    """Stratified draws from the size distribution: each block of STRATA
    messages takes one size from each stratum, in shuffled order, so the
    size mix of a short run does not swing with the seed."""
    span = workload.max_bytes / workload.min_bytes if workload.log_uniform else None
    while True:
        order = list(range(STRATA))
        rng.shuffle(order)
        for stratum in order:
            u = (stratum + rng.random()) / STRATA
            if span is not None:
                yield int(workload.min_bytes * span**u)
            else:
                yield int(workload.min_bytes + (workload.max_bytes - workload.min_bytes) * u)


def _line_pool(workload: MailWorkload, rng: random.Random) -> list[str]:
    """Body lines of about LINE_CHARS characters; ~2% of words are scored
    tokens of the workload's kind, and ``dot_line_share`` of the lines start
    with "." (some are a lone "."), so dot-stuffing is exercised."""
    tokens = HAM_TOKENS if workload.kind == "ham" else SPAM_TOKENS
    pool = []
    for _ in range(POOL_LINES):
        words: list[str] = []
        length = 0
        while length < LINE_CHARS - 8:
            word = rng.choice(tokens) if rng.random() < 0.02 else rng.choice(FILLER)
            words.append(word)
            length += len(word) + 1
        line = " ".join(words)
        if rng.random() < workload.dot_line_share:
            line = rng.choice((".", "..", ". ")) + (line if rng.random() < 0.5 else "")
        pool.append(line)
    return pool


def messages(workload: MailWorkload, seed: int, client: int):
    """The endless message stream of one client, a function of the seed.

    The Subject line always carries a scored token of the workload's kind,
    so ham scores far below the resist threshold and spam far above it.
    """
    rng = random.Random(f"{workload.name}:{seed}:{client}")
    pool = _line_pool(workload, rng)
    tokens = HAM_TOKENS if workload.kind == "ham" else SPAM_TOKENS
    sizes = _sizes(workload, rng)
    rcpt = f"rcpt{client}@example.net"
    index = 0
    while True:
        seq = f"{seed}-{client}-{index}"
        lines = [f"Subject: {rng.choice(tokens)} {rng.choice(FILLER)}", f"X-Bench-Seq: {seq}", ""]
        size = next(sizes)
        total = sum(len(line) + 1 for line in lines)
        while total < size:
            line = rng.choice(pool)
            lines.append(line)
            total += len(line) + 1
        body = ("\n".join(lines) + "\n").encode("ascii")
        yield Outbound(seq, index, smtp.Message(f"sender{client}@example.org", [rcpt], body), workload.kind)
        index += 1


class _CountingSocket:
    """What ``client_send`` uses of a socket, with its writes counted."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.writes = 0

    def sendall(self, data) -> None:
        self.writes += 1
        self._sock.sendall(data)

    def makefile(self, *args, **kwargs):
        return self._sock.makefile(*args, **kwargs)


class Driver:
    """Sends messages to one server and records every attempt."""

    def __init__(self, address: tuple[str, int], count_writes: bool = False):
        self.address = address
        self.count_writes = count_writes
        self.sent: list[Sent] = []
        # CPU seconds spent making messages, which is not the sender's price
        self.generate_cpu = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self, undo: list) -> None:
        """Record every reply code ``client_send`` reads on this thread."""
        original = smtp.read_reply
        local = self._local

        def read_reply(rfile):
            code, lines = original(rfile)
            local.codes.append(code)
            return code, lines

        smtp.read_reply = read_reply
        undo.append((smtp, "read_reply", original))

    def send_one(self, out: Outbound, keep_body: bool, recorder=None) -> None:
        self._local.codes = codes = []
        if recorder:
            recorder.set_session(out.seq)
        writes = 0
        start = time.perf_counter()
        try:
            with socket.create_connection(self.address, timeout=CONNECT_TIMEOUT) as sock:
                conn = _CountingSocket(sock) if self.count_writes else sock
                result = smtp.client_send(out.message, conn)
                writes = conn.writes if self.count_writes else 0
            status, message_id = result.status.value, result.message_id
            if result.status is not smtp.SendStatus.DELIVERED:
                status += f":{result.code}:{result.detail}"
        except ConnectionRefusedError:
            status, message_id = "connection-refused", None
        except Exception as exc:  # any other failure is one lost message, not a dead client
            status, message_id = f"error:{type(exc).__name__}:{exc}", None
        end = time.perf_counter()
        record = Sent(
            out.seq, out.kind, start, end, status, message_id, codes,
            out.message.body if keep_body else None, writes,
        )
        with self._lock:
            self.sent.append(record)

    def drive(self, streams, *, count: int | None = None, deadline: float | None = None, recorder=None):
        """Run one thread per stream until each sent ``count`` messages or
        the deadline passed; returns the records of this call."""
        first = len(self.sent)

        def client(stream):
            done = 0
            generate_cpu = 0.0
            while (count is None or done < count) and (deadline is None or time.perf_counter() < deadline):
                cpu = time.thread_time()
                out = next(stream)
                generate_cpu += time.thread_time() - cpu
                self.send_one(out, keep_body=out.index % SAMPLE_EVERY == 0, recorder=recorder)
                done += 1
            with self._lock:
                self.generate_cpu += generate_cpu

        threads = [threading.Thread(target=client, args=(s,), daemon=True) for s in streams]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.sent[first:]


def delivered(record: Sent) -> bool:
    return record.status == smtp.SendStatus.DELIVERED.value


_ID_RE = re.compile(rb"^X-SpamFriction-Id: (\S+)$", re.MULTILINE)


def check_mail(records: list[Sent], sink_dir: str) -> list[str]:
    """Failures found in what the sink holds and what the client saw."""
    problems: list[str] = []
    boxes = {}
    for name in sorted(os.listdir(sink_dir)):
        with open(os.path.join(sink_dir, name), "rb") as fh:
            boxes[name] = fh.read()
    seen = Counter(m.decode("ascii") for data in boxes.values() for m in _ID_RE.findall(data))
    ok = [r for r in records if delivered(r)]
    ids = Counter(r.message_id for r in ok)
    for message_id, count in sorted(ids.items(), key=lambda kv: str(kv[0])):
        if message_id is None or count != 1:
            problems.append(f"message id {message_id!r} was returned {count} times")
        elif seen[message_id] != 1:
            problems.append(f"message id {message_id} appears {seen[message_id]} times in the sink")
    extra = sum(seen.values()) - len(ok)
    if extra > 0:
        problems.append(f"sink holds {extra} more messages than were delivered")
    for record in ok:
        if record.body is not None:
            problem = _round_trip(record, boxes)
            if problem:
                problems.append(problem)
        # replies after "354 Enter message": the end-of-data reply onwards
        after_data = record.codes[record.codes.index(354) + 1:] if 354 in record.codes else []
        if record.kind == "ham" and 211 in record.codes:
            problems.append(f"ham message {record.seq} was sent a 211 puzzle")
        if record.kind == "spam" and not (after_data[:1] == [211] and 250 in after_data):
            problems.append(f"spam message {record.seq} was not sent 211 before its 250")
    return problems


def _round_trip(record: Sent, boxes: dict) -> str | None:
    """The delivered body must equal what was sent with LF turned into CRLF
    (dot-stuffing is undone by the server)."""
    rcpt = f"rcpt{record.seq.rsplit('-', 2)[1]}@example.net.mbox"
    data = boxes.get(rcpt, b"")
    marker = b"X-SpamFriction-Id: " + record.message_id.encode("ascii") + b"\n"
    at = data.find(marker)
    if at < 0:
        return f"message {record.seq} not found in {rcpt}"
    start = at + len(marker)
    expected = record.body.replace(b"\n", b"\r\n") + b"\n"
    end = start + len(expected)
    if data[start:end] != expected or not (end == len(data) or data.startswith(b"From ", end)):
        return f"message {record.seq} body did not round-trip byte for byte"
    return None


def solve_attempts(receipt: pow.Receipt) -> int:
    """Hashes ``pow.solve`` computed: it scans counters from 0 upwards."""
    return int(receipt.solution) + 1
