"""Benchmark server launcher: one receiving server in its own process.

Builds the server the way ``spamfriction serve`` does (``load_config``, then
``MailServerCore`` with a capacity-sized ``IssuedPuzzleStore``, a
``MailboxSink`` and INFO logging to a file, then ``PowSmtpServer``), except
that it binds 127.0.0.1:0 and seeds ``entropy`` and ``rng`` from ``--seed``
so that the puzzle sequence, and so the total solve work, follows the seed.
The nonces come from a table of puzzles of known solve cost (see
``StratifiedNonces``), which keeps that work steady from seed to seed.

Protocol with the parent: once listening it prints one JSON line
``{"port": ..., "import_ms": ...}``; it serves until its stdin closes, then
shuts down, writes ``--stats`` (and the spans, with ``--trace``) and exits.

    python3 perfbench/server.py --config perfbench/bench.yaml --sink-dir DIR \
        --log FILE --seed N --stats FILE [--trace SPANS] [--inject-fault drop-delivery]

``--inject-fault drop-delivery`` makes the sink silently lose the third
message it is handed; the benchmark's own tests use it to show that the
correctness checks catch a lost delivery.
"""
from __future__ import annotations

import argparse
import json
import logging
import random
import sys
import threading
import time

from pathlib import Path

import spans

DROPPED_DELIVERY = 3
NONCE_TABLE = Path(__file__).resolve().parent / "nonces.txt"
NONCE_STRATA = 16


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--sink-dir", required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", help="write spans to this file at exit")
    parser.add_argument("--inject-fault", choices=("drop-delivery",))
    return parser.parse_args(argv)


def _instrument(recorder, smtp, pow, scoring, config):
    """Wrap the server-side entry points of every layer."""
    session_ids = spans.SessionIds()
    data_state = smtp.SessionState.DATA
    recorder.wrap(
        smtp.ServerSession, "handle_line", "smtp.handle_line",
        session_of=lambda args: session_ids(args[0]),
        # (in DATA state before the call, bytes on the wire including CRLF)
        before=lambda args: (args[0].state is data_state, len(args[1]) + 2),
        # body lines call no other layer: fold them, counting their bytes
        fold=lambda args: len(args[1]) + 2 if args[0].state is data_state and args[1] != "." else None,
    )
    recorder.wrap(scoring.Scorer, "score", "scoring.score", before=lambda args: len(args[1]))
    recorder.wrap(smtp, "decide", "policy.decide", after=lambda result, args: result.kind.value)
    recorder.wrap(pow, "generate_challenge", "puzzle.generate_challenge")
    recorder.wrap(
        pow.IssuedPuzzleStore, "verify_and_consume", "puzzle.verify_and_consume",
        after=lambda result, args: result.ok,
    )
    recorder.wrap(smtp.MailboxSink, "deliver", "smtp.deliver")
    recorder.wrap(config, "load_config", "config.load_config")


class StratifiedNonces(random.Random):
    """Puzzle entropy that hands out nonces from NONCE_TABLE.

    The hashes a puzzle costs to solve are geometric, so a few hundred
    random puzzles still differ in total work by several percent from one
    seed to the next.  The table is split into NONCE_STRATA strata of equal
    size by solve cost; each block of NONCE_STRATA nonces takes one unused
    entry from every stratum, in an order and with entries chosen by the
    seed.  Each puzzle is still an ordinary puzzle that the client must
    solve.  Once the table runs out, nonces are drawn at random.
    """

    def __init__(self, seed: int, difficulty: int):
        super().__init__(seed)
        lines = NONCE_TABLE.read_text().splitlines()
        table_difficulty = int(lines[0].split()[2].rstrip(":"))
        if table_difficulty != difficulty:
            raise SystemExit(f"{NONCE_TABLE.name} is for difficulty {table_difficulty}, not {difficulty}")
        entries = sorted((int(cost), int(nonce)) for nonce, cost in (line.split() for line in lines[1:]))
        size = len(entries) // NONCE_STRATA
        self._strata = [[nonce for _, nonce in entries[i * size:(i + 1) * size]] for i in range(NONCE_STRATA)]
        for stratum in self._strata:
            self.shuffle(stratum)
        self._block: list[int] = []

    def randrange(self, start, stop=None, step=1):
        if not self._block and self._strata[0]:
            self._block = [stratum.pop() for stratum in self._strata]
            self.shuffle(self._block)
        if self._block and stop is not None and step == 1 and start <= self._block[-1] < stop:
            return self._block.pop()
        return super().randrange(start, stop, step)


class _DroppingSink:
    """Loses one delivery without telling anyone."""

    def __init__(self, sink):
        self._sink = sink
        self._calls = 0

    def deliver(self, *args):
        self._calls += 1
        if self._calls != DROPPED_DELIVERY:
            self._sink.deliver(*args)


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    from spamfriction import config, scoring, smtp
    from spamfriction import puzzle as pow
    import_ms = (time.perf_counter() - started) * 1000.0

    recorder = spans.Recorder(first_id=10**12) if args.trace else None
    if recorder:
        _instrument(recorder, smtp, pow, scoring, config)

    app = config.load_config(args.config)
    logging.basicConfig(
        filename=args.log, level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s %(message)s",
    )
    sink = smtp.MailboxSink(args.sink_dir)
    core = smtp.MailServerCore(
        config=app.server,
        policy_config=app.policy,
        scorer=scoring.Scorer(app.scorer),
        store=pow.IssuedPuzzleStore(app.store_capacity),
        sink=_DroppingSink(sink) if args.inject_fault == "drop-delivery" else sink,
        legacy=app.legacy,
        entropy=StratifiedNonces(args.seed, app.policy.base_difficulty),
        rng=random.Random(args.seed + 1),
    )
    refused = 0
    verify_request = smtp.PowSmtpServer.verify_request

    class CountingServer(smtp.PowSmtpServer):
        def verify_request(self, request, client_address):
            nonlocal refused
            allowed = verify_request(self, request, client_address)
            refused += not allowed
            return allowed

    server = CountingServer(("127.0.0.1", 0), core)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(json.dumps({"port": server.server_address[1], "import_ms": import_ms}), flush=True)

    sys.stdin.read()  # serve until the parent closes our stdin
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    stats = {
        "import_ms": import_ms,
        "connections_refused": refused,
        "store_entries": len(core.store),
        "degraded_calls": core.scorer.degraded_calls,
    }
    with open(args.stats, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    if recorder:
        recorder.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
