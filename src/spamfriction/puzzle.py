"""Hash puzzles: generation, solving, verification, wire format, calibration.

A puzzle travels as ``<alg>:<difficulty>:<nonce>`` and its receipt as
``<alg>:<difficulty>:<nonce>:<solution>`` (ASCII, colon-separated, no
whitespace).  Algorithm 0 is the mandatory baseline: the SHA-256 digest of
the receipt string must start with at least ``difficulty`` zero bits.
Difficulty is whole bits, so each step doubles the expected work.

Replay protection is not part of the puzzle itself: the server keeps each
outstanding puzzle in an :class:`IssuedPuzzleStore`, which accepts its nonce
at most once, until the puzzle is released.
"""
from __future__ import annotations

import enum
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

# CPython's own SHA-256: hashlib would load OpenSSL's libcrypto into every
# process (3.6 MiB resident), and on inputs this short it hashes faster
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

ALG_BASELINE = 0

MAX_DIFFICULTY = 64          # hard cap; rejects absurd demands
MAX_NONCE_LEN = 64
MAX_SOLUTION_LEN = 64

_SYSTEM_RANDOM = random.SystemRandom()


class PowError(Exception):
    """Base class for puzzle-layer failures."""


class WireFormatError(PowError, ValueError):
    """Raised when a puzzle or receipt string cannot be parsed."""


class UnsupportedAlgorithmError(PowError):
    """Raised when asked to solve a puzzle for an unknown algorithm id."""


class AttemptsExhausted(PowError):
    """Raised when the solver hits its attempt cap without a solution."""

    def __init__(self, attempts: int):
        super().__init__(f"no solution found in {attempts} attempts")
        self.attempts = attempts


class StoreFullError(PowError):
    """Raised when the issued-puzzle store is full of live entries (overload)."""


class CalibrationError(PowError):
    """Raised when the local hash rate cannot be measured."""


@dataclass(frozen=True)
class Puzzle:
    """A server-issued challenge.

    ``issued_at``/``expires_at`` are server-side bookkeeping and never travel
    on the wire; puzzles parsed from the wire carry the defaults.
    """

    algorithm: int
    difficulty: int
    nonce: str
    issued_at: float = 0.0
    expires_at: float = math.inf

    def __post_init__(self) -> None:
        if self.algorithm < 0:
            raise ValueError("algorithm id must be non-negative")
        if not 0 <= self.difficulty <= MAX_DIFFICULTY:
            raise ValueError(f"difficulty must be in [0, {MAX_DIFFICULTY}]")
        if not self.nonce or not self.nonce.isascii() or not self.nonce.isdigit():
            raise ValueError("nonce must be a nonempty ASCII digit string")
        if len(self.nonce) > MAX_NONCE_LEN:
            raise ValueError(f"nonce longer than {MAX_NONCE_LEN} digits")
        if not self.expires_at > self.issued_at:
            raise ValueError("expires_at must be later than issued_at")

    @property
    def wire(self) -> str:
        return format_puzzle(self)


@dataclass(frozen=True)
class Receipt:
    """A puzzle plus the counter that solves it."""

    puzzle: Puzzle
    solution: str

    def __post_init__(self) -> None:
        if not self.solution or not self.solution.isascii() or not self.solution.isdigit():
            raise ValueError("solution must be a nonempty ASCII digit string")
        if len(self.solution) > MAX_SOLUTION_LEN:
            raise ValueError(f"solution longer than {MAX_SOLUTION_LEN} digits")

    @property
    def wire(self) -> str:
        return format_receipt(self)


def format_puzzle(puzzle: Puzzle) -> str:
    return f"{puzzle.algorithm}:{puzzle.difficulty}:{puzzle.nonce}"


def format_receipt(receipt: Receipt) -> str:
    return f"{format_puzzle(receipt.puzzle)}:{receipt.solution}"


def _parse_number(field: str, what: str) -> int:
    if not field.isascii() or not field.isdigit():
        raise WireFormatError(f"{what} is not a decimal number: {field!r}")
    if field != "0" and field.startswith("0"):
        # e.g. "021" -- the wire format is bit-exact, so only canonical
        # decimal renderings round-trip
        raise WireFormatError(f"{what} has a non-canonical form: {field!r}")
    try:
        return int(field)
    except ValueError:
        # more digits than int() converts (sys.get_int_max_str_digits)
        raise WireFormatError(f"{what} has too many digits: {len(field)}") from None


def _parse_fields(wire: str, count: int, kind: str) -> list[str]:
    if not wire.isascii():
        raise WireFormatError(f"{kind} contains non-ASCII bytes")
    fields = wire.split(":")
    if len(fields) != count:
        raise WireFormatError(
            f"{kind} must have exactly {count} colon-separated fields, got {len(fields)}"
        )
    return fields


def _checked(cls, **values):
    """``cls(**values)``, with the dataclass's own checks reported as a
    wire-format error."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise WireFormatError(str(exc)) from exc


def _puzzle_from_fields(alg_s: str, diff_s: str, nonce: str) -> Puzzle:
    algorithm = _parse_number(alg_s, "algorithm")
    if algorithm > 10**6:
        raise WireFormatError(f"algorithm id out of range: {alg_s}")
    difficulty = _parse_number(diff_s, "difficulty")
    return _checked(Puzzle, algorithm=algorithm, difficulty=difficulty, nonce=nonce)


def parse_puzzle(wire: str) -> Puzzle:
    """Parse ``<alg>:<difficulty>:<nonce>``."""
    return _puzzle_from_fields(*_parse_fields(wire, 3, "puzzle"))


def parse_receipt(wire: str) -> Receipt:
    """Parse ``<alg>:<difficulty>:<nonce>:<solution>``."""
    alg_s, diff_s, nonce, solution = _parse_fields(wire, 4, "receipt")
    return _checked(Receipt, puzzle=_puzzle_from_fields(alg_s, diff_s, nonce), solution=solution)


def leading_zero_bits(digest: bytes) -> int:
    """Number of leading zero bits in a digest."""
    return len(digest) * 8 - int.from_bytes(digest, "big").bit_length()


def _bound(difficulty: int) -> bytes:
    """The largest SHA-256 digest with at least ``difficulty`` leading zero
    bits.  A digest meets the difficulty iff ``digest <= _bound(difficulty)``:
    bytes of equal length compare as big-endian numbers.  The bound is
    inclusive because 2**256, the exclusive one at difficulty 0, needs 33
    bytes."""
    return ((1 << (256 - difficulty)) - 1).to_bytes(32, "big")


def verify_hash(puzzle: Puzzle, solution: str) -> bool:
    """True iff SHA-256("<alg>:<difficulty>:<nonce>:<solution>") starts with
    at least ``difficulty`` zero bits.  Pure predicate, one hash evaluation.
    Raises :class:`UnsupportedAlgorithmError` for any other algorithm."""
    if puzzle.algorithm != ALG_BASELINE:
        raise UnsupportedAlgorithmError(f"cannot verify algorithm {puzzle.algorithm}")
    message = f"{puzzle.algorithm}:{puzzle.difficulty}:{puzzle.nonce}:{solution}"
    return sha256(message.encode("ascii")).digest() <= _bound(puzzle.difficulty)


# the solver hashes counter c as the decimal stem c // 100 followed by a
# two-digit suffix; below 100 there is no stem and the suffix is unpadded
_SHORT_SUFFIXES = tuple(str(i).encode("ascii") for i in range(100))
_SUFFIXES = tuple(f"{i:02d}".encode("ascii") for i in range(100))


def solve(puzzle: Puzzle, start_counter: int = 0, attempt_cap: int | None = None) -> Receipt:
    """Find a solution by sequential counter scan from ``start_counter``.

    Deterministic: always returns the first satisfying counter at or after
    ``start_counter``.  Raises :class:`AttemptsExhausted` once ``attempt_cap``
    hashes have been tried, so the caller can decide whether the burden is
    worth carrying on with.

    The ``"<alg>:<difficulty>:<nonce>:"`` prefix is hashed once.  Each block
    of 100 counters copies that state and adds its stem, and each counter
    copies the block's state and adds its suffix, so a counter costs the
    hashing of two digits rather than of the whole receipt.
    """
    if puzzle.algorithm != ALG_BASELINE:
        raise UnsupportedAlgorithmError(f"cannot solve algorithm {puzzle.algorithm}")
    if start_counter < 0:
        raise ValueError("start_counter must be non-negative")
    if attempt_cap is not None and attempt_cap < 0:
        raise ValueError("attempt_cap must be non-negative")
    bound = _bound(puzzle.difficulty)
    midstate = sha256(f"{puzzle.algorithm}:{puzzle.difficulty}:{puzzle.nonce}:".encode("ascii"))
    end = None if attempt_cap is None else start_counter + attempt_cap
    counter = start_counter
    while end is None or counter < end:
        stem, first = divmod(counter, 100)
        last = 100 if end is None else min(100, end - 100 * stem)
        block, suffixes = midstate, _SHORT_SUFFIXES
        if stem:
            block = midstate.copy()
            block.update(b"%d" % stem)
            suffixes = _SUFFIXES
        for i in range(first, last):
            state = block.copy()
            state.update(suffixes[i])
            if state.digest() <= bound:
                return Receipt(puzzle=puzzle, solution=str(100 * stem + i))
        counter = 100 * stem + last
    raise AttemptsExhausted(attempt_cap)


class VerifyOutcome(enum.Enum):
    ACCEPTED = "accepted"
    UNKNOWN_NONCE = "unknown-nonce"
    EXPIRED = "expired"
    REPLAYED = "replayed"
    BAD_SOLUTION = "bad-solution"

    @property
    def ok(self) -> bool:
        return self is VerifyOutcome.ACCEPTED


class IssuedPuzzleStore:
    """Nonce -> issued puzzle map with single-use consumption.

    Concurrent issue/verify is safe; consumption is check-and-set under one
    lock so a nonce can never verify twice.  Capacity-bound: a full store
    refuses to issue (overload signal) until a puzzle is released.  The
    session that issued a puzzle releases it when its transaction ends or
    the puzzle expires, so the store keeps no timer of its own.  A consumed
    nonce stays until released, so a replay reads as ``REPLAYED``.
    """

    def __init__(self, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._puzzles: dict[str, Puzzle] = {}
        self._consumed: set[str] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._puzzles)

    def __contains__(self, nonce: str) -> bool:
        with self._lock:
            return nonce in self._puzzles

    def register(self, puzzle: Puzzle, now: float) -> None:
        with self._lock:
            if puzzle.nonce in self._puzzles:
                raise ValueError(f"nonce {puzzle.nonce} already issued")
            self._add(puzzle)

    def issue(self, entropy: random.Random, algorithm: int, difficulty: int, now: float, ttl: float) -> Puzzle:
        """Draw an unused 18-digit nonce from ``entropy`` and register a
        puzzle under it that expires ``ttl`` seconds after ``now``."""
        with self._lock:
            for _ in range(32):
                nonce = str(entropy.randrange(10**17, 10**18))
                if nonce not in self._puzzles:
                    puzzle = Puzzle(algorithm, difficulty, nonce, issued_at=now, expires_at=now + ttl)
                    return self._add(puzzle)
        raise StoreFullError("could not draw an unused nonce")

    def release(self, nonce: str) -> None:
        """Forget a puzzle whose transaction has ended or that has expired,
        consumed or not."""
        with self._lock:
            self._puzzles.pop(nonce, None)
            self._consumed.discard(nonce)

    def _add(self, puzzle: Puzzle) -> Puzzle:
        # caller holds the lock and has checked that the nonce is new
        if len(self._puzzles) >= self.capacity:
            raise StoreFullError(f"{len(self._puzzles)} puzzles outstanding")
        self._puzzles[puzzle.nonce] = puzzle
        return puzzle

    def verify_and_consume(self, receipt: Receipt, now: float) -> VerifyOutcome:
        """Accept iff the nonce was issued, is unexpired and unconsumed, the
        receipt's header matches what was issued, and the hash checks out.
        Marks the nonce consumed on acceptance."""
        nonce = receipt.puzzle.nonce
        with self._lock:
            issued = self._puzzles.get(nonce)
            if issued is None:
                return VerifyOutcome.UNKNOWN_NONCE
            if issued.expires_at <= now:
                return VerifyOutcome.EXPIRED
            if nonce in self._consumed:
                return VerifyOutcome.REPLAYED
            if (receipt.puzzle.algorithm, receipt.puzzle.difficulty) != (
                issued.algorithm,
                issued.difficulty,
            ):
                # a receipt that restates the puzzle with a lower difficulty
                # must not verify against the original nonce
                return VerifyOutcome.BAD_SOLUTION
            if not verify_hash(issued, receipt.solution):
                return VerifyOutcome.BAD_SOLUTION
            self._consumed.add(nonce)
            return VerifyOutcome.ACCEPTED


def generate_challenge(
    store: IssuedPuzzleStore,
    algorithm: int = ALG_BASELINE,
    difficulty: int = 20,
    ttl: float = 7200.0,
    entropy: random.Random | None = None,
    now: float | None = None,
) -> Puzzle:
    """Issue a fresh puzzle and register it in the store.

    The nonce is an unpredictable 18-digit decimal drawn from ``entropy``
    (the system CSPRNG by default; tests inject a seeded source).
    """
    if not 0 <= difficulty <= MAX_DIFFICULTY:
        raise ValueError(f"difficulty must be in [0, {MAX_DIFFICULTY}]")
    if ttl <= 0:
        raise ValueError("ttl must be positive")
    if entropy is None:
        entropy = _SYSTEM_RANDOM
    if now is None:
        now = time.time()
    return store.issue(entropy, algorithm, difficulty, now, ttl)


class CalibrationResult(NamedTuple):
    difficulty: int
    hash_rate: float


def measure_hash_rate(duration: float = 0.25) -> float:
    """Hashes per second of :func:`solve` on this host, timed on a
    difficulty-64 probe that no batch is expected to solve."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    probe = Puzzle(algorithm=ALG_BASELINE, difficulty=MAX_DIFFICULTY, nonce="0" * 18)
    batch = 2048
    count = 0
    start = time.perf_counter()
    while True:
        try:
            solve(probe, start_counter=count, attempt_cap=batch)
        except AttemptsExhausted:
            pass
        count += batch
        elapsed = time.perf_counter() - start
        if elapsed >= duration:
            return count / elapsed


def difficulty_for_target(target_seconds: float, hash_rate: float) -> int:
    """Difficulty whose expected solve time is closest (in log2) to the target."""
    if hash_rate <= 0:
        raise CalibrationError("hash rate must be positive")
    if target_seconds <= 0:
        raise ValueError("target_seconds must be positive")
    expected_hashes = target_seconds * hash_rate
    if expected_hashes <= 1.0:
        return 0
    return min(MAX_DIFFICULTY, max(0, round(math.log2(expected_hashes))))


def calibrate(target_seconds: float, bench_duration: float = 0.25) -> CalibrationResult:
    """Benchmark the local hash rate and pick a difficulty for the target burden."""
    if bench_duration < 0.1:
        raise ValueError("bench_duration must be at least 0.1 s")
    rate = measure_hash_rate(bench_duration)
    return CalibrationResult(difficulty_for_target(target_seconds, rate), rate)


def default_ttl(difficulty: int, hash_rate: float) -> float:
    """Twice the expected solve time plus a reconnect margin, with a one-hour
    floor, so a demanded burden always fits inside the puzzle's lifetime."""
    if hash_rate <= 0:
        raise CalibrationError("hash rate must be positive")
    return max(3600.0, 2.0 * expected_seconds(difficulty, hash_rate) + 600.0)


def expected_seconds(difficulty: int, hash_rate: float) -> float:
    """Mean time to solve a puzzle of ``difficulty`` bits at ``hash_rate``
    hashes per second: 2**difficulty expected hashes."""
    return float(2**difficulty) / hash_rate
