"""Puzzle layer: wire format, solving, verification, store semantics."""
import hashlib
import math
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedEntropy
from spamfriction import puzzle as pow

# frozen solver fixtures: first satisfying counter scanning from zero,
# confirmed against a direct leading-zero-bit count of the digest
FIXTURE_D16 = pow.Puzzle(algorithm=0, difficulty=16, nonce="12345")
FIXTURE_D16_SOLUTION = "15956"
FIXTURE_D8_EXACT = pow.Puzzle(algorithm=0, difficulty=8, nonce="424242424242424")
FIXTURE_D8_SOLUTION = "26"  # digest has exactly 8 leading zero bits


# -- wire format ---------------------------------------------------------------


def test_parse_puzzle_fields():
    p = pow.parse_puzzle("0:21:892734982734987")
    assert p.algorithm == 0
    assert p.difficulty == 21
    assert p.nonce == "892734982734987"


def test_puzzle_wire_round_trip_is_identity():
    wire = "0:21:892734982734987"
    assert pow.parse_puzzle(wire).wire == wire


def test_receipt_wire_round_trip_is_identity():
    wire = "0:16:12345:15956"
    r = pow.parse_receipt(wire)
    assert r.solution == "15956"
    assert r.puzzle.difficulty == 16
    assert r.wire == wire


@pytest.mark.parametrize(
    "wire",
    [
        "",
        "0:21",                      # too few fields
        "0:21:n:s",                  # puzzle with four fields
        "0:21:",                     # empty nonce
        ":21:892734982734987",       # empty algorithm
        "00:21:892734982734987",     # non-canonical algorithm
        "0:021:892734982734987",     # non-canonical difficulty
        "0:-1:892734982734987",
        "0:65:892734982734987",      # past the difficulty cap
        "0:21:89273 4982734987",
        "0:21:89273a4982734987",
        "0:21:8927349827349١",  # non-ASCII digit
        "1000001:21:892734982734987",
        "0:21:" + "9" * 65,          # nonce too long
        pytest.param("9" * 5000 + ":21:1", id="more-digits-than-int-converts"),
    ],
)
def test_malformed_puzzle_wire_rejected(wire):
    with pytest.raises(pow.WireFormatError):
        pow.parse_puzzle(wire)


@pytest.mark.parametrize(
    "wire",
    ["0:16:12345", "0:16:12345:15956:x", "0:16:12345:", "0:16:12345:1a", "0:16:12345:" + "1" * 65],
)
def test_malformed_receipt_wire_rejected(wire):
    with pytest.raises(pow.WireFormatError):
        pow.parse_receipt(wire)


@given(
    algorithm=st.integers(0, 1000),
    difficulty=st.integers(0, 64),
    nonce=st.text("0123456789", min_size=1, max_size=64),
    solution=st.text("0123456789", min_size=1, max_size=64),
)
def test_receipt_round_trip_property(algorithm, difficulty, nonce, solution):
    receipt = pow.Receipt(
        puzzle=pow.Puzzle(algorithm=algorithm, difficulty=difficulty, nonce=nonce),
        solution=solution,
    )
    parsed = pow.parse_receipt(receipt.wire)
    assert parsed.puzzle.algorithm == algorithm
    assert parsed.puzzle.difficulty == difficulty
    assert parsed.puzzle.nonce == nonce
    assert parsed.solution == solution
    assert parsed.wire == receipt.wire


def test_puzzle_validation():
    with pytest.raises(ValueError):
        pow.Puzzle(algorithm=-1, difficulty=8, nonce="1")
    with pytest.raises(ValueError):
        pow.Puzzle(algorithm=0, difficulty=65, nonce="1")
    with pytest.raises(ValueError):
        pow.Puzzle(algorithm=0, difficulty=8, nonce="abc")
    with pytest.raises(ValueError):
        pow.Puzzle(algorithm=0, difficulty=8, nonce="1", issued_at=5.0, expires_at=5.0)


# -- hash predicate ------------------------------------------------------------


def test_leading_zero_bits_counts():
    assert pow.leading_zero_bits(b"\x00" * 32) == 256
    assert pow.leading_zero_bits(b"\x80" + b"\x00" * 31) == 0
    assert pow.leading_zero_bits(b"\x00\x01" + b"\xff" * 30) == 15
    assert pow.leading_zero_bits(b"\x01" + b"\x00" * 31) == 7


def test_verify_hash_accepts_known_solution():
    assert pow.verify_hash(FIXTURE_D16, FIXTURE_D16_SOLUTION)


def test_verify_hash_rejects_wrong_solution():
    assert not pow.verify_hash(FIXTURE_D16, "15955")


def test_verify_hash_difficulty_boundary():
    # this digest has exactly eight leading zero bits
    assert pow.verify_hash(FIXTURE_D8_EXACT, FIXTURE_D8_SOLUTION)
    harder = pow.Puzzle(algorithm=0, difficulty=9, nonce=FIXTURE_D8_EXACT.nonce)
    # same preimage text would change with the difficulty field, so check
    # the bit count directly: 8 bits do not satisfy 9
    digest = hashlib.sha256(b"0:8:424242424242424:26").digest()
    assert pow.leading_zero_bits(digest) == 8
    assert not pow.verify_hash(harder, FIXTURE_D8_SOLUTION)


def test_difficulty_zero_accepts_anything():
    p = pow.Puzzle(algorithm=0, difficulty=0, nonce="7")
    assert pow.verify_hash(p, "1")
    assert pow.verify_hash(p, "99999")


@given(st.binary(min_size=32, max_size=32), st.integers(0, 64))
def test_zero_bit_check_is_downward_closed(digest, difficulty):
    # passing at difficulty d implies passing at every lower difficulty
    bits = pow.leading_zero_bits(digest)
    full, rem = divmod(difficulty, 8)
    passes = digest[:full] == b"\x00" * full and (
        not rem or not (digest[full] & ((0xFF << (8 - rem)) & 0xFF))
    )
    assert passes == (bits >= difficulty)


# -- solver ---------------------------------------------------------------------


def test_solve_finds_first_counter():
    receipt = pow.solve(FIXTURE_D16)
    assert receipt.solution == FIXTURE_D16_SOLUTION
    assert pow.verify_hash(receipt.puzzle, receipt.solution)


def test_solve_respects_start_counter():
    receipt = pow.solve(FIXTURE_D16, start_counter=int(FIXTURE_D16_SOLUTION) + 1)
    assert int(receipt.solution) > int(FIXTURE_D16_SOLUTION)
    assert pow.verify_hash(FIXTURE_D16, receipt.solution)


def test_solve_attempt_cap():
    with pytest.raises(pow.AttemptsExhausted) as excinfo:
        pow.solve(FIXTURE_D16, attempt_cap=10)
    assert excinfo.value.attempts == 10


def test_solve_unknown_algorithm():
    p = pow.Puzzle(algorithm=4, difficulty=4, nonce="1")
    with pytest.raises(pow.UnsupportedAlgorithmError):
        pow.solve(p)


@settings(deadline=None, max_examples=30)
@given(difficulty=st.integers(0, 10), nonce=st.text("0123456789", min_size=1, max_size=20))
def test_solutions_always_verify(difficulty, nonce):
    p = pow.Puzzle(algorithm=0, difficulty=difficulty, nonce=nonce)
    receipt = pow.solve(p)
    assert pow.verify_hash(p, receipt.solution)


def test_expected_attempts_scale_geometrically():
    # sample mean of attempts should sit near 2^difficulty
    rng = random.Random(4242)
    for difficulty, trials in ((4, 400), (6, 300)):
        total = 0
        for _ in range(trials):
            nonce = str(rng.randrange(10**17, 10**18))
            p = pow.Puzzle(algorithm=0, difficulty=difficulty, nonce=nonce)
            total += int(pow.solve(p).solution) + 1  # counter starts at zero
        mean = total / trials
        expected = 2.0**difficulty
        se = expected / math.sqrt(trials)
        assert abs(mean - expected) < 4 * se


# -- issued-puzzle store ----------------------------------------------------------


def make_issued(store, difficulty=8, nonce="111111111111111111", now=0.0, ttl=100.0):
    p = pow.Puzzle(
        algorithm=0, difficulty=difficulty, nonce=nonce, issued_at=now, expires_at=now + ttl
    )
    store.register(p, now)
    return p


def test_store_accepts_valid_receipt_once():
    store = pow.IssuedPuzzleStore()
    p = make_issued(store, difficulty=8)
    receipt = pow.solve(p)
    assert store.verify_and_consume(receipt, now=1.0) is pow.VerifyOutcome.ACCEPTED
    assert store.verify_and_consume(receipt, now=1.0) is pow.VerifyOutcome.REPLAYED


def test_store_unknown_nonce():
    store = pow.IssuedPuzzleStore()
    receipt = pow.solve(pow.Puzzle(algorithm=0, difficulty=4, nonce="999"))
    assert store.verify_and_consume(receipt, now=0.0) is pow.VerifyOutcome.UNKNOWN_NONCE


def test_store_expired_receipt():
    store = pow.IssuedPuzzleStore()
    p = make_issued(store, ttl=50.0)
    receipt = pow.solve(p)
    assert store.verify_and_consume(receipt, now=50.0) is pow.VerifyOutcome.EXPIRED


def test_store_bad_solution():
    store = pow.IssuedPuzzleStore()
    p = make_issued(store, difficulty=16, nonce="12345")
    bad = pow.Receipt(puzzle=pow.Puzzle(algorithm=0, difficulty=16, nonce="12345"), solution="15955")
    assert store.verify_and_consume(bad, now=1.0) is pow.VerifyOutcome.BAD_SOLUTION
    # a failed attempt must not consume the nonce
    good = pow.Receipt(puzzle=bad.puzzle, solution="15956")
    assert store.verify_and_consume(good, now=1.0) is pow.VerifyOutcome.ACCEPTED


def test_store_rejects_downgraded_difficulty():
    # restating the issued puzzle at difficulty 0 must not verify
    store = pow.IssuedPuzzleStore()
    make_issued(store, difficulty=16, nonce="12345")
    downgraded = pow.Receipt(
        puzzle=pow.Puzzle(algorithm=0, difficulty=0, nonce="12345"), solution="1"
    )
    assert store.verify_and_consume(downgraded, now=1.0) is pow.VerifyOutcome.BAD_SOLUTION


def test_store_capacity_and_expired_eviction():
    store = pow.IssuedPuzzleStore(capacity=2)
    make_issued(store, nonce="1", now=0.0, ttl=10.0)
    make_issued(store, nonce="2", now=0.0, ttl=100.0)
    # expiry evicts nothing: the session that issued the puzzle gives it back
    for now in (5.0, 500.0):
        with pytest.raises(pow.StoreFullError):
            make_issued(store, nonce="3", now=now)
        with pytest.raises(pow.StoreFullError):
            pow.generate_challenge(store, now=now)
    assert "1" in store and "2" in store
    store.release("1")
    make_issued(store, nonce="3", now=500.0)
    assert len(store) == 2 and "1" not in store


def test_full_store_frees_only_the_released_entry():
    store = pow.IssuedPuzzleStore(capacity=2)
    make_issued(store, nonce="1", now=0.0, ttl=100.0)
    make_issued(store, nonce="2", now=0.0, ttl=10.0)
    # "2" expired first, but only a release makes room
    with pytest.raises(pow.StoreFullError):
        make_issued(store, nonce="3", now=50.0, ttl=100.0)
    store.release("1")
    make_issued(store, nonce="3", now=50.0, ttl=100.0)
    assert "1" not in store
    assert "2" in store and "3" in store


def test_released_consumed_nonce_is_unknown():
    store = pow.IssuedPuzzleStore(capacity=1)
    p = make_issued(store, difficulty=8, ttl=10.0)
    receipt = pow.solve(p)
    assert store.verify_and_consume(receipt, now=1.0) is pow.VerifyOutcome.ACCEPTED
    store.release(p.nonce)
    assert store.verify_and_consume(receipt, now=2.0) is pow.VerifyOutcome.UNKNOWN_NONCE
    # re-registering the released nonce starts it unconsumed
    make_issued(store, difficulty=8, now=200.0, ttl=10.0)
    assert store.verify_and_consume(receipt, now=201.0) is pow.VerifyOutcome.ACCEPTED


def test_released_nonce_is_forgotten_and_a_second_release_is_harmless():
    store = pow.IssuedPuzzleStore(capacity=3)
    p = make_issued(store, difficulty=8, nonce="1", now=0.0, ttl=10.0)
    receipt = pow.solve(p)
    assert store.verify_and_consume(receipt, now=1.0) is pow.VerifyOutcome.ACCEPTED
    make_issued(store, nonce="2", now=0.0, ttl=20.0)
    make_issued(store, nonce="3", now=0.0, ttl=100.0)
    store.release("1")
    store.release("1")  # releasing twice is harmless
    assert len(store) == 2 and "1" not in store
    assert store.verify_and_consume(receipt, now=2.0) is pow.VerifyOutcome.UNKNOWN_NONCE
    # the one freed slot is the only room
    make_issued(store, nonce="4", now=5.0, ttl=100.0)
    with pytest.raises(pow.StoreFullError):
        make_issued(store, nonce="5", now=50.0, ttl=100.0)
    assert "2" in store and "3" in store and "4" in store


def test_issue_and_release_keep_the_store_bounded():
    store = pow.IssuedPuzzleStore(capacity=10)
    for _ in range(5):
        pow.generate_challenge(store, difficulty=0, now=0.0)
    for i in range(100_000):
        store.release(pow.generate_challenge(store, difficulty=0, now=float(i)).nonce)
    assert len(store) == 5
    # the cycles left nothing behind: exactly five slots are still free
    for _ in range(5):
        pow.generate_challenge(store, difficulty=0, now=0.0)
    with pytest.raises(pow.StoreFullError):
        pow.generate_challenge(store, difficulty=0, now=0.0)


def test_store_duplicate_nonce_rejected():
    store = pow.IssuedPuzzleStore()
    make_issued(store, nonce="5")
    with pytest.raises(ValueError):
        make_issued(store, nonce="5")


def test_single_use_under_concurrency():
    store = pow.IssuedPuzzleStore()
    p = make_issued(store, difficulty=8)
    receipt = pow.solve(p)
    outcomes = []
    barrier = threading.Barrier(8)

    def attempt():
        barrier.wait()
        outcomes.append(store.verify_and_consume(receipt, now=1.0))

    threads = [threading.Thread(target=attempt) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert outcomes.count(pow.VerifyOutcome.ACCEPTED) == 1
    assert outcomes.count(pow.VerifyOutcome.REPLAYED) == 7


# -- challenge generation -----------------------------------------------------------


def test_generate_challenge_registers_and_solves():
    store = pow.IssuedPuzzleStore()
    p = pow.generate_challenge(store, difficulty=8, ttl=60.0, entropy=random.Random(7), now=0.0)
    assert p.nonce in store
    assert p.difficulty == 8
    assert p.expires_at == 60.0
    receipt = pow.solve(p)
    assert store.verify_and_consume(receipt, now=1.0) is pow.VerifyOutcome.ACCEPTED


def test_generate_challenge_skips_a_live_nonce():
    store = pow.IssuedPuzzleStore()
    live = make_issued(store, nonce=str(10**17 + 1))
    entropy = FixedEntropy(10**17 + 1, 10**17 + 2)
    p = pow.generate_challenge(store, difficulty=8, entropy=entropy, now=0.0)
    assert p.nonce == str(10**17 + 2)
    assert entropy.values == []
    assert len(store) == 2 and live.nonce in store and p.nonce in store


def test_generate_challenge_concurrent_issue_never_collides():
    # draws from a small pool, so threads often pick the same nonce at once
    store = pow.IssuedPuzzleStore(capacity=10_000)
    per_thread, threads, errors, issued = 150, 6, [], []
    old_interval = sys.getswitchinterval()

    def worker(seed):
        entropy = random.Random(seed)
        draws = FixedEntropy(*(10**17 + entropy.randrange(3 * per_thread * threads) for _ in range(10**4)))
        try:
            for _ in range(per_thread):
                issued.append(pow.generate_challenge(store, difficulty=0, entropy=draws, now=0.0).nonce)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure under test
            errors.append(exc)

    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(seed,)) for seed in range(threads)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)
    assert errors == []
    assert len(issued) == len(set(issued)) == len(store) == per_thread * threads


def test_generate_challenge_nonces_unpredictable_width():
    store = pow.IssuedPuzzleStore()
    entropy = random.Random(3)
    nonces = {pow.generate_challenge(store, entropy=entropy, now=0.0).nonce for _ in range(100)}
    assert len(nonces) == 100
    assert all(len(n) == 18 for n in nonces)


def test_generate_challenge_deterministic_with_seeded_entropy():
    a = pow.generate_challenge(pow.IssuedPuzzleStore(), entropy=random.Random(42), now=0.0)
    b = pow.generate_challenge(pow.IssuedPuzzleStore(), entropy=random.Random(42), now=0.0)
    assert a.nonce == b.nonce


# -- calibration ----------------------------------------------------------------------


def test_difficulty_for_target_rounds_log2():
    assert pow.difficulty_for_target(1.0, 2**20) == 20
    assert pow.difficulty_for_target(4.0, 2**20) == 22
    assert pow.difficulty_for_target(1e-9, 1000.0) == 0
    assert pow.difficulty_for_target(1e30, 1e9) == 64


def test_measure_hash_rate_positive():
    rate = pow.measure_hash_rate(0.05)
    assert rate > 10_000  # any machine that can run the suite manages this


def test_calibrate_validates_bench_duration():
    with pytest.raises(ValueError):
        pow.calibrate(3600.0, bench_duration=0.01)


def test_default_ttl_covers_expected_work():
    assert pow.default_ttl(1, 1e6) == 3600.0
    big = pow.default_ttl(40, 1e6)
    assert big > 2.0 * (2**40) / 1e6
