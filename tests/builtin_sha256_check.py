"""Check, with the standard library alone, that the puzzle layer hashes with
CPython's built-in SHA-256, loads no OpenSSL, and agrees with hashlib:

    PYTHONPATH=src python tests/builtin_sha256_check.py

It needs neither pytest nor PyYAML, so it runs on any interpreter the
package supports, including ones the Tier-1 suite is not installed on.
"""
import sys

from spamfriction import puzzle, smtp  # noqa: F401

loaded = {"_hashlib", "ssl"} & set(sys.modules)
assert not loaded, f"importing puzzle and smtp loaded {sorted(loaded)}"
builtin = "_sha2" if sys.version_info >= (3, 12) else "_sha256"
assert puzzle.sha256.__module__ == builtin, puzzle.sha256

import hashlib  # noqa: E402  (the reference, imported only after the check)

p = puzzle.Puzzle(algorithm=0, difficulty=8, nonce="424242424242424")
prefix = b"0:8:424242424242424:"


def meets(counter: int) -> bool:
    return puzzle.leading_zero_bits(hashlib.sha256(prefix + b"%d" % counter).digest()) >= 8


first = next(counter for counter in range(1 << 16) if meets(counter))
assert puzzle.solve(p).solution == str(first)
for counter in range(first + 200):
    assert puzzle.verify_hash(p, str(counter)) == meets(counter), counter
print(f"ok: {sys.version.split()[0]} hashes with {builtin}.sha256; first difficulty-8 solution {first}")
