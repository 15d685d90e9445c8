"""Write perfbench/nonces.txt: puzzle nonces with the number of hashes
``puzzle.solve`` needs for each at the difficulty set in bench.yaml.

The server launcher draws spam-pow nonces from this table one per cost
stratum (see ``server.StratifiedNonces``), so the solve work of a run does
not swing with the seed.  Regenerate it when the difficulty in bench.yaml
or the puzzle wire format changes:

    PYTHONPATH=src python3 perfbench/make_nonces.py
"""
from __future__ import annotations

import multiprocessing
import random
import sys
from pathlib import Path

ENTRIES = 4096
HERE = Path(__file__).resolve().parent
OUT = HERE / "nonces.txt"


def _attempts(nonce: str, difficulty: int) -> int:
    from spamfriction import puzzle as pow

    receipt = pow.solve(pow.Puzzle(algorithm=pow.ALG_BASELINE, difficulty=difficulty, nonce=nonce))
    return int(receipt.solution) + 1


def main() -> int:
    from spamfriction.config import load_config

    difficulty = load_config(str(HERE / "bench.yaml")).policy.base_difficulty
    rng = random.Random("perfbench nonce table")
    nonces = sorted({str(rng.randrange(10**17, 10**18)) for _ in range(ENTRIES)})
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        attempts = pool.starmap(_attempts, [(n, difficulty) for n in nonces], chunksize=64)
    lines = [f"# difficulty {difficulty}: nonce, hashes puzzle.solve needs"]
    lines += [f"{n} {a}" for n, a in zip(nonces, attempts)]
    OUT.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
