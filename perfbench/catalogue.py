"""Regenerate ``positions.json``, the pool the ``solve-cold`` workload draws from.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/catalogue.py

Each entry is a zero-nim-sum (P) position of 3 to 7 piles whose cold solve
stores between 500 and 2,000 P-states, with that count recorded.  Random
pile sizes alone would not do: the P-state count of a random position of a
given width spreads over two orders of magnitude.  The generator fills
three P-state bands per width equally, so every width spans the whole
range; ``bench.cold_batch`` then ranks each width's entries by P-states and
draws from every rank group, which keeps the work of a batch nearly the
same from seed to seed while the games themselves change.
"""

import json
import os
import random
import sys

WIDTHS = (3, 4, 5, 6, 7)
BANDS = ((500, 800), (800, 1250), (1250, 2001))
PER_STRATUM = 40
# Largest pile drawn per width, chosen so most candidates land in a band.
PILE_HI = {3: 140, 4: 40, 5: 22, 6: 16, 7: 13}
MASTER_SEED = 20180518
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "positions.json")


def band_of(p_states: int):
    for k, (lo, hi) in enumerate(BANDS):
        if lo <= p_states < hi:
            return k
    return None


def build() -> list[dict]:
    from candynim import Game, Solver
    from candynim.errors import MemoBudgetError

    rng = random.Random(MASTER_SEED)
    out = []
    for w in WIDTHS:
        filled = [0] * len(BANDS)
        seen = set()
        while min(filled) < PER_STRATUM:
            piles = [rng.randint(1, PILE_HI[w]) for _ in range(w - 1)]
            x = 0
            for p in piles:
                x ^= p
            game = Game(piles + [x])
            if len(game) != w or game.piles in seen:
                continue
            seen.add(game.piles)
            solver = Solver(memo_cap=BANDS[-1][1])
            try:
                solver.value(game)
            except MemoBudgetError:
                continue
            p_states = sum(s["entries"] for s in solver.stats())
            k = band_of(p_states)
            if k is None or filled[k] >= PER_STRATUM:
                continue
            filled[k] += 1
            out.append({"piles": list(game.piles), "p_states": p_states})
    return out


def load() -> list[dict]:
    with open(PATH) as f:
        return json.load(f)


def main() -> int:
    entries = build()
    with open(PATH, "w") as f:
        json.dump(entries, f, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {len(entries)} positions to {PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
