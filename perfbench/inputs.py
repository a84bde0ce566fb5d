"""Workload inputs.

The level lists are fixed; the seed only permutes the order in which
the survey walks its levels and the cache passes issue their queries.
A level is (d, primes) with primes a tuple of (q, index) pairs, the
rational prime and which ideal above it, as in the CLI spec p:q:index.
"""

from __future__ import annotations

import random

HEADLINE_TORSION = ["torsion", "-d", "7", "-m", "p:7,p:11:0,p:23:0",
                    "--no-cache"]
HEADLINE_CERTIFY = ["certify", "-d", "7", "-p", "7", "-p", "11", "-p", "23",
                    "--no-cache"]
HEADLINE_LEVEL = (7, ((7, 0), (11, 0), (23, 0)))


def _levels(d, combos):
    return [(d, tuple((q, 0) for q in combo)) for combo in combos]


# Per field: every admissible one-prime level, the cheap two-prime
# levels, and one or two levels on each side of the 50k-cell direct
# kernel threshold.  Primes are split or ramified and prime to w, so
# both bounds are defined.
SURVEY_LEVELS = (
    # d = 7: h 1, w 2; 7 ramified
    _levels(7, [(7,), (11,), (23,), (29,), (37,),
                (7, 11), (7, 23), (7, 29), (7, 37), (11, 23), (11, 29),
                (23, 29)])
    # d = 19: h 1, w 2; 19 ramified; 5*7*17 takes the certified path
    + _levels(19, [(5,), (7,), (11,), (17,), (19,), (23,),
                   (5, 7), (5, 11), (5, 17), (5, 19), (5, 23), (7, 11),
                   (7, 17), (7, 19), (7, 23), (11, 17), (11, 19), (11, 23),
                   (5, 7, 17)])
    # d = 1: h 1, w 4; 5*13*17 has torsion Z/4
    + _levels(1, [(5,), (13,), (17,), (29,), (37,),
                  (5, 13), (5, 17), (5, 29), (5, 37), (13, 17), (13, 29),
                  (13, 37), (17, 29), (17, 37), (29, 37),
                  (5, 13, 17)])
    # d = 3: h 1, w 6; 7*13*19 has torsion Z/6
    + _levels(3, [(7,), (13,), (19,), (31,), (37,),
                  (7, 13), (7, 19), (7, 31), (7, 37), (13, 19), (13, 31),
                  (13, 37), (19, 31), (19, 37), (31, 37),
                  (7, 13, 19)])
    # d = 11: h 1, w 2; 11 ramified; 3*5*37 is a direct-path level just
    # under the threshold
    + _levels(11, [(3,), (5,), (11,), (23,), (31,), (37,),
                   (3, 5), (3, 11), (3, 23), (3, 31), (3, 37), (5, 11),
                   (5, 23), (5, 31), (5, 37), (11, 23), (11, 31),
                   (3, 5, 11), (3, 5, 37)])
    # d = 15: h 2, w 2; 3 and 5 ramified
    + _levels(15, [(3,), (5,), (17,), (19,), (23,), (31,),
                   (3, 5), (3, 17), (3, 19), (3, 23), (3, 31), (5, 17),
                   (5, 19), (5, 23), (5, 31), (17, 19),
                   (3, 5, 23)])
    # d = 23: h 3, w 2; 23 ramified
    + _levels(23, [(3,), (13,), (23,), (29,), (31,),
                   (3, 13), (3, 23), (3, 29), (3, 31)])
)

# The direct kernel path does not finish this level (a 120 x 193
# transform) in minutes; the certified path answers it in well under a
# second.  It runs under the per-level deadline and counts as failed
# until the direct path is mended.  Its torsion is Z/2.
SURVEY_STALLED = (19, ((5, 0), (7, 0), (11, 0)))
SURVEY_DEADLINE_S = 3.0

SURVEY_FIELDS = (1, 3, 7, 11, 15, 19, 23)

# Cache round trip: moderate levels computed once (fill) and read back
# (repeat).  REORDERED levels are asked again with their primes in
# another order; TRUNCATED has its manifest cut short between the passes.
CACHE_LEVELS = (
    (7, ((23, 0), (29, 0))),
    (19, ((5, 0), (7, 0), (17, 0))),
    (11, ((3, 0), (5, 0), (11, 0))),
    (3, ((7, 0), (13, 0))),
    (15, ((5, 0), (31, 0))),
)
CACHE_REORDERED = (CACHE_LEVELS[0], CACHE_LEVELS[1])
CACHE_TRUNCATED = CACHE_LEVELS[2]

CLI_FIELD = ["field", "-d", "7", "--no-cache"]
CLI_RAYCLASS = ["rayclass", "-d", "7", "-m", "p:11:0,p:23:0", "--no-cache"]
CLI_RAYCLASS_LEVEL = (7, ((11, 0), (23, 0)))
CLI_SEARCH = ["search", "-d", "15", "-B", "80", "--no-cache"]
CLI_SWEEP = ["toralg-sweep", "--no-cache"]
CLI_FIELDS = (7, 19, 11, 3, 15)


def spec(primes) -> str:
    return ",".join(f"p:{q}:{i}" for q, i in primes)


def torsion_args(level, cache_dir, reverse=False) -> list[str]:
    d, primes = level
    primes = tuple(reversed(primes)) if reverse else primes
    return ["torsion", "-d", str(d), "-m", spec(primes),
            "--cache-dir", str(cache_dir)]


def survey_order(seed: int) -> list:
    """All survey levels, the stalled one included, in seeded order."""
    levels = list(SURVEY_LEVELS) + [SURVEY_STALLED]
    random.Random(seed).shuffle(levels)
    return levels


def cache_order(seed: int, round_no: int) -> tuple[list, list]:
    """(fill order, repeat order) of the cache levels for one round.

    Each repeat entry is (level, reversed spec?).
    """
    rng = random.Random(seed * 1_000_003 + round_no)
    fill = list(CACHE_LEVELS)
    rng.shuffle(fill)
    repeat = [(lv, lv in CACHE_REORDERED) for lv in CACHE_LEVELS]
    rng.shuffle(repeat)
    return fill, repeat
