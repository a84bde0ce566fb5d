"""Survey level torsion across fields and moduli.

For each configured field, walks the squarefree moduli assembled from
the admissible split or ramified primes up to a norm bound and prints
one line per level: generator and relation counts, the rank, the
torsion invariants from the dual-oracle computation, and both bounds.
The torsion column stays empty until the level carries at least three
primes, which is the parity law in action.

Usage: python scripts/torsion_survey.py -d 7 -d 15 --norm-bound 24 --max-primes 3
"""

import argparse
import itertools
import math
import sys
import time

from ordist.distribution import build_presentation, level_torsion, \
    torsion_bound
from ordist.groupring import NotCoprimeToW
from ordist.quadfield import Modulus, ModulusTooLarge, _is_prime, make_field


def admissible_primes(K, bound):
    out = []
    for q in range(2, bound + 1):
        if not _is_prime(q) or math.gcd(q, K.w_K) > 1:
            continue
        kind, ids = K.splitting_type(q)
        if kind == "inert":
            continue
        out.append(ids[0])
    return out


def survey(args: argparse.Namespace) -> int:
    """Print the levels of each field in args.fields, built from up to
    args.max_primes primes of norm at most args.norm_bound, whose ray
    class group has order at most args.max_group."""
    for d in args.fields:
        K = make_field(d)
        primes = admissible_primes(K, args.norm_bound)
        print(f"\nQ(sqrt(-{d}))  disc {K.disc}  h {K.h}  w {K.w_K}  "
              f"usable primes {[p.norm() for p in primes]}")
        print(f"{'modulus':<24}{'gens':>6}{'rels':>6}{'rank':>6}"
              f"{'torsion':>10}{'exp|':>6}{'ord|':>6}{'sec':>7}")
        for k in range(1, args.max_primes + 1):
            for combo in itertools.combinations(primes, k):
                if len({p.rational_prime() for p in combo}) < k:
                    continue
                m = Modulus(K, tuple((p, 1) for p in combo))
                t0 = time.time()
                try:
                    P = build_presentation(K, m)
                except ModulusTooLarge:
                    continue
                if P.ray(m).group.order > args.max_group:
                    continue
                tor = level_torsion(P)
                try:
                    product, borne = torsion_bound(P)
                except NotCoprimeToW:
                    product = borne = "-"
                tor_s = "Z/" + "+".join(map(str, tor.invariant_factors)) \
                    if tor.invariant_factors else ""
                print(f"{m.label():<24}{P.n_gens:>6}"
                      f"{P.relations.rows:>6}{P.ray(m).group.order:>6}"
                      f"{tor_s:>10}{product:>6}{borne:>6}"
                      f"{time.time() - t0:>7.2f}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-d", dest="fields", type=int, action="append",
                    help="field selector, repeatable (default 7)")
    ap.add_argument("--norm-bound", type=int, default=24)
    ap.add_argument("--max-primes", type=int, default=3)
    ap.add_argument("--max-group", type=int, default=2000,
                    help="skip levels whose ray group exceeds this order")
    args = ap.parse_args(argv)
    args.fields = args.fields or [7]
    return survey(args)


if __name__ == "__main__":
    sys.exit(main())
