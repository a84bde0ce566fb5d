"""Hunt for certifiable 2-torsion over a range of fields.

Enumerates the admissible prime triples for every class-number-coprime
field in the range, builds the explicit certificate element for each
triple, and prints the verification verdicts: whether the transform
kills the element, the parity value, and the conclusion.  Fields whose
unit count is not 2 or whose triples all fail a hypothesis are
reported as such, so the output doubles as a negative-control sweep.

Usage: python scripts/certificate_hunt.py --max-d 20 --norm-bound 40
"""

import argparse
import sys
import time

from ordist.distribution import torsex_certificate
from ordist.quadfield import HypothesisFailed, Modulus, NotSquarefree, \
    make_field, search_torsex


def hunt(args: argparse.Namespace) -> int:
    """Certify up to args.per_field triples of norm at most
    args.norm_bound for each field with d up to args.max_d."""
    verified = 0
    for d in range(1, args.max_d + 1):
        try:
            K = make_field(d)
        except NotSquarefree:
            continue
        if K.w_K != 2:
            print(f"d={d:<3} skipped: w = {K.w_K}")
            continue
        triples = search_torsex(K, args.norm_bound)
        if not triples:
            print(f"d={d:<3} no admissible triple up to norm "
                  f"{args.norm_bound} (h = {K.h})")
            continue
        for trio in triples[:args.per_field]:
            m = Modulus(K, tuple((p, 1) for p in trio))
            t0 = time.time()
            try:
                cert = torsex_certificate(K, *trio)
            except HypothesisFailed as exc:
                print(f"d={d:<3} {m.label():<28} hypothesis: {exc}")
                continue
            verdict = "VERIFIED" if cert.conclusion else "FAILED"
            verified += cert.conclusion
            print(f"d={d:<3} {m.label():<28} kernel={cert.in_kernel} "
                  f"nu={cert.nu_R} parity={cert.nu_parity_of_U} "
                  f"{verdict} ({time.time() - t0:.1f}s)")
    print(f"\n{verified} certificate(s) verified")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-d", type=int, default=20)
    ap.add_argument("--norm-bound", type=int, default=40)
    ap.add_argument("--per-field", type=int, default=3,
                    help="certify at most this many triples per field")
    return hunt(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
