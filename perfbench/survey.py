"""Survey levels in one process, the way scripts/torsion_survey.py does.

Usage: python3 survey.py LEVELS_JSON DEADLINE_S [TRACE_OUT]

LEVELS_JSON holds a list of [d, [[q, index], ...]].  For each level the
process builds the presentation and computes level_torsion and
torsion_bound under a per-level deadline, and prints one JSON list with
a record per level.  With TRACE_OUT the layer wrappers are installed and
the spans are written there, one operation per level.
"""

import json
import signal
import sys
import time

import ordist


class Deadline(BaseException):
    """Raised by the interval timer; not an Exception, so nothing in
    the program can swallow it."""


def _expire(signum, frame):
    raise Deadline()


def run_level(d, primes):
    K = ordist.make_field(d)
    ideals = tuple((K.splitting_type(q)[1][i], 1) for q, i in primes)
    P = ordist.build_presentation(K, ordist.Modulus(K, ideals))
    tor = ordist.level_torsion(P)
    product_bound, borne = ordist.torsion_bound(P)
    return {
        "generators": P.n_gens,
        "relations": P.relations.rows,
        "rank": P.ray(P.modulus).group.order,
        "torsion": list(tor.invariant_factors),
        "product_bound": product_bound,
        "borne": borne,
    }


def main() -> int:
    with open(sys.argv[1]) as fh:
        levels = json.load(fh)
    deadline = float(sys.argv[2])
    tracer = None
    if len(sys.argv) > 3:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _expire)
    records = []
    for d, primes in levels:
        if tracer is not None:
            tracer.op = f"d={d} m=" + ",".join(f"p:{q}:{i}" for q, i in primes)
        rec = {"d": d, "primes": primes}
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            rec.update(run_level(d, primes))
            rec["ok"] = True
        except Deadline:
            rec["ok"] = False
            rec["error"] = f"deadline of {deadline} s"
        except Exception as exc:
            rec["ok"] = False
            rec["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["seconds"] = time.perf_counter() - start
        records.append(rec)
    if tracer is not None:
        tracer.dump(sys.argv[3])
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
