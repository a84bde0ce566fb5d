"""Command line frontend with JSON reports and an on-disk cache.

Each subcommand reads its parsed arguments, dispatches to the library,
and prints one report to standard output: the schema, the command line,
the field, the result and the timing.  The report is byte-stable for
identical inputs and code versions apart from the timing field.  Exit
codes: 0 success, 1 usage error, 2 a violated hypothesis, 3 an internal
oracle mismatch, 4 an I/O error (an unusable cache directory, or
standard output closed by its reader), 5 out of memory; each error
class carries its code, and a MemoryError ends with one line that names
the command.  A prime spec above RESIDUE_NORM_BOUND, or a modulus of larger
norm, is refused while parsing, before any primality test or walk.

A command imports the layer it computes with only when it computes.
Besides the package root, cli and quadfield, which every command loads:
`field`, `search` and every cache hit load nothing more; `rayclass`
loads rayclass and zlinalg; `torsion` and `certify` load distribution,
groupring, rayclass and zlinalg; `toralg-sweep` loads cohomology,
groupring, rayclass and zlinalg.  The value classes of the package are
plain classes, so no command loads inspect or ast; hashlib and pathlib
load only for a cache directory, so `--no-cache` never loads them.

The cache stores one directory per (command, field, modulus, code
version) under a sha256 key, the modulus given by its canonical label
so that reordered prime specs share an entry.  An entry is one JSON
manifest: the header (schema, version, command, d, spec) and the
result, which is all that a lookup reads.  A manifest that does not
parse, or whose result is not a JSON object, counts as a miss and is
overwritten.  Reads
and writes take an advisory lock on a file beside the key directories.
An empty --cache-dir, like an empty $ORDIST_CACHE, means no cache.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
import time
from contextlib import contextmanager

from . import OrdistError, __version__
from .quadfield import (RESIDUE_NORM_BOUND, _SHOWN_BITS, Modulus,
                        ModulusTooLarge, QuadField, make_field)

SCHEMA = "ordist/1"


class UsageError(OrdistError):
    pass


class CacheUnusable(OrdistError):
    """The cache directory cannot be read or written."""

    exit_code = 4


def _note(args, msg: str) -> None:
    """msg on stderr under -v; args is the parsed arguments or a Cache."""
    if args.verbose:
        print(msg, file=sys.stderr)


# argument parsing


def _parse_prime(K: QuadField, item: str, allow_exponent: bool):
    """One prime spec: p:<q>[:<index>[:<exponent>]] (or bare for -p)."""
    parts = item.split(":")
    if parts and parts[0] in ("p", "q"):
        parts = parts[1:]
    limit = 3 if allow_exponent else 2
    if not 1 <= len(parts) <= limit or not all(parts):
        raise UsageError(f"bad prime spec {item!r}")
    try:
        nums = [int(x) for x in parts]
    except ValueError:
        raise UsageError(f"bad prime spec {item!r}")
    q = nums[0]
    idx = nums[1] if len(nums) > 1 else 0
    exp = nums[2] if len(nums) > 2 else 1
    if q < 2 or idx < 0 or exp < 1:
        raise UsageError(f"bad prime spec {item!r}")
    if q > RESIDUE_NORM_BOUND:
        # refused before the primality test, which is slow for a huge q:
        # a prime above q has norm q, or q^2 when D is no square mod q
        norm = None
        if q.bit_length() <= _SHOWN_BITS:
            norm = q * q if pow(K.disc, (q - 1) // 2, q) == q - 1 else q
        raise ModulusTooLarge(norm)
    kind, ids = K.splitting_type(q)
    if idx >= len(ids):
        raise UsageError(
            f"prime {q} has {len(ids)} ideal(s) above it, index {idx} "
            f"is out of range")
    return ids[idx], exp


def _parse_modulus(K: QuadField, spec: str | None) -> Modulus:
    if spec is None or spec in ("1", "(1)", ""):
        return Modulus(K, ())
    pairs = [_parse_prime(K, item, allow_exponent=True)
             for item in spec.split(",")]
    try:
        m = Modulus(K, tuple(pairs))
    except OrdistError as exc:
        raise UsageError(str(exc))
    m.check_norm()  # before a cache lookup or a divisor walk
    return m


def _field_block(K: QuadField) -> dict:
    return {"disc": K.disc, "h": K.h, "w": K.w_K}


# cache plumbing


def _cache_key(command: str, d: int, spec: str) -> str:
    import hashlib  # loads OpenSSL: only calls with a cache pay for it
    raw = f"{command}|{d}|{spec}|{__version__}"
    return hashlib.sha256(raw.encode()).hexdigest()


class Cache:
    """Advisory-locked directory of result manifests; root is a
    pathlib.Path, or None without a cache.  A hit is noted under -v."""

    def __init__(self, root, verbose: int):
        self.root = root
        self.verbose = verbose

    def _lock(self, exclusive: bool):
        self.root.mkdir(parents=True, exist_ok=True)
        fh = open(self.root / ".lock", "a+")
        fcntl.flock(fh, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        return fh

    @contextmanager
    def _io(self):
        """Raise an OSError of the cache directory as CacheUnusable."""
        try:
            yield
        except OSError as exc:
            raise CacheUnusable(f"cache {self.root}: {exc}") from exc

    def load(self, command: str, d: int, spec: str) -> dict | None:
        """The cached result, or None on a miss."""
        if self.root is None:
            return None
        key = _cache_key(command, d, spec)
        path = self.root / key / "manifest.json"
        with self._io():
            if not path.exists():
                return None
            with self._lock(exclusive=False) as fh:
                try:
                    manifest = json.loads(path.read_text())
                except ValueError:
                    manifest = None  # truncated or corrupt: a miss
                fcntl.flock(fh, fcntl.LOCK_UN)
        if not isinstance(manifest, dict) \
                or manifest.get("schema") != SCHEMA \
                or not isinstance(manifest.get("result"), dict):
            return None
        _note(self, "cache hit")
        return manifest["result"]

    def store(self, command: str, d: int, spec: str, result: dict) -> None:
        if self.root is None:
            return
        key = _cache_key(command, d, spec)
        manifest = {"schema": SCHEMA, "version": __version__,
                    "command": command, "d": d, "spec": spec,
                    "result": result}
        with self._io(), self._lock(exclusive=True) as fh:
            folder = self.root / key
            folder.mkdir(parents=True, exist_ok=True)
            tmp = folder / "manifest.json.tmp"
            tmp.write_text(json.dumps(manifest, sort_keys=True, indent=2))
            tmp.rename(folder / "manifest.json")
            fcntl.flock(fh, fcntl.LOCK_UN)


# subcommands


def cmd_field(args, K: QuadField, cache: Cache) -> dict:
    return _field_block(K)


def cmd_rayclass(args, K: QuadField, cache: Cache) -> dict:
    m = _parse_modulus(K, args.modulus)
    spec = m.label()
    if (hit := cache.load("rayclass", args.d, spec)) is not None:
        return hit
    from .rayclass import ray_class_group
    G = ray_class_group(K, m)
    result = {
        "modulus": m.label(),
        "norm": m.norm(),
        "order": G.group.order,
        "invariant_factors": list(G.group.torsion),
        "inertia_orders": {Modulus(K, ((p, 1),)).label(): G.inertia(p).order
                           for p, _ in m.primes},
    }
    cache.store("rayclass", args.d, spec, result)
    return result


def cmd_torsion(args, K: QuadField, cache: Cache) -> dict:
    m = _parse_modulus(K, args.modulus)
    spec = m.label()
    if (hit := cache.load("torsion", args.d, spec)) is not None:
        return hit
    from .distribution import build_presentation, level_torsion, torsion_bound
    from .groupring import _check_coprime_to_w
    _check_coprime_to_w(m)  # before any ray class group of the level
    _note(args, "building presentation")
    P = build_presentation(K, m)
    _note(args, f"{P.n_gens} generators, {P.relations.rows} relations")
    tor = level_torsion(P)
    product_bound, borne = torsion_bound(P)
    result = {
        "modulus": m.label(),
        "generators": P.n_gens,
        "relations": P.relations.rows,
        "rank": P.ray(m).group.order,
        "torsion_invariants": list(tor.invariant_factors),
        "product_bound": product_bound,
        "borne": borne,
    }
    cache.store("torsion", args.d, spec, result)
    return result


def cmd_certify(args, K: QuadField, cache: Cache) -> dict:
    primes = [_parse_prime(K, s, allow_exponent=False)[0]
              for s in args.primes]
    spec = _certify_label(K, primes)
    if spec and (hit := cache.load("certify", args.d, spec)) is not None:
        # the key ignores the order of -p; the echo follows it
        return {**hit, "primes": [p.norm() for p in primes]}
    from .distribution import OracleMismatch, torsex_certificate
    _note(args, "building certificate")
    cert = torsex_certificate(K, *primes)
    result = {
        "modulus": spec,
        "primes": [p.norm() for p in primes],
        "in_kernel": cert.in_kernel,
        "nu_R": cert.nu_R,
        "nu_odd": cert.nu_R % 2 == 1,
        "nu_parity_of_U": cert.nu_parity_of_U,
        "conclusion": cert.conclusion,
    }
    if not cert.conclusion:
        raise OracleMismatch(
            "hypotheses hold but the certificate failed to verify: "
            + json.dumps(result, sort_keys=True))
    cache.store("certify", args.d, spec, result)
    return result


def _certify_label(K: QuadField, primes) -> str | None:
    """Canonical label of the product of the primes, or None when they
    repeat (no certificate exists, so there is nothing to look up)."""
    try:
        return Modulus(K, tuple((p, 1) for p in primes)).label()
    except OrdistError:
        return None


def cmd_search(args, K: QuadField, cache: Cache) -> dict:
    from .quadfield import search_torsex
    triples = search_torsex(K, args.norm_bound)
    return {
        "norm_bound": args.norm_bound,
        "count": len(triples),
        "triples": [[Modulus(K, ((p, 1),)).label() for p in trio]
                    for trio in triples],
    }


def cmd_toralg_sweep(args, K: QuadField, cache: Cache) -> dict:
    from .cohomology import sweep_torsion_law
    max_m = 5 if args.slow else 4
    summary = []
    all_hold = True
    for ell in (2, 3):
        records = sweep_torsion_law(ell, max_m)
        holds = all(r["law_holds"] for r in records)
        all_hold = all_hold and holds
        summary.append({"ell": ell, "cases": len(records),
                        "law_holds": holds})
    if not all_hold:
        from .distribution import OracleMismatch
        raise OracleMismatch("synthetic torsion law failed: "
                             + json.dumps(summary, sort_keys=True))
    return {"max_primes": max_m, "sweeps": summary}


# driver

_COMMANDS = {
    "field": cmd_field,
    "rayclass": cmd_rayclass,
    "torsion": cmd_torsion,
    "certify": cmd_certify,
    "search": cmd_search,
    "toralg-sweep": cmd_toralg_sweep,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ordist", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_field=True):
        if needs_field:
            p.add_argument("-d", type=int, required=True,
                           help="positive squarefree d for Q(sqrt(-d))")
        p.add_argument("--format", choices=("json", "text"),
                       default="json", dest="fmt")
        p.add_argument("-v", "--verbose", action="count", default=0)
        p.add_argument("--cache-dir", default=None)
        p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("field", help="class number and unit count")
    common(p)
    p = sub.add_parser("rayclass", help="ray class group of a modulus")
    common(p)
    p.add_argument("-m", dest="modulus", default=None,
                   help="comma list of p:<q>[:<index>[:<exponent>]]")
    p = sub.add_parser("torsion",
                       help="presentation, torsion and bounds of a level")
    common(p)
    p.add_argument("-m", dest="modulus", default=None,
                   help="comma list of p:<q>[:<index>[:<exponent>]]")
    p = sub.add_parser("certify",
                       help="explicit 2-torsion certificate for 3 primes")
    common(p)
    p.add_argument("-p", dest="primes", action="append", default=[],
                   metavar="Q[:INDEX]",
                   help="rational prime with optional ideal index, 3 times")
    p = sub.add_parser("search", help="enumerate admissible prime triples "
                       "over three distinct rational primes")
    common(p)
    p.add_argument("-B", "--norm-bound", type=int, default=50)
    p = sub.add_parser("toralg-sweep",
                       help="synthetic cohomology torsion law sweep")
    common(p, needs_field=False)
    p.add_argument("--slow", action="store_true",
                   help="extend the sweep by one more prime")
    return parser


def _cache_dir(args):
    """The pathlib.Path of --cache-dir, else of $ORDIST_CACHE; None with
    --no-cache or an empty directory name.  pathlib loads only here,
    when there is a cache."""
    root = args.cache_dir
    if root is None:
        root = os.environ.get("ORDIST_CACHE")
    if args.no_cache or not root:
        return None
    import pathlib
    return pathlib.Path(root)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return

    def walk(prefix, val):
        if isinstance(val, dict):
            for k in sorted(val, key=str):
                yield from walk(f"{prefix}{k}." if prefix else f"{k}.",
                                val[k])
        else:
            yield f"{prefix.rstrip('.')}: {json.dumps(val)}"

    for line in walk("", payload):
        print(line)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    started = time.monotonic_ns()
    args = None
    try:
        args = _build_parser().parse_args(argv)
        cache = Cache(_cache_dir(args), args.verbose)
        if getattr(args, "norm_bound", 0) < 0:
            raise UsageError("norm bound must not be negative")
        if args.command == "certify" and len(args.primes) != 3:
            raise UsageError("certify needs exactly three -p primes")
        K = make_field(args.d) if args.command != "toralg-sweep" else None
        result = _COMMANDS[args.command](args, K, cache)
    except OrdistError as exc:
        print(f"ordist: {exc.prefix}{exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # the traceback keeps the command's frames, and all they hold,
        # alive; drop it before anything is printed
        exc.__traceback__ = None
        command = args.command if args else "argument parsing"
        print(f"ordist: {command} ran out of memory", file=sys.stderr)
        return 5
    timing = (time.monotonic_ns() - started) // 1_000_000
    payload = {
        "schema": SCHEMA,
        "command": argv,
        "field": _field_block(K) if K is not None else {},
        "result": result,
        "timing_ms": int(timing),
    }
    try:
        _emit(payload, args.fmt)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; devnull takes the interpreter's final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("ordist: standard output closed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
