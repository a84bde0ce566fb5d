"""Benchmark of ordist through its public entry points.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload headline|survey|cli \
        --seed N --seconds S --trace 0|1

Every operation runs in a fresh interpreter, one at a time: the `ordist`
CLI (python3 -m ordist.cli with the checkout's src/ on PYTHONPATH) or,
for the survey, one process calling the package's exported functions.
A run repeats whole rounds of its workload while the next one should end
within S seconds (at least one round), checks every output against
values computed apart from ordist (checks.py), and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, round_s,
torsion_s, peak_rss_mb).  With --trace 1 the run first times one
untraced round, then repeats traced rounds in which tracer.py wraps the
layer boundaries; it prints per-layer metrics per traced round, names
the kernel path each level took, and writes all spans to
.bench_traces/<workload>-seed<N>.json.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from tracer import SPAN_NAMES, kernel_paths, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0  # children are killed past this, so a run ends in time
SETUP_PROBES = 3  # per round
SETUP_CODE = ("import sys, ordist.cli\n"
              "from ordist.quadfield import make_field\n"
              "for d in sys.argv[1:]:\n"
              "    make_field(int(d))\n")


@dataclass
class Op:
    """One measured operation: a CLI call, or one survey level."""

    kind: str
    label: str
    seconds: float
    ok: bool
    rss_kb: int = 0
    result: object = None
    error: str = ""


class Runner:
    """Spawns child interpreters, one at a time, inside the checkout."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.trace_files: list[Path] = []
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("ORDIST_CACHE", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self._n = 0

    def spawn(self, argv: list[str]) -> tuple[int, str, str, float, int]:
        """(exit code, stdout, stderr, wall seconds, peak RSS in KB)."""
        self._n += 1
        out_path = self.work / f"out{self._n}"
        err_path = self.work / f"err{self._n}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=self.work)

            def kill(signum, frame):
                proc.kill()

            old = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL,
                             max(0.1, self.deadline - time.perf_counter()))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text()
        stderr = err_path.read_text()
        out_path.unlink()
        err_path.unlink()
        return code, stdout, stderr, wall, usage.ru_maxrss

    def trace_file(self) -> Path:
        """A new file for one traced child to write its spans to."""
        path = self.work / f"trace{len(self.trace_files)}.json"
        self.trace_files.append(path)
        return path

    def cli(self, kind: str, args: list[str]) -> Op:
        label = " ".join("CACHE" if a.startswith(str(self.work)) else a
                         for a in args)
        if self.trace:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(self.trace_file()), label] + args
        else:
            argv = [sys.executable, "-m", "ordist.cli"] + args
        code, out, err, wall, rss = self.spawn(argv)
        if code != 0:
            tail = err.strip().splitlines()[-1:] or [f"exit {code}"]
            return Op(kind, label, wall, False, rss, error=tail[0])
        return Op(kind, label, wall, True, rss, result=json.loads(out))

    def setup_probe(self, fields) -> float:
        code, _, err, wall, _ = self.spawn(
            [sys.executable, "-c", SETUP_CODE] + [str(d) for d in fields])
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        return wall


# expected values, computed once per run outside the timed rounds

def _relation_torsion(level) -> tuple[int, ...]:
    """Torsion of ordist's relation matrix by checks.smith_torsion."""
    from ordist import Modulus, build_presentation, make_field
    d, primes = level
    K = make_field(d)
    m = Modulus(K, tuple((K.splitting_type(q)[1][i], 1) for q, i in primes))
    R = build_presentation(K, m).relations
    tor, free = checks.smith_torsion(R.entries, R.cols)
    if free != checks.ray_order(d, primes):
        # no report can match this, so every answer for the level fails
        return (f"relation matrix has free rank {free}, not |G_m|",)
    return tor


def expected_level(level, certified_torsion=None) -> dict:
    """What a torsion report must say about a level.

    Levels with at most two primes have trivial torsion; for three
    primes the torsion is the Smith form of the relation matrix, or the
    value forced by a certificate and the order bound.
    """
    d, primes = level
    gens, rels = checks.presentation_counts(d, primes)
    if len(primes) <= 2:
        tor = ()
    elif certified_torsion is not None:
        tor = certified_torsion
    else:
        tor = _relation_torsion(level)
    return {"generators": gens, "relations": rels,
            "rank": checks.ray_order(d, primes),
            "torsion": list(tor),
            "borne": checks.order_bound(d, len(primes))}


def level_mismatch(got: dict, want: dict, tor_key: str) -> str:
    """Empty when a torsion report matches its expected values."""
    for key in ("generators", "relations", "rank", "borne"):
        if got.get(key) != want[key]:
            return f"{key} {got.get(key)} != {want[key]}"
    tor = got.get(tor_key)
    if tor != want["torsion"]:
        return f"torsion {tor} != {want['torsion']}"
    order = 1
    exponent = 1
    for x in tor:
        order *= x
        exponent = max(exponent, x)
    if want["borne"] % order or got.get("product_bound", 0) % exponent:
        return f"torsion {tor} does not divide the bounds"
    return ""


# workloads: round() returns (operations, check failures, named figures,
# round seconds)

class Headline:
    fields = (7,)

    def __init__(self, seed: int):
        d, primes = inputs.HEADLINE_LEVEL
        bound = checks.order_bound(d, len(primes))
        # a verified certificate exhibits nonzero 2-torsion; with an
        # order bound of 2 the torsion is exactly Z/2
        forced = (2,) if bound == 2 else None
        self.want = expected_level(inputs.HEADLINE_LEVEL, forced)
        self.smith = _relation_torsion(inputs.HEADLINE_LEVEL)
        self.nu = checks.odd_part(self.want["rank"])

    def round(self, run: Runner, round_no: int):
        tors = run.cli("torsion", inputs.HEADLINE_TORSION)
        cert = run.cli("certify", inputs.HEADLINE_CERTIFY)
        errors = []
        if cert.ok:
            r = cert.result["result"]
            if not (r.get("conclusion") is True and r.get("in_kernel") is True
                    and r.get("nu_odd") is True
                    and r.get("nu_parity_of_U") is True
                    and r.get("nu_R") == self.nu
                    and r.get("primes") == [7, 11, 23]):
                errors.append(f"certify: {r}")
        if tors.ok:
            r = tors.result["result"]
            bad = level_mismatch(r, self.want, "torsion_invariants")
            if not bad and tuple(r["torsion_invariants"]) != self.smith:
                bad = f"torsion differs from the Smith form {self.smith}"
            if bad:
                errors.append(f"torsion: {bad}")
        figures = {"torsion_s": [tors.seconds], "certify_s": [cert.seconds]}
        return [tors, cert], errors, figures, tors.seconds + cert.seconds


class Survey:
    fields = inputs.SURVEY_FIELDS

    def __init__(self, seed: int):
        self.levels = inputs.survey_order(seed)
        self.want = {lv: expected_level(lv) for lv in self.levels}

    def round(self, run: Runner, round_no: int):
        listing = run.work / "levels.json"
        listing.write_text(json.dumps(
            [[d, [list(p) for p in primes]] for d, primes in self.levels]))
        argv = [sys.executable, str(HERE / "survey.py"), str(listing),
                str(inputs.SURVEY_DEADLINE_S)]
        if run.trace:
            argv.append(str(run.trace_file()))
        code, out, err, wall, rss = run.spawn(argv)
        ops, errors = [], []
        records = json.loads(out) if code == 0 else []
        if code != 0:
            errors.append(f"survey process exited {code}: {err.strip()}")
        done = {}
        for rec in records:
            level = (rec["d"], tuple(tuple(p) for p in rec["primes"]))
            done[level] = rec
        for level in self.levels:
            rec = done.get(level)
            label = f"d={level[0]} m={inputs.spec(level[1])}"
            if rec is None or not rec["ok"]:
                why = rec["error"] if rec else "not run"
                ops.append(Op("level", label, 0.0, False, rss, error=why))
                continue
            ops.append(Op("level", label, rec["seconds"], True, rss, rec))
            bad = level_mismatch(rec, self.want[level], "torsion")
            if bad:
                errors.append(f"{label}: {bad}")
        done_s = [op.seconds for op in ops if op.ok]
        figures = {"survey_levels_per_s": [len(done_s) / wall],
                   "survey_s": [wall],
                   # the mean level of the round: tiny levels dominate a
                   # per-level median, which then follows host noise
                   "torsion_s": [sum(done_s) / max(1, len(done_s))]}
        return ops, errors, figures, wall


class Cli:
    fields = inputs.CLI_FIELDS

    def __init__(self, seed: int):
        self.seed = seed
        self.want = {lv: expected_level(lv) for lv in inputs.CACHE_LEVELS}
        d, primes = inputs.CLI_RAYCLASS_LEVEL
        self.ray_order = checks.ray_order(d, primes)
        self.inertia = sorted(
            self.ray_order // checks.ray_order(d, tuple(
                p for p in primes if p != q)) for q in primes)
        self.search = checks.search_count(15, 80)
        self.cases = checks.sweep_cases(4)
        self.field = {"disc": checks.disc(7),
                      "h": checks.class_number(checks.disc(7)),
                      "w": checks.unit_count(7)}

    def _check_cold(self, op: Op) -> str:
        r = op.result["result"]
        if op.kind == "field":
            return "" if r == self.field else f"{r}"
        if op.kind == "rayclass":
            prod = 1
            for x in r.get("invariant_factors", []):
                prod *= x
            ok = (r.get("order") == self.ray_order == prod
                  and r.get("norm") == 11 * 23
                  and sorted(r.get("inertia_orders", {}).values())
                  == self.inertia)
            return "" if ok else f"{r}"
        if op.kind == "search":
            ok = r.get("count") == self.search == len(r.get("triples", []))
            return "" if ok else f"count {r.get('count')} != {self.search}"
        sweeps = r.get("sweeps", [])
        ok = (r.get("max_primes") == 4
              and [s.get("ell") for s in sweeps] == [2, 3]
              and all(s.get("cases") == self.cases and s.get("law_holds")
                      is True for s in sweeps))
        return "" if ok else f"{r}"

    def round(self, run: Runner, round_no: int):
        cache = run.work / f"cache{round_no}"
        ops, errors = [], []
        for kind, args in (("field", inputs.CLI_FIELD),
                           ("rayclass", inputs.CLI_RAYCLASS),
                           ("search", inputs.CLI_SEARCH),
                           ("sweep", inputs.CLI_SWEEP)):
            op = run.cli(kind, args)
            ops.append(op)
            if op.ok and (bad := self._check_cold(op)):
                errors.append(f"{kind}: {bad}")
        fill_order, repeat_order = inputs.cache_order(self.seed, round_no)
        filled = {}
        for level in fill_order:
            before = self._files(cache)
            op = run.cli("fill", inputs.torsion_args(level, cache))
            ops.append(op)
            if level == inputs.CACHE_TRUNCATED:
                written = self._files(cache) - before
            if op.ok:
                filled[level] = op.result["result"]
                bad = level_mismatch(filled[level], self.want[level],
                                     "torsion_invariants")
                if bad:
                    errors.append(f"fill {op.label}: {bad}")
        # a manifest left half written, as by a crash during a store
        manifests = [f for f in written if f.suffix == ".json"]
        if not manifests:
            errors.append("the fill pass wrote no JSON manifest to cut")
        for path in manifests:
            text = path.read_text()
            path.write_text(text[:len(text) // 2])
        for level, reverse in repeat_order:
            op = run.cli("repeat",
                         inputs.torsion_args(level, cache, reverse))
            ops.append(op)
            if op.ok and op.result["result"] != filled.get(level):
                errors.append(f"repeat {op.label}: result differs from "
                              f"the fill pass")
        cache_bytes = sum(f.stat().st_size for f in cache.rglob("*")
                          if f.is_file())
        shutil.rmtree(cache, ignore_errors=True)

        def total(kind):
            return sum(op.seconds for op in ops if op.kind == kind)

        figures = {
            "sweep_s": [total("sweep")],
            "cache_fill_s": [total("fill")],
            "cache_repeat_s": [total("repeat")],
            "torsion_s": [op.seconds for op in ops
                          if op.kind == "fill" and op.ok],
            "cache_bytes": [cache_bytes],
        }
        return ops, errors, figures, sum(op.seconds for op in ops)

    @staticmethod
    def _files(cache: Path) -> set[Path]:
        return {f for f in cache.rglob("*") if f.is_file()}


WORKLOADS = {"headline": Headline, "survey": Survey, "cli": Cli}
# figures that exist on one workload only, printed above the result line
FIGURES = {"certify_s": "s", "survey_levels_per_s": "levels/s",
           "survey_s": "s", "sweep_s": "s", "cache_fill_s": "s",
           "cache_repeat_s": "s"}


def layer_metrics(runner: Runner, rounds: int):
    """(per-layer metrics per traced round, kernel paths, all spans)."""
    spans, counters = [], {}
    for path in runner.trace_files:
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        base = len(spans)
        for s in doc["spans"]:
            if s[3] is not None:
                s[3] += base
            spans.append(s)
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
    own = self_times(spans)
    calls = {n: 0 for n in SPAN_NAMES}
    incl = {n: 0.0 for n in SPAN_NAMES}
    excl = {n: 0.0 for n in SPAN_NAMES}
    for s, t in zip(spans, own):
        calls[s[0]] += 1
        incl[s[0]] += s[2] - s[1]
        excl[s[0]] += t
    metrics = {}
    nested = {"distribution.build_presentation", "distribution.iwasawa_matrix",
              "distribution.level_torsion", "distribution.torsion_bound",
              "distribution.torsex_certificate", "cli.main"}
    for name in SPAN_NAMES:
        metrics[f"{name}_s"] = (excl[name] / rounds, "s")
        metrics[f"{name}.calls"] = (calls[name] / rounds, "count")
        if name in nested:
            metrics[f"{name}.incl_s"] = (incl[name] / rounds, "s")
    for key in ("distribution.generators", "distribution.relations",
                "distribution.transform_builds",
                "distribution.transform_cells",
                "distribution.transform_nonzero"):
        metrics[key] = (counters.get(key, 0) / rounds, "count")
    paths = kernel_paths(spans)
    for kind in ("direct", "certified", "fallback"):
        metrics[f"zlinalg.kernel_path.{kind}"] = (
            sum(p == kind for _, p in paths) / rounds, "count")
    lookups = calls["cli.cache_load"] - counters.get("cli.cache_bypassed", 0)
    metrics["cli.cache_hit_ratio"] = (
        counters.get("cli.cache_hits", 0) / lookups if lookups else 0.0,
        "ratio")
    metrics["trace.spans"] = (len(spans) / rounds, "count")
    return metrics, paths, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ordist" / "cli.py").is_file():
        print(f"perfbench: no ordist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    cls = WORKLOADS[args.workload]
    runner = Runner(work, trace=False)
    workload = cls(args.seed)
    setups = []

    ops, errors, rounds, figures = [], [], [], {}

    def one_round(round_no):
        r_ops, r_errors, r_figures, seconds = workload.round(runner,
                                                             round_no)
        ops.extend(r_ops)
        errors.extend(r_errors)
        for k, v in r_figures.items():
            figures.setdefault(k, []).extend(v)
        return seconds, r_ops

    untraced = None
    if args.trace:
        untraced, _ = one_round(0)
        runner.trace = True
    start = time.perf_counter()
    peak_kb = 0
    while True:
        if not args.trace:
            # spread the set-up probes over the run, a few per round
            setups.extend(runner.setup_probe(cls.fields)
                          for _ in range(SETUP_PROBES))
        seconds, r_ops = one_round(len(rounds) + 1)
        rounds.append(seconds)
        peak_kb = max([peak_kb] + [op.rss_kb for op in r_ops])
        # start another round only if it should end within the run
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    for e in errors:
        print(f"check failed: {e}")
    for op in ops:
        if not op.ok:
            print(f"failed: {op.label}: {op.error}")
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} "
          f"round(s), {len(ops)} operations, "
          f"{sum(not op.ok for op in ops)} failed")

    if args.trace:
        metrics, paths, spans = layer_metrics(runner, len(rounds))
        traced = statistics.median(rounds)
        metrics["trace.round_s"] = (traced, "s")
        metrics["trace.untraced_round_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["cli.cache_bytes"] = (
            statistics.median(figures.get("cache_bytes", [0])), "bytes")
        for op, path in dict.fromkeys(paths):
            if path != "reused":
                print(f"kernel path {path}: {op}")
        trace_dir = ROOT / ".bench_traces"
        trace_dir.mkdir(exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed,
                        "rounds": len(rounds),
                        "fields": ["name", "start", "end", "parent", "op"],
                        "spans": spans}))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "round_s": (statistics.median(rounds), "s"),
            "torsion_s": (statistics.median(figures["torsion_s"]), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }
        for key, unit in FIGURES.items():
            if key in figures:
                print(f"{key} = {statistics.median(figures[key]):.6g} {unit}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
