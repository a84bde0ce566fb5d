import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordist.cli as cli
import ordist.distribution as distribution
import ordist.rayclass as rayclass
from ordist.distribution import OracleMismatch


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_field_report(capsys):
    code, doc = run(capsys, "field", "-d", "7")
    assert code == 0
    assert doc["schema"] == "ordist/1"
    assert doc["result"] == {"disc": -7, "w": 2, "h": 1}
    assert doc["command"] == ["field", "-d", "7"]


def test_field_text_format(capsys):
    code, out = run(capsys, "field", "-d", "7", "--format", "text")
    assert code == 0
    assert "result.disc: -7" in out
    assert "schema: \"ordist/1\"" in out


def test_usage_errors(capsys):
    assert cli.main(["field"]) == 1
    assert cli.main(["torsion", "-d", "7", "-m", "x:7"]) == 1
    assert cli.main(["torsion", "-d", "7", "-m", "p:7:9"]) == 1
    assert cli.main(["certify", "-d", "7", "-p", "7", "-p", "11"]) == 1
    assert cli.main(["field", "-d", "0"]) == 1
    assert cli.main(["nonsense"]) == 1
    capsys.readouterr()


# moduli far above the norm bound: refused at once, before a primality
# test (slow past 3.2e23) or a walk of 10^6 + 1 divisors, and with no
# norm printed past Python's 4,300-digit limit
HUGE_MODULI = {
    "prime-above-mr-bound": (
        ("torsion", "-m", "p:10000000000000000000000000000057"),
        "norm 10000000000000000000000000000057 exceeds 1000000"),
    "prime-of-4300-digits": (("rayclass", "-m", "p:" + "9" * 4300),
                             "norm exceeds 1000000"),
    "exponent-torsion": (("torsion", "-m", "p:2:0:1000000"),
                         "norm exceeds 1000000"),
    "exponent-rayclass": (("rayclass", "-m", "p:2:0:1000000"),
                          "norm exceeds 1000000"),
}


@pytest.mark.parametrize("name", list(HUGE_MODULI))
def test_huge_modulus_exits_one_at_once(name):
    argv, message = HUGE_MODULI[name]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ordist.cli", argv[0], "-d", "7", *argv[1:],
         "--no-cache"], capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"ordist: {message}\n"


# d above the same bound: refused before the squarefree test, which
# trial-divides up to sqrt(d), and the reduced forms, O(d)


@pytest.mark.parametrize("argv", [
    ("field", "-d", "999999999999999989"),
    ("field", "-d", "1000000007"),
    ("rayclass", "-d", "10000019", "-m", "p:3"),
], ids=["prime-near-1e18", "prime-near-1e9", "rayclass"])
def test_huge_d_exits_one_at_once(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "ordist.cli", *argv, "--no-cache"],
        capture_output=True, text=True, env=_child_env(), timeout=10)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"ordist: d = {argv[2]} exceeds 1000000\n"


def test_search_norm_bound_may_be_zero_but_not_negative(capsys):
    code, doc = run(capsys, "search", "-d", "7", "-B", "0")
    assert code == 0
    assert (doc["result"]["count"], doc["result"]["triples"]) == (0, [])
    assert cli.main(["search", "-d", "7", "-B", "-1"]) == 1
    assert capsys.readouterr().err == \
        "ordist: norm bound must not be negative\n"


@pytest.mark.parametrize("spec, norm", [
    ("p:1000003", 1000003),  # split
    ("p:1000033", 1000033 ** 2),  # inert
    ("p:2:0:20", 2 ** 20),
    ("p:2:0:19,p:11", 2 ** 19 * 11),
])
def test_parser_refuses_a_large_norm_before_computing(
        capsys, monkeypatch, tmp_path, spec, norm):
    def boom(*a, **k):
        raise AssertionError("a refused modulus must not reach the library")

    monkeypatch.setattr(rayclass, "ray_class_group", boom)
    monkeypatch.setattr(distribution, "build_presentation", boom)
    for command in ("rayclass", "torsion"):
        code = cli.main([command, "-d", "7", "-m", spec,
                         "--cache-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"ordist: norm {norm} exceeds 1000000\n"


# the hypothesis gcd(N(m), w) = 1 comes before any computation: p2^k
# over Q(sqrt(-7)) has norm 2^k, and w = 2


def test_torsion_checks_w_before_building_the_level(capsys, monkeypatch):
    def boom(*a, **k):
        raise AssertionError("a level of norm not prime to w was built")

    monkeypatch.setattr(rayclass, "ray_class_group", boom)
    monkeypatch.setattr(distribution, "build_presentation", boom)
    code = cli.main(["torsion", "-d", "7", "-m", "p:2:0:12", "--no-cache"])
    assert code == 2
    assert capsys.readouterr().err == (
        "ordist: hypothesis failure: modulus norm 4096 shares a factor "
        "with w = 2\n")


_AS_LIMIT = 512 << 20  # bytes of address space for a child `ordist`


def _child_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def _capped_child(argv, timeout):
    """`ordist argv` in a child process whose address space is capped,
    so that a regression fails the test instead of exhausting the host."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (_AS_LIMIT, _AS_LIMIT))

    return subprocess.run([sys.executable, "-m", "ordist.cli", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          timeout=timeout, preexec_fn=cap)


@pytest.mark.parametrize("k", [15, 19])
def test_norm_not_prime_to_w_exits_two_at_once(k):
    # before the check came first, k = 15 ran 82 s and 2.6 GB, and k = 19
    # was killed at 7.8 GB
    proc = _capped_child(["torsion", "-d", "7", "-m", f"p:2:0:{k}",
                          "--no-cache"], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"ordist: hypothesis failure: modulus norm "
                           f"{2 ** k} shares a factor with w = 2\n")


# one-prime levels of large cyclic G_m: the rank over Q is counted one
# cyclic quotient at a time, with no table of size the square of a part


@pytest.mark.parametrize("spec, order", [("p:9587", 4793),
                                         ("p:11:0:4", 6655)])
def test_large_one_prime_levels_reach_full_rank(spec, order):
    proc = _capped_child(["torsion", "-d", "7", "-m", spec, "--no-cache"],
                         timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["rank"], result["torsion_invariants"]) == (order, [])


# fields of large class number: the class group is read off greedy
# generators, h ideal products each, where the product table of all
# forms took 41 s and 350 MB at h = 340 and ran out of memory at h = 1852


@pytest.mark.parametrize("d, h", [(40361, 340), (999374, 1852)])
def test_large_class_number_levels_finish(d, h):
    proc = _capped_child(["rayclass", "-d", str(d), "-m", "p:3",
                          "--no-cache"], timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["field"]["h"], doc["result"]["order"]) == (h, h)


# fork and execv from a small process, so that ru_maxrss is the child's
_SPAWN = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.executable, [sys.executable, "-m", "ordist.cli",
                              *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss // 1024, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("ORDIST_SLOW"),
                    reason="#G_m = 73205, ORDIST_SLOW=1")
def test_level_of_order_73205_fits_in_300_mb():
    # p11^5: G_m = Z/73205; the q^a x q^a table of the count mod p ended
    # in a MemoryError here
    proc = subprocess.run(
        [sys.executable, "-c", _SPAWN, "torsion", "-d", "7", "-m",
         "p:11:0:5", "--no-cache"],
        capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert (result["rank"], result["torsion_invariants"]) == (73205, [])
    assert int(proc.stderr.splitlines()[-1]) < 300, proc.stderr


def test_certify_negative_control_exits_two(capsys):
    code = cli.main(["certify", "-d", "5", "-p", "3", "-p", "7", "-p", "11"])
    assert code == 2
    capsys.readouterr()


def test_torsion_pair_report(capsys, tmp_path):
    code, doc = run(capsys, "torsion", "-d", "7", "-m", "p:7,p:11",
                    "--cache-dir", str(tmp_path))
    assert code == 0
    r = doc["result"]
    assert r["generators"] == 39
    assert r["relations"] == 10
    assert r["rank"] == 30
    assert r["torsion_invariants"] == []
    assert r["borne"] == 1


def test_cache_hit_is_bytes_stable_and_skips_compute(
        capsys, tmp_path, monkeypatch):
    argv = ["torsion", "-d", "7", "-m", "p:7,p:11",
            "--cache-dir", str(tmp_path)]
    code, first = run(capsys, *argv)
    assert code == 0
    key = cli._cache_key("torsion", 7, first["result"]["modulus"])
    assert (tmp_path / key / "manifest.json").exists()

    def boom(*a, **k):
        raise AssertionError("cache hit must not rebuild")

    monkeypatch.setattr(distribution, "build_presentation", boom)
    code, second = run(capsys, *argv)
    assert code == 0
    first.pop("timing_ms"), second.pop("timing_ms")
    assert first == second


def test_truncated_manifest_is_a_miss(capsys, tmp_path):
    argv = ["torsion", "-d", "7", "-m", "p:7,p:11",
            "--cache-dir", str(tmp_path)]
    code, cold = run(capsys, *argv)
    assert code == 0
    cold.pop("timing_ms")
    manifest = tmp_path / cli._cache_key(
        "torsion", 7, cold["result"]["modulus"]) / "manifest.json"
    text = manifest.read_text()
    for bad in (text[:len(text) // 2], "[1, 2]", '{"schema": "ordist/1"}'):
        manifest.write_text(bad)
        code, again = run(capsys, *argv)
        assert code == 0
        again.pop("timing_ms")
        assert again == cold
        # the recomputation overwrote the bad entry
        assert json.loads(manifest.read_text())["result"] == cold["result"]


def test_reordered_spec_hits_the_same_entry(capsys, tmp_path, monkeypatch):
    base = ["-d", "7", "--cache-dir", str(tmp_path)]
    code, first = run(capsys, "torsion", "-m", "p:23:0,p:29:0", *base)
    assert code == 0
    code, ray = run(capsys, "rayclass", "-m", "p:11,p:23", *base)
    assert code == 0

    def boom(*a, **k):
        raise AssertionError("cache hit must not recompute")

    monkeypatch.setattr(distribution, "build_presentation", boom)
    monkeypatch.setattr(rayclass, "ray_class_group", boom)
    code, second = run(capsys, "torsion", "-m", "p:29:0,p:23:0", *base)
    assert code == 0
    assert second["result"] == first["result"]
    code, ray2 = run(capsys, "rayclass", "-m", "p:23:0,p:11:0", *base)
    assert code == 0
    assert ray2["result"] == ray["result"]


def test_reordered_certify_primes_hit_the_same_entry(
        capsys, tmp_path, monkeypatch):
    base = ["-d", "7", "--cache-dir", str(tmp_path), "-v"]
    code, first = run(capsys, "certify", "-p", "7", "-p", "11", "-p", "23",
                      *base)
    assert code == 0

    def boom(*a, **k):
        raise AssertionError("cache hit must not recompute")

    monkeypatch.setattr(distribution, "torsex_certificate", boom)
    code = cli.main(["certify", "-p", "23", "-p", "11", "-p", "7", *base])
    out = capsys.readouterr()
    assert code == 0
    assert "cache hit" in out.err
    second = json.loads(out.out)["result"]
    assert second["primes"] == [23, 11, 7]
    assert {**second, "primes": [7, 11, 23]} == first["result"]
    assert len([e for e in tmp_path.iterdir() if e.is_dir()]) == 1


def test_cache_env_var_and_no_cache(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ORDIST_CACHE", str(tmp_path / "envcache"))
    code, _ = run(capsys, "rayclass", "-d", "7", "-m", "p:11")
    assert code == 0
    assert (tmp_path / "envcache").exists()
    monkeypatch.setenv("ORDIST_CACHE", str(tmp_path / "nocache"))
    code, _ = run(capsys, "rayclass", "-d", "7", "-m", "p:11", "--no-cache")
    assert code == 0
    assert not (tmp_path / "nocache").exists()


def test_empty_cache_dir_means_no_cache(capsys, tmp_path, monkeypatch):
    # like an empty ORDIST_CACHE, and not a cache in the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ORDIST_CACHE", str(tmp_path / "envcache"))
    code, _ = run(capsys, "torsion", "-d", "7", "-m", "p:11",
                  "--cache-dir", "")
    assert code == 0
    monkeypatch.setenv("ORDIST_CACHE", "")
    code, _ = run(capsys, "rayclass", "-d", "7", "-m", "p:11")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


# a cache entry is one manifest: the header and the result, nothing else

ENTRY_KEYS = {"schema", "version", "command", "d", "spec", "result"}
ENTRY_CALLS = {
    "torsion": (["torsion", "-d", "7", "-m", "p:7,p:11"],
                distribution, "build_presentation"),
    "rayclass": (["rayclass", "-d", "7", "-m", "p:11,p:23"],
                 rayclass, "ray_class_group"),
    "certify": (["certify", "-d", "7", "-p", "7", "-p", "11", "-p", "23"],
                distribution, "torsex_certificate"),
}


def _boom(*a, **k):
    raise AssertionError("cache hit must not recompute")


@pytest.mark.parametrize("command", list(ENTRY_CALLS))
def test_cache_entry_is_one_manifest_and_a_hit_returns_it(
        capsys, tmp_path, monkeypatch, command):
    argv, module, compute = ENTRY_CALLS[command]
    code, cold = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    (entry,) = [e for e in tmp_path.iterdir() if e.is_dir()]
    assert [f.name for f in entry.iterdir()] == ["manifest.json"]
    manifest = json.loads((entry / "manifest.json").read_text())
    assert set(manifest) == ENTRY_KEYS
    assert (manifest["schema"], manifest["command"], manifest["d"]) == \
        ("ordist/1", command, 7)
    assert manifest["result"] == cold["result"]
    monkeypatch.setattr(module, compute, _boom)
    code, hit = run(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert hit["result"] == cold["result"]


@pytest.mark.parametrize("command", list(ENTRY_CALLS))
def test_entry_whose_result_is_no_object_is_a_miss(capsys, tmp_path,
                                                   command):
    # the edited entry is recomputed and overwritten by a child `ordist`:
    # exit 0, the cold report, no traceback
    argv = [*ENTRY_CALLS[command][0], "--cache-dir", str(tmp_path)]
    code, cold = run(capsys, *argv)
    assert code == 0
    (manifest,) = tmp_path.glob("*/manifest.json")
    entry = json.loads(manifest.read_text())
    entry["result"] = [1]
    manifest.write_text(json.dumps(entry))
    r = subprocess.run([sys.executable, "-m", "ordist.cli", *argv],
                       capture_output=True, text=True, env=_child_env(),
                       timeout=120)
    assert r.returncode == 0 and "Traceback" not in r.stderr, r.stderr
    again = json.loads(r.stdout)
    cold.pop("timing_ms"), again.pop("timing_ms")
    assert again == cold
    assert json.loads(manifest.read_text())["result"] == cold["result"]


def test_entry_in_the_older_layout_still_hits(
        capsys, tmp_path, monkeypatch):
    # entries once also held the field, the ray class tables and the
    # transform's scale, beside the relation matrix and the heads as
    # .mat files (here as they were written); a lookup reads only the
    # result
    argv = ["torsion", "-d", "7", "-m", "p:11", "--cache-dir", str(tmp_path)]
    code, cold = run(capsys, *argv)
    assert code == 0
    entry = tmp_path / cli._cache_key("torsion", 7, cold["result"]["modulus"])
    manifest = json.loads((entry / "manifest.json").read_text())
    manifest.update(field={"disc": -7, "h": 1, "w": 2},
                    levels=[{"label": "(1)", "invariant_factors": []},
                            {"label": "p:11:0", "invariant_factors": [5]}],
                    transform_scale=5)
    (entry / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2))
    (entry / "relations.mat").write_text(
        "1 6 5\n1:-1 2:-1 3:-1 4:-1 5:-1\n")
    (entry / "heads.mat").write_text(
        "2 5 10\n0:5 1:5 2:5 3:5 4:5\n0:4 1:-1 2:-1 3:-1 4:-1\n")
    monkeypatch.setattr(distribution, "build_presentation", _boom)
    code, hit = run(capsys, *argv)
    assert code == 0
    assert hit["result"] == cold["result"]


def test_search_report(capsys):
    code, doc = run(capsys, "search", "-d", "7", "-B", "25")
    assert code == 0
    assert doc["result"]["count"] == 4
    assert ["q:7", "p:11:0", "p:23:0"] in doc["result"]["triples"]


def test_certify_admits_a_conjugate_pair_that_search_leaves_out(capsys):
    # both primes over 11 and one over 23 pass the certificate, but the
    # search lists triples over three distinct rational primes only
    code, doc = run(capsys, "certify", "-d", "7", "-p", "11:0", "-p",
                    "11:1", "-p", "23", "--no-cache")
    assert (code, doc["result"]["conclusion"]) == (0, True)
    code, doc = run(capsys, "search", "-d", "7", "-B", "23", "--no-cache")
    assert code == 0
    triples = doc["result"]["triples"]
    assert ["p:11:0", "p:11:1", "p:23:0"] not in triples
    assert len(triples) == 4
    assert all(len({s.split(":")[1] for s in t}) == 3 for t in triples)


def test_search_negative_control_empty(capsys):
    code, doc = run(capsys, "search", "-d", "5", "-B", "100")
    assert code == 0
    assert doc["result"]["count"] == 0
    assert doc["result"]["triples"] == []


def test_toralg_sweep(capsys):
    code, doc = run(capsys, "toralg-sweep")
    assert code == 0
    assert all(s["law_holds"] for s in doc["result"]["sweeps"])
    assert {s["ell"] for s in doc["result"]["sweeps"]} == {2, 3}


def test_oracle_mismatch_exits_three(capsys, monkeypatch):
    def boom(P):
        raise OracleMismatch("forced")

    monkeypatch.setattr(distribution, "level_torsion", boom)
    code = cli.main(["torsion", "-d", "7", "-m", "p:11"])
    assert code == 3
    capsys.readouterr()


def test_cache_dir_that_is_a_file_exits_four(capsys, tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("")
    code = cli.main(["torsion", "-d", "23", "-m", "p:3,p:13",
                     "--cache-dir", str(blocker)])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"ordist: cache {blocker}: ")
    assert captured.err.count("\n") == 1


def test_closed_stdout_pipe_exits_four():
    # the read end is closed before the child starts, so its first write
    # to standard output fails with EPIPE
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ordist.cli", "field", "-d", "7",
             "--no-cache"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env,
            timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 4
    assert proc.stderr == "ordist: standard output closed\n"


def test_reports_contain_no_floats(capsys, tmp_path):
    for argv in (["field", "-d", "7"],
                 ["rayclass", "-d", "7", "-m", "p:7"],
                 ["torsion", "-d", "7", "-m", "p:7,p:23", "--cache-dir",
                  str(tmp_path)],
                 ["search", "-d", "7", "-B", "25"]):
        code, doc = run(capsys, *argv)
        assert code == 0

        def walk(v):
            if isinstance(v, float):
                raise AssertionError(f"float {v} in report for {argv}")
            if isinstance(v, dict):
                for x in v.values():
                    walk(x)
            if isinstance(v, list):
                for x in v:
                    walk(x)

        walk(doc)


def test_invariant_factors_in_divisibility_order(capsys):
    code, doc = run(capsys, "rayclass", "-d", "15", "-m", "p:19,p:31")
    assert code == 0
    inv = doc["result"]["invariant_factors"]
    assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
    assert len(inv) >= 2  # this group is not cyclic
