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
    assert (tmp_path / key / "relations.mat").exists()
    assert (tmp_path / key / "heads.mat").exists()

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


def test_cached_matrices_are_readable(capsys, tmp_path):
    from matrix_text import from_text

    argv = ["torsion", "-d", "7", "-m", "p:11", "--cache-dir",
            str(tmp_path)]
    code, doc = run(capsys, *argv)
    assert code == 0
    key = cli._cache_key("torsion", 7, doc["result"]["modulus"])
    rel = from_text((tmp_path / key / "relations.mat").read_text())
    assert rel.rows == doc["result"]["relations"]
    assert rel.cols == doc["result"]["generators"]
    # one head per divisor of p11, over G_m
    heads = from_text((tmp_path / key / "heads.mat").read_text())
    assert (heads.rows, heads.cols) == (2, doc["result"]["rank"])


def test_search_report(capsys):
    code, doc = run(capsys, "search", "-d", "7", "-B", "25")
    assert code == 0
    assert doc["result"]["count"] == 4
    assert ["q:7", "p:11:0", "p:23:0"] in doc["result"]["triples"]


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
