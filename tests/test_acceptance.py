"""Acceptance gate: one test, hence one verbose pass/fail line, per
published claim the package must reproduce exactly.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import prime_above
from ordist.cohomology import SylowFrameSynthetic, sweep_torsion_law, \
    verify_tor_h2
import tuple_presentation as tp
from dense_transform import iwasawa_matrix, modular_rank
from ordist.distribution import (
    build_presentation,
    level_torsion,
    torsion_bound,
)
from ordist.groupring import gal_h_quotient_torsion, trace_ideal_quotient
from ordist.quadfield import Modulus, make_field
from ordist.rayclass import Subgroup, ray_class_group
from ordist.zlinalg import IntMatrix, cokernel


def modulus_of(K, *qs):
    return Modulus(K, tuple((prime_above(K, q), 1) for q in qs))


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "ordist.cli", *argv],
        capture_output=True, text=True, timeout=300)


def test_criterion_1_torsex_reproduction():
    # cold subprocesses so the < 60 s budget includes every stage
    started = time.time()
    r = run_cli("torsion", "-d", "7", "-m", "p:7,p:11:0,p:23:0",
                "--no-cache")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["result"]["torsion_invariants"] == [2]
    assert doc["result"]["generators"] == 886
    assert doc["result"]["relations"] == 247
    r = run_cli("certify", "-d", "7", "-p", "7", "-p", "11", "-p", "23",
                "--no-cache")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["result"]["in_kernel"] is True
    assert doc["result"]["nu_R"] == 165
    assert doc["result"]["nu_odd"] is True
    assert doc["result"]["nu_parity_of_U"] is True
    assert doc["result"]["conclusion"] is True
    elapsed = time.time() - started
    assert elapsed < 60, f"{elapsed:.1f}s"
    print(f"criterion 1 torsex reproduction: PASS ({elapsed:.1f}s)")


def test_criterion_2_parity_law(field7, triple7):
    started = time.time()
    G7 = triple7.ray(triple7.modulus)
    for qs in ((7,), (11,), (23,), (7, 11), (7, 23), (11, 23)):
        n = modulus_of(field7, *qs)
        assert gal_h_quotient_torsion(G7, n).is_trivial, qs
    assert gal_h_quotient_torsion(
        G7, triple7.modulus).invariant_factors == (2,)
    K3 = make_field(3)
    m3 = modulus_of(K3, 7, 13, 19)
    G3 = ray_class_group(K3, m3)
    assert gal_h_quotient_torsion(G3, m3).invariant_factors == (6,)
    elapsed = time.time() - started
    assert elapsed < 120, f"{elapsed:.1f}s"
    print(f"criterion 2 parity law: PASS ({elapsed:.1f}s)")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("ORDIST_SLOW"),
                    reason="four-prime number-field case, ORDIST_SLOW=1")
def test_criterion_2_slow_four_prime_level():
    K3 = make_field(3)
    m4 = modulus_of(K3, 7, 13, 19, 31)
    G4 = ray_class_group(K3, m4)
    assert gal_h_quotient_torsion(G4, m4).is_trivial
    print("criterion 2 (slow) four-prime parity: PASS")


def test_criterion_3_bound_suite(triple7):
    cases = [(7, (11,)), (7, (23,)), (7, (11, 23)), (15, (19,)),
             (15, (19, 31)), (23, (3,)), (23, (3, 13)), (7, (7, 11))]
    checked = 0
    for d, qs in cases:
        K = make_field(d)
        P = build_presentation(K, modulus_of(K, *qs))
        tor = level_torsion(P)
        product, borne = torsion_bound(P)
        assert product % tor.exponent == 0
        assert borne % tor.order == 0
        for ell in (3, 5, 7, 11):
            if K.w_K % ell:
                assert tor.order % ell or tor.order == 1
        checked += 1
    tor = level_torsion(triple7)
    product, borne = torsion_bound(triple7)
    assert (product, borne) == (2, 2) and tor.order == 2
    checked += 1
    assert checked >= 6
    print(f"criterion 3 bounds: PASS ({checked} (field, modulus) pairs)")


def test_criterion_4_rank_identities(field7, triple7):
    # free rank of the presentation quotient
    P = triple7
    quot = cokernel(P.relations, P.n_gens)
    assert quot.rank == P.ray(P.modulus).group.order == 660

    # inclusion-exclusion for the trace ideal quotient, with the
    # subgroup generated by the inertia groups computed as an honest
    # subgroup product (the inertias intersect, so naive order
    # products would overcount)
    for d, qs in ((7, (7, 11)), (7, (11, 23)), (7, (7, 11, 23)),
                  (15, (19, 31)), (23, (3, 13))):
        K = make_field(d)
        n = modulus_of(K, *qs)
        G = ray_class_group(K, n)
        want = 0
        prs = [p for p, _ in n.primes]
        for k in range(len(prs) + 1):
            for S in itertools.combinations(prs, k):
                span = Subgroup.generated(G.group, [])
                for p in S:
                    span = span.product(G.inertia(p))
                want += (-1) ** k * (G.group.order // span.order)
        got, _ = trace_ideal_quotient(G)
        assert got.rank == want, (d, qs, got.rank, want)

    # divisor blocks of the transform span lattices of rank #G_n
    F, _ = iwasawa_matrix(P)
    for n in P.levels:
        cols = [j for j, (u, _) in enumerate(tp.gen_index(P))
                if u.divides(n)]
        block = IntMatrix(
            [[row[j] for j in cols] for row in F.entries], len(cols))
        assert modular_rank(block) == P.ray(n).group.order
    print("criterion 4 rank identities: PASS")


def test_criterion_5_synthetic_sweep():
    started = time.time()
    for ell in (2, 3):
        records = sweep_torsion_law(ell, 4)
        assert all(r["law_holds"] for r in records)
        assert {r["m"] for r in records} == {1, 2, 3, 4}
    import math

    for ell in (2, 3):
        for m in (2, 3):
            shapes = {tuple(sorted(c, reverse=True)) for c in
                      itertools.product((ell, ell * ell), repeat=m)}
            for shape in sorted(shapes):
                if math.prod(shape) > 243:
                    continue  # keeps the whole gate inside the budget
                frame = SylowFrameSynthetic(ell, shape, 1)
                for k in range(m):
                    for subset in itertools.combinations(range(1, m), k):
                        assert verify_tor_h2(frame, list(subset))
    elapsed = time.time() - started
    assert elapsed < 10, f"{elapsed:.1f}s"
    print(f"criterion 5 synthetic sweep: PASS ({elapsed:.1f}s)")


def test_criterion_6_dual_oracle_agreement(field7, triple7):
    # level_torsion raises OracleMismatch whenever its two independent
    # computations disagree, so surviving the calls is the check
    levels = [(7, ()), (7, (7,)), (7, (11,)), (7, (23,)), (7, (7, 11)),
              (7, (7, 23)), (7, (11, 23)), (15, (19,)), (15, (19, 31)),
              (23, (3,))]
    for d, qs in levels:
        K = make_field(d)
        level_torsion(build_presentation(K, modulus_of(K, *qs)))
    assert level_torsion(triple7).invariant_factors == (2,)
    print(f"criterion 6 dual oracle: PASS ({len(levels) + 1} levels)")


def test_criterion_7_arithmetic_substrate():
    assert make_field(7).h == 1 and make_field(7).disc == -7
    assert make_field(23).h == 3 and make_field(23).disc == -23
    assert make_field(3).w_K == 6 and make_field(3).disc == -3
    assert make_field(1).w_K == 4 and make_field(1).disc == -4
    print("criterion 7 substrate: PASS")


def test_criterion_8_negative_control():
    from ordist.quadfield import search_torsex

    assert search_torsex(make_field(5), 100) == []
    r = run_cli("certify", "-d", "5", "-p", "3", "-p", "7", "-p", "11")
    assert r.returncode == 2
    assert "hypothesis" in r.stderr
    print("criterion 8 negative control: PASS")
