"""Work counts: how many Smith passes a call makes.

Each coordinate or solve comes from the elimination that already found
its lattice, so the number of dense Smith passes of a call does not
grow with the number of vectors it reads.  The counter wraps
zlinalg._snf_core, the one dense elimination.
"""

import pytest

import ordist.zlinalg as zl
from ordist.cohomology import (
    SylowFrameSynthetic,
    build_lambda_quotients,
    dimension_shift,
    tate_cyclic,
)
from ordist.quadfield import Modulus, _is_prime, make_field
from ordist.rayclass import RayClassGroup


@pytest.fixture
def passes(monkeypatch):
    """The Smith pass count since the fixture was set up."""
    count = [0]
    core = zl._snf_core

    def counting(*args, **kwargs):
        count[0] += 1
        return core(*args, **kwargs)

    monkeypatch.setattr(zl, "_snf_core", counting)
    return count


def _plain(g, r, subset):
    plain, _ = build_lambda_quotients(SylowFrameSynthetic(3, g, r), subset)
    return plain


def test_tate_group_takes_a_fixed_number_of_passes(passes):
    # the rank-216 plain quotient of the (9, 9, 3), r = 0 frame: one
    # pass per kernel vector would make over 200
    plain = _plain((9, 9, 3), 0, (1,))
    assert plain.module.invariant_factors == (0,) * 216
    passes[0] = 0
    assert tate_cyclic(plain, "even").is_trivial
    assert passes[0] <= 6


def test_dimension_shift_takes_a_fixed_number_of_passes(passes):
    plain = _plain((9, 9, 3), 1, (1,))
    passes[0] = 0
    shifted = dimension_shift(plain)
    assert passes[0] <= 3
    assert shifted.module.rank == (plain.order - 1) * plain.module.rank


def test_artin_takes_no_pass_once_the_group_is_built(passes):
    K = make_field(161)
    n = Modulus(K, tuple((K.splitting_type(q)[1][0], 1) for q in (5, 11)))
    G = RayClassGroup(K, n)
    primes = [P for q in range(2, 100) if _is_prime(q)
              for P in K.splitting_type(q)[1]
              if P.norm() == q and P.is_coprime(n.ideal)][:15]
    assert len(primes) == 15
    passes[0] = 0
    for P in primes:
        G.artin(P)
    assert passes[0] == 0
