"""Value semantics of the package's immutable classes.

Each class is built twice from equal values, by keyword with its field
names (the second time in another form where the constructor
normalizes one, such as the primes of a modulus in another order), and
once with one field changed.  Equal values compare and hash equal, the
changed one compares unequal, a foreign class is not comparable, and no
attribute can be assigned or deleted.
"""

import pytest

from ordist.cohomology import CyclicModule, SylowFrameSynthetic
from ordist.distribution import TorsionCertificate
from ordist.groupring import GroupRingElt
from ordist.quadfield import Modulus, OIdeal, make_field
from ordist.rayclass import GaloisOverH, Subgroup, galois_over_h, \
    ray_class_group
from ordist.zlinalg import AbGroup, AbHom, CSRMatrix, IntMatrix

K = make_field(7)
P7 = K.splitting_type(7)[1][0]
P11, P11B = K.splitting_type(11)[1]
C3, C4 = AbGroup((3,)), AbGroup((4,))
T3 = AbHom(C3, C3, ((2,),))


def _galois_fields() -> dict:
    P23 = K.splitting_type(23)[1][0]
    fr = galois_over_h(ray_class_group(
        K, Modulus(K, ((P7, 1), (P11, 1), (P23, 1)))), 2)
    names = ("ray", "ell", "r", "primes", "gamma", "g_prime", "g_ell",
             "inertia_ell", "g", "taus", "j")
    return {name: getattr(fr, name) for name in names}


# class, its fields by keyword, an equal second form, one field changed,
# hashable
CASES = {
    "OIdeal": (OIdeal, lambda: dict(field=K, content=1, a=11, b=P11.b),
               {}, {"b": P11B.b}, True),
    "Modulus": (Modulus, lambda: dict(field=K, primes=((P7, 2), (P11, 1))),
                {"primes": ((P11, 1), (P7, 2))},
                {"primes": ((P7, 1), (P11, 1))}, True),
    "IntMatrix": (IntMatrix, lambda: dict(entries=((1, 2), (3, 4)), cols=2),
                  {}, {"entries": ((1, 2), (3, 5))}, True),
    "CSRMatrix": (CSRMatrix, lambda: dict(indptr=(0, 1), indices=(1,),
                                          data=(5,), cols=3),
                  {}, {"cols": 2}, False),
    "AbGroup": (AbGroup, lambda: dict(invariant_factors=(2, 4, 0)),
                {}, {"invariant_factors": (2, 8, 0)}, True),
    "AbHom": (AbHom, lambda: dict(domain=AbGroup((2,)), codomain=C4,
                                  matrix=((2,),)),
              {}, {"matrix": ((0,),)}, True),
    "GroupRingElt": (GroupRingElt, lambda: dict(group=C3, num=(2, 4, 0),
                                                den=4),
                     {"num": [1, 2, 0], "den": 2}, {"den": 3}, False),
    "Subgroup": (Subgroup, lambda: dict(ambient=C4, mask=(1, 0, 1, 0)),
                 {"mask": b"\x01\x00\x01\x00"}, {"mask": (1, 1, 1, 1)},
                 False),
    "GaloisOverH": (GaloisOverH, _galois_fields, {}, {"r": 5}, False),
    "TorsionCertificate": (
        TorsionCertificate,
        lambda: dict(R=(1, 0, -1), in_kernel=True, nu_R=1,
                     nu_parity_of_U=True, conclusion=True),
        {}, {"nu_R": 3}, True),
    "CyclicModule": (CyclicModule, lambda: dict(module=C3, t_action=T3,
                                                order=2),
                     {}, {"order": 4}, True),
    "SylowFrameSynthetic": (SylowFrameSynthetic,
                            lambda: dict(ell=2, g=(4, 2, 2), r=1),
                            {}, {"g": (4, 4, 2)}, True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_semantics(name):
    cls, fields, same, changed, hashable = CASES[name]
    a, b = cls(**fields()), cls(**{**fields(), **same})
    other = cls(**{**fields(), **changed})
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert a.__eq__(object()) is NotImplemented and a != object()
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    for attr in fields():
        with pytest.raises(AttributeError):
            setattr(a, attr, getattr(b, attr))
        with pytest.raises(AttributeError):
            delattr(a, attr)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b
