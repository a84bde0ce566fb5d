"""The unit part of a ray class group from (O/n)^x enumerated whole.

Copy of rayclass.RayClassGroup's construction before the unit part was
assembled from prime powers: residue_units runs on the whole modulus,
its dlog dict has phi(n) entries, and the unit generators are read off
its inversion at the unit vectors.  The class part, the relation rows,
the Artin map and the subgroups are those of RayClassGroup; transitions
go to groups built the same way.  tests/test_index_presentation.py
compares the two constructions.
"""

from functools import cache

from ordist import OrdistError
from ordist.quadfield import _residue_reduce
from ordist.rayclass import NotCoprime, RayClassGroup, residue_units
from ordist.zlinalg import AbHom, _reduced_product, smith_coordinates


class WholeModulusRay(RayClassGroup):

    def __init__(self, K, n):
        self.field = K
        self.modulus = n
        self.unit_group, self.unit_dlog, self.mu_images = residue_units(K, n)
        self._unit_orders = self.unit_group.invariant_factors
        self.class_primes, self._words, kernel = self._pick_class_primes()
        t = len(self._unit_orders)
        s = len(self.class_primes)
        self._t, self._s = t, s
        self.group, self._to, self._back = smith_coordinates(
            self._relation_rows(kernel), t + s)
        expected = (K.h if n.is_one()
                    else K.h * n.phi() // len(set(self.mu_images)))
        if self.group.order != expected:
            raise OrdistError(
                f"order {self.group.order} != exact-sequence value {expected}")
        res_of = {co: res for res, co in self.unit_dlog.items()}
        self._unit_reps = [res_of[tuple(int(i == j) for j in range(t))]
                           for i in range(t)]

    def _unit_dlog_of(self, u):
        r = _residue_reduce(self.modulus.ideal, u)
        if r not in self.unit_dlog:
            raise NotCoprime("element is not a unit modulo n")
        return self.unit_dlog[r]

    @cache
    def transition(self, n2):
        target = whole_modulus_ray(self.field, n2)
        imgs = []
        for rep in self._unit_reps:
            w = list(target._unit_dlog_of(rep)) + [0] * target._s
            imgs.append(target.word_to_coords(w))
        for q in self.class_primes:
            imgs.append(target.artin(q))
        hom = AbHom(self.group, target.group, _reduced_product(
            self._back, imgs, target.group.invariant_factors))
        if len(set(hom.index_image)) != target.group.order:
            raise OrdistError("transition must be onto")
        return hom


@cache
def whole_modulus_ray(K, n) -> WholeModulusRay:
    return WholeModulusRay(K, n)
