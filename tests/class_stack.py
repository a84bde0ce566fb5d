"""Reference class part of a ray class group: the class-stack route.

Before the greedy pick wrote each class through the class primes,
ordist found the class part of G_n from the class stack: the classes of
the class primes over the order rows of Cl.  The kernel rows of
Z^{class primes} -> Cl were a saturated kernel basis of that stack,
reduced into the box of the class orders, followed by one order row per
class prime.  The Artin map wrote the class of an ideal through the
class primes by a left solve against the stack.  StackRayClassGroup
keeps that route, with the class primes picked on subgroup masks, as
the reference the tests compare the greedy pick with.
"""

from __future__ import annotations

from ordist.quadfield import _is_prime, _xgcd
from ordist.rayclass import RayClassGroup, Subgroup
from ordist.zlinalg import IntMatrix, rational_kernel


def solve_left(A, b):
    """One integer solution x of x A = b, or None: the kernel of
    [A; b]^T is saturated, so b lies in the row lattice exactly when the
    last entries of its basis have gcd 1."""
    stacked = IntMatrix([list(r) for r in A] + [list(b)])
    n = stacked.rows - 1
    g, acc = 0, [0] * (n + 1)
    for v in rational_kernel(stacked.transpose()):
        g, u, w = _xgcd(g, v[n])
        acc = [u * a + w * y for a, y in zip(acc, v)]
    if g != 1:
        return None
    x = [-a for a in acc[:n]]
    if [sum(c * r[j] for c, r in zip(x, A)) for j in range(len(b))] \
            != list(b):
        raise AssertionError("left solve does not reproduce the target")
    return x


class StackRayClassGroup(RayClassGroup):
    """G_n with the class part of the class-stack route."""

    def _pick_class_primes(self):
        K = self.field
        cl = K.class_group
        chosen = []
        sub = Subgroup.generated(cl, [])
        p = 1
        while sub.order != cl.order:
            p += 1
            while not _is_prime(p):
                p += 1
            kind, ids = K.splitting_type(p)
            if kind == "inert":
                continue
            for P in ids:
                if not P.is_coprime(self.modulus.ideal):
                    continue
                if not sub.mask[cl.index_of(K.ideal_class(P))]:
                    chosen.append(P)
                    sub = Subgroup.generated(
                        cl, [K.ideal_class(q) for q in chosen])
                if sub.order == cl.order:
                    break
        inv = cl.invariant_factors
        classes = [K.ideal_class(q) for q in chosen]
        self.orders = [cl.element_order(c) for c in classes]
        self.stack = [list(c) for c in classes] + \
            [[m if j == i else 0 for j in range(len(inv))]
             for i, m in enumerate(inv)]
        s = len(chosen)
        kernel = []
        if s:
            ker = rational_kernel(IntMatrix(self.stack, len(inv)).transpose())
            box = {tuple(x % o for x, o in zip(v[:s], self.orders))
                   for v in ker}
            box.discard((0,) * s)
            kernel = sorted(box) + [
                tuple(o if j == i else 0 for j in range(s))
                for i, o in enumerate(self.orders)]
        return tuple(chosen), None, kernel

    def artin(self, a):
        K = self.field
        if not a.is_coprime(self.modulus.ideal):
            raise ValueError(f"{a} is not coprime to the modulus")
        if self._s == 0:
            word = list(self._residue_word(a.is_principal_generator()))
        else:
            sol = solve_left(self.stack, K.ideal_class(a))
            x = [y % o for y, o in zip(sol, self.orders)]
            z = [-y % o for y, o in zip(x, self.orders)]
            g = a.multiply(self._class_product(z)).is_principal_generator()
            w1 = self._residue_word(g)
            w2 = self._principal_word([e1 + e2 for e1, e2 in zip(x, z)])
            word = [u - v for u, v in zip(w1, w2)] + x
        return self.word_to_coords(word)
