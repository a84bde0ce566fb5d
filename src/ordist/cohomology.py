"""Tate cohomology of finite-order automorphisms and synthetic inertia frames.

Two layers live here.  The first computes the even and odd Tate groups of a
finite cyclic group acting on a finitely generated abelian group, presented
in invariant coordinates: kernels are preimage lattices, images are row
spaces, and the quotients come out of exact Smith reductions.  A
preimage lattice and the coordinates of its vectors come from one Smith
pass, so no call makes a pass per vector.  The second
models the multiplicative frame extracted from ramified primes: a product of
cyclic generators whose last member is only determined up to roots of unity,
together with the composite element that restores the full order.  Its
elements are numbered by mixed-radix indices: a translation is a
permutation of the indices, and the coset rows of the trace ideals come
from groupring._coset_rows on labels of the indices, as for ray class
groups.  Trace ideals of the frame, their twisted variants, and the
torsion law they satisfy are checked against the cohomology layer.
"""

from __future__ import annotations

import itertools
import math

from .groupring import _coset_rows
from . import OrdistError, _Frozen
from .quadfield import _is_prime
from .zlinalg import (
    AbGroup,
    AbHom,
    CSRMatrix,
    IntMatrix,
    LinalgError,
    _as_matrix,
    _reduced_product,
    _shifted_indices,
    cokernel,
    smith_coordinates,
    subquotient_torsion,
)


class NotCyclic(OrdistError):
    """The requested acting subgroup is not cyclic, so no check runs."""


# ---------------------------------------------------------------------------
# cyclic actions on finitely generated abelian groups


def _reduce_mixed(invariants, vec) -> tuple[int, ...]:
    # free coordinates (invariant 0) carry exact integers
    return tuple(x % d if d else x for x, d in zip(vec, invariants))


class CyclicModule(_Frozen):
    """A finitely generated abelian group with a finite-order automorphism.

    t_action is the matrix of a generator t of the acting cyclic group in
    the invariant coordinates of module; order is the order of the acting
    group, so t ** order must be the identity (t itself may have smaller
    order when the action is not faithful).
    """

    _fields = ("module", "t_action", "order")

    def __init__(self, module: AbGroup, t_action: AbHom, order: int):
        self.__dict__.update(module=module, t_action=t_action, order=order)
        if self.order < 1:
            raise ValueError("acting order must be positive")
        if self.t_action.domain != self.module or self.t_action.codomain != self.module:
            raise ValueError("action must be an endomorphism of the module")
        inv = self.module.invariant_factors
        n = len(inv)
        if n == 0:
            return
        # t ** order by repeated squaring; no invariant factor is 1, so
        # the identity is its own reduction
        identity = IntMatrix.identity(n).entries
        base = _reduced_product(identity, self.t_action.matrix, inv)
        power = identity
        e = self.order
        while e:
            if e & 1:
                power = _reduced_product(power, base, inv)
            e >>= 1
            if e:
                base = _reduced_product(base, base, inv)
        if power != identity:
            raise ValueError("declared power of the action is not the identity")


def _lattice_preimage(map_rows, rel_rows, ambient: int):
    """(basis, coords) for {x in Z^ambient : x @ map_rows lies in
    rowspace(rel_rows)}.

    rel_rows must be independent; then each solution x lifts to a unique
    stacked kernel vector (x, z) with x @ map_rows + z @ rel_rows = 0, so
    projecting a saturated kernel basis to the leading block yields an
    independent basis of the preimage lattice.  One Smith pass gives
    both: the basis is the columns of its transform R at the free
    factors, and coords((x, z)) reads the coordinates of a stacked kernel
    vector in that basis as its products with the rows of R^-1 there.
    coords raises LinalgError when they do not reproduce the vector.
    """
    stacked = [list(r) for r in map_rows] + [list(r) for r in rel_rows]
    width = len(stacked[0])
    transposed = [[row[c] for row in stacked] for c in range(width)]
    group, to, back = smith_coordinates(transposed, len(stacked))
    free = len(group.torsion)
    kernel = list(zip(*to))[free:]
    back = back[free:]

    def coords(vec) -> tuple[int, ...]:
        c = tuple(sum(a * b for a, b in zip(row, vec)) for row in back)
        if _reduced_product([c], kernel, (0,) * len(vec))[0] != tuple(vec):
            raise LinalgError("kernel coordinates do not reproduce the vector")
        return c

    return [v[:ambient] for v in kernel], coords


def tate_cyclic(mod: CyclicModule, parity: str) -> AbGroup:
    """Even or odd Tate group of the cyclic action.

    Even parity is the fixed subgroup modulo the image of the norm; odd
    parity is the kernel of the norm modulo the image of t - 1.  Both are
    finite and killed by the acting order, which is asserted.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    inv = mod.module.invariant_factors
    n = len(inv)
    if n == 0:
        return AbGroup(())
    A = mod.t_action.matrix
    exact = (0,) * n  # invariants of Z^n: the products stay exact
    diff = [[x - (i == j) for j, x in enumerate(r)] for i, r in enumerate(A)]
    norm = IntMatrix.zeros(n, n).entries
    power = IntMatrix.identity(n).entries
    for _ in range(mod.order):
        norm = [[a + b for a, b in zip(x, y)] for x, y in zip(norm, power)]
        power = _reduced_product(power, A, exact)
    rel = [[inv[i] if j == i else 0 for j in range(n)]
           for i in range(n) if inv[i] > 0]
    kernel_of, image_of = (diff, norm) if parity == "even" else (norm, diff)
    kernel_rows, _ = _lattice_preimage(kernel_of, rel, n)
    sub = [list(r) for r in list(image_of) + rel if any(r)]
    if not kernel_rows:
        if sub:
            raise OrdistError("image is nonzero inside a zero kernel")
        return AbGroup(())
    result = subquotient_torsion(kernel_rows, sub)
    if not result.is_finite:
        raise OrdistError("Tate group is infinite")
    if not result.is_trivial and mod.order % result.exponent:
        raise OrdistError(f"Tate group exponent {result.exponent} does not "
                          f"divide the acting order {mod.order}")
    return result


def _module_from_presentation(ambient: int, rel_rows, act_rows,
                              order: int) -> CyclicModule:
    """Quotient Z^ambient / rowspace(rel_rows) in invariant coordinates,
    carrying the action given by act_rows (which must stabilize the
    relation lattice)."""
    module, to, back = smith_coordinates(rel_rows, ambient)
    act = _as_matrix(act_rows, ambient).entries
    inv = module.invariant_factors
    hom = _reduced_product(back, _reduced_product(act, to, inv), inv)
    return CyclicModule(module, AbHom(module, module, hom), order)


def dimension_shift(mod: CyclicModule) -> CyclicModule:
    """Kernel of the evaluation map from the induced module back onto mod.

    The induced module has trivial Tate groups, so the long exact sequence
    swaps parities: each Tate group of the result equals the opposite
    parity of the input.  Used as an independent two-periodicity check.
    """
    inv = mod.module.invariant_factors
    n = len(inv)
    k = mod.order
    if n == 0:
        return mod
    powers = [IntMatrix.identity(n).entries]
    for _ in range(k - 1):
        powers.append(_reduced_product(powers[-1], mod.t_action.matrix,
                                       (0,) * n))
    # basis (a, i) of Z[C] (x) M maps to e_i . t^a under evaluation
    phi = []
    for a in range(k):
        for i in range(n):
            phi.append(_reduce_mixed(inv, powers[a][i]))
    rel = [[inv[i] if j == i else 0 for j in range(n)]
           for i in range(n) if inv[i] > 0]
    ambient = n * k
    kernel_rows, coords = _lattice_preimage(phi, rel, ambient)

    def in_kernel_coords(vec):
        # z solves vec @ phi + z @ rel = 0
        image = _reduced_product([vec], phi, (0,) * n)[0]
        if any(_reduce_mixed(inv, image)):
            raise OrdistError("vector lies outside the evaluation kernel")
        return coords(list(vec) + [-y // d for y, d in zip(image, inv) if d])

    sub_rel = []
    for a in range(k):
        for i in range(n):
            if inv[i] > 0:
                row = [0] * ambient
                row[a * n + i] = inv[i]
                sub_rel.append(in_kernel_coords(row))
    act_rows = []
    for b in kernel_rows:
        shifted = [0] * ambient
        for a in range(k):
            for i in range(n):
                shifted[((a + 1) % k) * n + i] = b[a * n + i]
        act_rows.append(in_kernel_coords(shifted))
    return _module_from_presentation(len(kernel_rows), sub_rel, act_rows, k)


# ---------------------------------------------------------------------------
# synthetic inertia frames


def _porder(moduli, a) -> int:
    return math.lcm(*(d // math.gcd(d, x) for x, d in zip(a, moduli))) if a else 1


class SylowFrameSynthetic(_Frozen):
    """Prescribed ell-Sylow data of the ramified generators over the base.

    g lists the inertia orders (ell powers, smallest last); the last
    generator only survives with order g[-1] / ell**r on its own, and the
    composite element j, the product of all generators raised to g_i / g_m,
    recovers the full order g[-1] whenever at least two generators exist.

    The elements are the tuples of residues modulo moduli, numbered by
    their mixed-radix index, the last residue running fastest.
    """

    _fields = ("ell", "g", "r")

    def __init__(self, ell: int, g: tuple[int, ...], r: int):
        # the checks below read the properties of the fields
        self.__dict__.update(ell=ell, g=tuple(int(x) for x in g), r=r)
        if not _is_prime(self.ell):
            raise ValueError("ell must be prime")
        if not self.g:
            raise ValueError("at least one generator is required")
        for gi in self.g:
            x = gi
            while x % self.ell == 0:
                x //= self.ell
            if x != 1 or gi < self.ell:
                raise ValueError("generator orders must be powers of ell")
        if self.g[-1] != min(self.g):
            raise ValueError("the smallest order must come last")
        if self.r < 0 or self.g[-1] % self.ell ** self.r:
            raise ValueError("ell**r must divide the last order")
        if self.m >= 2 and _porder(self.moduli, self.j) != self.g[-1]:
            raise ValueError("composite element does not recover the last order")

    @property
    def m(self) -> int:
        return len(self.g)

    @property
    def moduli(self) -> tuple[int, ...]:
        return self.g[:-1] + (self.g[-1] // self.ell ** self.r,)

    @property
    def size(self) -> int:
        return math.prod(self.moduli)

    def tau(self, i: int) -> tuple[int, ...]:
        """Generator number i, 1-based."""
        if not 1 <= i <= self.m:
            raise ValueError("generator index out of range")
        return tuple((1 if k == i - 1 else 0) % d
                     for k, d in enumerate(self.moduli))

    @property
    def j(self) -> tuple[int, ...]:
        return tuple((gi // self.g[-1]) % d for gi, d in zip(self.g, self.moduli))


def _validate_subset(frame: SylowFrameSynthetic, subset) -> tuple[int, ...]:
    out = tuple(sorted(set(int(i) for i in subset)))
    if any(i < 1 or i > frame.m for i in out):
        raise ValueError("generator indices must lie between 1 and m")
    return out


def _translation(frame: SylowFrameSynthetic, elt) -> list[int]:
    """Translation by elt as a permutation of the frame's indices:
    entry a is the index of (element a) + elt."""
    return _shifted_indices(frame.moduli, elt)


def _trace_rows(frame: SylowFrameSynthetic, subset,
                composite_last: bool) -> CSRMatrix:
    """Indicator rows of the cosets of each selected cyclic subgroup,
    a CSRMatrix in groupring._coset_rows order.

    With composite_last the subgroup at the final index is generated by j
    instead of the bare last generator.  Each element is labelled by the
    least index of its coset, the least index on its orbit under the
    translation by the generator."""
    labels = []
    for i in _validate_subset(frame, subset):
        gen = frame.j if (composite_last and i == frame.m) else frame.tau(i)
        perm = _translation(frame, gen)
        lab = cur = range(frame.size)
        for _ in range(_porder(frame.moduli, gen) - 1):
            cur = [perm[c] for c in cur]
            lab = list(map(min, lab, cur))
        labels.append(lab)
    return _coset_rows(frame.size, labels)


def _translation_rows(frame: SylowFrameSynthetic, elt) -> IntMatrix:
    """The permutation matrix of the translation by elt."""
    return IntMatrix([[int(j == t) for j in range(frame.size)]
                      for t in _translation(frame, elt)], frame.size)


def twisted_trace_torsion(frame: SylowFrameSynthetic, subset=None) -> AbGroup:
    """Torsion of the group ring of the frame modulo the twisted trace rows
    (composite generator at the last index) of the selected subset."""
    if subset is None:
        subset = range(1, frame.m + 1)
    quot = cokernel(_trace_rows(frame, subset, True), frame.size)
    return AbGroup(quot.torsion)


def build_lambda_quotients(frame: SylowFrameSynthetic, subset):
    """Quotients of the frame group ring by the plain and twisted trace
    rows of subset, both carrying the action of the composite element j."""
    subset = _validate_subset(frame, subset)
    size = frame.size
    act = _translation_rows(frame, frame.j)
    order = _porder(frame.moduli, frame.j)
    plain = _module_from_presentation(
        size, _trace_rows(frame, subset, False), act, order)
    twisted = _module_from_presentation(
        size, _trace_rows(frame, subset, True), act, order)
    return plain, twisted


def verify_tor_h2(frame: SylowFrameSynthetic, subset) -> bool:
    """Torsion of the twisted quotient at subset + last index equals the
    even Tate group of j acting on the plain quotient at subset."""
    subset = _validate_subset(frame, subset)
    if frame.m in subset:
        raise ValueError("the last index must stay outside the tested subset")
    lhs = twisted_trace_torsion(frame, subset + (frame.m,))
    plain, _ = build_lambda_quotients(frame, subset)
    return lhs == tate_cyclic(plain, "even")


def hpq_spot_check(frame: SylowFrameSynthetic, inner, outer) -> bool:
    """Both Tate parities of the leftover generator acting on the plain
    quotient at inner vanish.  outer must properly contain inner and leave
    exactly one generator index uncovered, so the acting group is cyclic."""
    p_set = set(_validate_subset(frame, inner))
    q_set = set(_validate_subset(frame, outer))
    if not p_set < q_set:
        raise ValueError("inner must be a proper subset of outer")
    leftover = set(range(1, frame.m + 1)) - q_set
    if len(leftover) != 1:
        raise NotCyclic("the complement of outer must be a single generator")
    k = leftover.pop()
    actor = frame.tau(k)
    mod = _module_from_presentation(
        frame.size,
        _trace_rows(frame, p_set, False),
        _translation_rows(frame, actor),
        _porder(frame.moduli, actor))
    return (tate_cyclic(mod, "even").is_trivial
            and tate_cyclic(mod, "odd").is_trivial)


def sweep_torsion_law(ell: int, max_m: int, r: int = 1):
    """Exhaustive check of the parity law for the twisted trace torsion.

    Over every multiset of generator orders drawn from {ell, ell**2}, the
    torsion of the fully twisted quotient must be trivial when m = 1 or m
    is even, and cyclic of order ell**r when m is odd and at least 3.
    """
    records = []
    for m in range(1, max_m + 1):
        shapes = sorted(set(tuple(sorted(c, reverse=True)) for c in
                            itertools.product((ell, ell * ell), repeat=m)))
        for shape in shapes:
            frame = SylowFrameSynthetic(ell, shape, r)
            tor = twisted_trace_torsion(frame)
            want = (ell ** r,) if (m % 2 == 1 and m >= 3 and r > 0) else ()
            records.append({
                "m": m,
                "orders": list(shape),
                "torsion": list(tor.invariant_factors),
                "law_holds": tor.invariant_factors == want,
            })
    return records
