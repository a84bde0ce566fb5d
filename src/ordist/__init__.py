"""ordist: exact arithmetic of ordinary distributions over imaginary
quadratic fields.

The package computes, with integer-exact linear algebra throughout:

  * ideal arithmetic, reduced forms, prime splitting and class numbers
    of imaginary quadratic fields, in plain integers (quadfield);
  * invariant-factor structure of finitely generated abelian groups
    (zlinalg);
  * residue unit groups and ray class groups with Artin maps, inertia
    subgroups, Frobenius data and transition surjections (rayclass);
  * group-ring traces, the level elements and trace-ideal quotients
    (groupring);
  * level subgroups of the universal ordinary distribution, their
    torsion, bounds, and odd-functional certificates of non-trivial
    torsion (distribution);
  * cyclic Tate cohomology and the synthetic Sylow-frame cross-checks
    (cohomology);
  * a JSON-reporting command line front end with an on-disk cache (cli).

Importing the package loads none of these modules.  Each public name
below is served from its defining module, which is imported on the
first access (PEP 562), so that `ordist field` and a cache hit run on
quadfield alone.  The package needs nothing outside the standard
library.
"""

from importlib import import_module as _import_module
from operator import attrgetter as _attrgetter

__version__ = "0.1.0"


class OrdistError(Exception):
    """Base class for all package errors.

    The command line front end exits with exit_code and prints prefix
    before the message.
    """

    exit_code = 1
    prefix = ""


class _Frozen:
    """Base of the immutable value classes: their __init__ fills the
    instance __dict__, and assigning or deleting an attribute later
    raises AttributeError.  A result computed on first use is a
    functools.cached_property, which writes the __dict__ as well.

    Each subclass names its fields in _fields.  Equality and hashing
    come from here: two instances are equal when their classes are the
    same and their field values are equal in that order, another class
    gets NotImplemented, and the hash is that of the field values (of
    the one value for a single field).  A subclass that must not be
    hashed sets __hash__ = None."""

    def __init_subclass__(cls):
        cls._key = _attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_EXPORTS = {
    "zlinalg": (
        "AbGroup", "AbHom", "GeneratorsInsufficient", "IntMatrix",
        "LinalgError", "NotSubLattice", "cokernel", "rational_kernel",
        "smith_coordinates", "snf_invariants", "subquotient_torsion",
    ),
    "quadfield": (
        "FieldMismatch", "HypothesisFailed", "Modulus", "ModulusTooLarge",
        "NotPrime", "NotSquarefree", "OIdeal", "QuadField", "make_field",
        "search_torsex",
    ),
    "rayclass": (
        "FrameUnavailable", "GaloisOverH", "NotCoprime", "NotDivisor",
        "PrimeNotInModulus", "RayClassGroup", "Subgroup", "galois_over_h",
        "ray_class_group", "residue_units",
    ),
    "groupring": (
        "GroupRingElt", "NotCoprimeToW", "alpha", "gal_h_quotient",
        "gal_h_quotient_torsion", "trace", "trace_ideal",
        "trace_ideal_quotient",
    ),
    "cohomology": (
        "CyclicModule", "NotCyclic", "SylowFrameSynthetic",
        "build_lambda_quotients", "dimension_shift", "hpq_spot_check",
        "sweep_torsion_law", "tate_cyclic", "twisted_trace_torsion",
        "verify_tor_h2",
    ),
    "distribution": (
        "DeltaPresentation", "OracleMismatch", "TorsionCertificate",
        "WrongShape", "build_presentation", "level_torsion", "nu",
        "torsex_certificate", "torsion_bound",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
__all__ = ["OrdistError", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
