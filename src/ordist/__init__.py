"""ordist: exact arithmetic of ordinary distributions over imaginary
quadratic fields.

The package computes, with integer-exact linear algebra throughout:

  * invariant-factor structure of finitely generated abelian groups
    (zlinalg);
  * ideal arithmetic, class groups and residue unit groups of imaginary
    quadratic orders (quadfield);
  * ray class groups with Artin maps, inertia subgroups, Frobenius data
    and transition surjections (rayclass);
  * group-ring traces, averaged Frobenius elements, Iwasawa-type
    coefficients and trace-ideal quotients (groupring);
  * level subgroups of the universal ordinary distribution, their
    torsion, bounds, and odd-functional certificates of non-trivial
    torsion (distribution);
  * cyclic Tate cohomology and the synthetic Sylow-frame cross-checks
    (cohomology);
  * a JSON-reporting command line front end with an on-disk cache (cli).
"""

__version__ = "0.1.0"

from .zlinalg import (  # noqa: F401
    AbGroup,
    AbHom,
    GeneratorsInsufficient,
    IntMatrix,
    LinalgError,
    NotSubLattice,
    OrdistError,
    ab_discover,
    cokernel,
    hnf,
    hnf_basis,
    rational_kernel,
    smith_coordinates,
    snf_invariants,
    solve_left,
    subquotient_torsion,
)
from .quadfield import (  # noqa: F401
    FieldMismatch,
    Modulus,
    ModulusTooLarge,
    NotPrime,
    NotSquarefree,
    OIdeal,
    QuadField,
    make_field,
    residue_units,
    splitting_type,
)
from .rayclass import (  # noqa: F401
    FrameUnavailable,
    GaloisOverH,
    NotCoprime,
    NotDivisor,
    PrimeNotInModulus,
    RayClassGroup,
    Subgroup,
    galois_over_h,
    ray_class_group,
)
from .groupring import (  # noqa: F401
    GroupRingElt,
    NotCoprimeToW,
    TraceIdeal,
    alpha,
    gal_h_quotient,
    gal_h_quotient_torsion,
    p_star,
    trace,
    trace_ideal,
    trace_ideal_quotient,
    transfer,
)
from .cohomology import (  # noqa: F401
    CyclicModule,
    NotCyclic,
    SylowFrameSynthetic,
    build_lambda_quotients,
    dimension_shift,
    hpq_spot_check,
    sweep_torsion_law,
    tate_cyclic,
    twisted_trace_torsion,
    verify_tor_h2,
)
from .distribution import (  # noqa: F401
    DeltaPresentation,
    HypothesisFailed,
    OracleMismatch,
    TorsionCertificate,
    WrongShape,
    build_presentation,
    level_torsion,
    nu,
    search_torsex,
    torsex_certificate,
    torsion_bound,
)
