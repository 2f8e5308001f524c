"""Finite-ring workbench for strongly P-clean structure.

Build small rings on a dense element index, compute prime/Jacobson radicals
by brute force, decide clean decompositions with certificates, classify 2x2
matrices over commutative local rings, and verify the accompanying theorems
exhaustively over a ring catalog.
"""

from .decompositions import (
    CleanCertificate,
    idempotent_lift,
    is_strongly_clean_ring,
    is_strongly_jclean_ring,
    is_strongly_pclean_ring,
    is_uniquely_clean_ring,
    is_uniquely_nilclean_ring,
    is_uniquely_pclean_ring,
    ring_verdicts,
    strongly_clean_element,
    strongly_jclean_element,
    strongly_nilclean_element,
    strongly_pclean_element,
    strongly_pi_regular_element,
)
from .errors import (
    CriterionMismatch,
    HypothesisViolated,
    MalformedSpec,
    NotCommutative,
    NotInvertible,
    NotLiftable,
    NotLocal,
    OrderLimitExceeded,
    PcleanError,
    PreconditionFailed,
    RadicalNotIdeal,
    RingTooLarge,
    TrivialIdempotent,
    UnknownTheoremId,
)
from .matrices import (
    Matrix2,
    SimilarityWitness,
    classify_pclean_2x2,
    diagonalize_split,
    discriminant_criteria,
    matrix_ring,
    pi_regular_trichotomy,
    solve_phi,
    triangular_pclean,
    triangular_ring,
)
from .radicals import (
    Ideal,
    is_abelian,
    is_boolean,
    is_local,
    is_locally_nilpotent,
    is_strongly_nilpotent,
    jacobson_radical,
    nilpotency_index,
    prime_radical,
)
from .rings import (
    Element,
    RingTable,
    build_ring,
    corner_ring,
)
from .specs import canon, parse_ring_spec, spec_order
from .verifier import (
    DEFAULT_CATALOG,
    CHECK_IDS,
    TheoremCheck,
    TheoremReport,
    VerifyEnv,
    replay_counterexample,
    run_suite,
    verify,
)

__version__ = "0.1.0"
