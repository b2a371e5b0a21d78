"""singres: singular-locus analysis of sparse resultants of pairs of
univariate (Laurent) polynomial supports.

The package decides, for a pair of finite integer support sets, whether the
sparse resultant's singular locus is generically of nodal type and of
codimension 2, and verifies the underlying stratification, rank, and
singularity-type facts with exact and numeric computation: rational
arithmetic, and cyclotomic facts decided modulo primes that split
completely in Q(zeta_n).
"""

from .exact import UniPoly, exact_rank, poly_gcd
from .germs import GermClass, PlaneGerm, classify_germ, slice_germ
from .laurent import (
    LaurentPoly,
    PointClass,
    ProjPoint,
    RootRecord,
    branch_covector,
    classify_point,
    common_roots,
    homogenize,
    ord_at,
)
from .minors import (
    MinorCheck,
    minors_split_equivalence_scan,
    two_class_split,
)
from .mpoly import (
    MPoly,
    jacobian_vanishes,
    resultant_poly,
    specialize,
)
from .strata import (
    CodimEstimate,
    StratumLabel,
    corank_kernel,
    estimate_codim,
    expected_codim,
    in_filtration_subset,
    label_dominates,
    multiplicity_vandermonde,
    parse_label,
    sample_filtration_subset,
    scan_corank_strata,
)
from .supports import (
    ConditionReport,
    SupportPair,
    SupportSet,
    Verdict,
    check_conditions,
    classify,
    gap_gcd,
    split_witness,
)

__version__ = "0.1.0"
