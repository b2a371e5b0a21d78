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
    exponent_power_minor_check,
    minors_split_equivalence_scan,
    proportionality_structure,
    two_class_split,
    unity_minor_check,
)
from .mpoly import (
    MPoly,
    SylvesterMatrix,
    jacobian_vanishes,
    resultant_poly,
    specialize,
    sylvester_matrix,
)
from .strata import (
    CodimEstimate,
    StratumLabel,
    actual_label,
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
    reduce_common_scale,
    split_witness,
)

__version__ = "0.1.0"
