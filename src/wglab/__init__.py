"""Desk-scale numerical laboratory for sums of prime k-th powers.

Exact local congruence structure, W-tricked pseudorandom majorants,
circle-method spectra and exponential sums, restriction-norm constants,
and representation coverage probes over dense prime subsets.
"""

from .core_arith import (
    FactoredModulus,
    LimitExceededError,
    PrimeSet,
    compute_Rk,
    compute_W,
    gamma,
    rational_approx,
    sieve_primes,
    tau,
)
from .local_structure import (
    DecompositionFailure,
    LocalDecomposition,
    PowerResidueTable,
    SumsetCover,
    WaringPairReport,
    local_decompose,
    power_class_count,
    power_residues,
    sigma_b,
    sumset_cover_check,
    waring_pair_check,
)
from .majorant import (
    MeanReport,
    PrimeSubset,
    SubsetSpec,
    WeightedSequence,
    build_f,
    build_nu,
    gen_subset,
    mean_g,
    parse_subset_spec,
    support_counts,
)
from .representation import (
    ConvolutionProfile,
    CoverageReport,
    FFTPrecisionError,
    ThresholdReport,
    admissible_filter,
    count_representations,
    coverage_probe,
    theorem_thresholds,
    transference_gauge,
)
from .spectral import (
    Arc,
    ArcParams,
    DirichletKernel,
    ExpSumValue,
    FactorParts,
    GaugeReport,
    RestrictionReport,
    Spectrum,
    arc_decompose,
    dft_spectrum,
    exp_sum_Sstar,
    exp_sum_factor,
    integral_I,
    interval_transform_at,
    major_arc_model,
    major_arc_residual,
    pseudorandom_gauge,
    restriction_norm,
    transform_at,
)

__version__ = "0.1.0"
