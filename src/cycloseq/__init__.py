"""Exact counting engine for digit-string statistics of cyclic binary sequences."""

from .errors import (
    CapExceeded,
    ConstantSequence,
    DegenerateFamily,
    DomainError,
    InexactDivision,
    InvalidDisplacement,
    InvalidTau,
    UnsupportedPattern,
)
from .exactmath import SequenceFamily, binomial, demoivre, partition_count, stirling2
from .tnumbers import (
    CountDistribution,
    SequenceType,
    t_distribution,
    t_number,
    t_sum_over_n,
    type_census,
)
from .coeffs import (
    appendix_tables,
    c_coeff,
    c_general,
    c_weight,
)
from .patterncounts import (
    JointDistribution,
    all_sequences_001,
    count_pattern,
    fibonacci_gf,
    joint_01_001,
    joint_01_101,
    kaplansky,
    pattern_distribution,
    triple_01_001_0001,
)
from .analytics import (
    allwords_jump_gaussian,
    binomial_jump_pmf,
    moment_approx,
    moment_exact,
    moment_sum,
    stirling_binomial,
    t_asymptotic,
    wallis_pi,
)
from .physics import (
    WalkPolynomial,
    ising_partition_fixed,
    ising_partition_total,
    walk_weight_polynomial,
    walk_weight_total,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
