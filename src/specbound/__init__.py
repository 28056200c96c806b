"""Sharp nonasymptotic spectral-norm bounds for random matrices with
independent entries: bound evaluation, exact trace-moment verification,
reproducible sampling, and Monte Carlo experiments.

Importing specbound before numpy makes one BLAS thread the load-time
default: unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
is set, it sets OPENBLAS_NUM_THREADS=1, so neither bundled OpenBLAS (numpy's,
scipy's) starts worker threads that would only spin, since every trial runs
on one BLAS thread anyway (``specnorm._single_blas_thread``).  Child
processes inherit the variable.
"""

import os
import sys

if "numpy" not in sys.modules and not {
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
del os, sys

from .coeffs import (
    CoefficientMatrix,
    StructuralParams,
    band,
    band_cyclic,
    block_diagonal,
    build_pattern,
    diagonal,
    log_decay_diagonal,
    lp_entrywise_norm,
    single_entry,
    structural_params,
    wigner,
)
from .bounds import (
    BoundReport,
    bound_dimfree,
    bound_heavy,
    bound_main,
    bound_rademacher,
    bound_rect,
    bound_reference,
    bound_seginer,
    gaussian_moment_bounds,
    lower_bound_estimate,
    lower_bound_explicit,
    tail_bound,
    tail_bound_second_form,
    upper_bounds,
)
from .errors import (
    DataError,
    GuaranteeError,
    NonConvergenceError,
    ParameterError,
    SizeError,
)
from .moments import (
    BipartiteShape,
    CycleShape,
    enumerate_bipartite_shapes,
    enumerate_shapes,
    gaussian_moment,
    shape_of,
    trace_moment_bruteforce,
    verify_comparison,
    wigner_trace_moment,
)
from .sampling import (
    EntryDistribution,
    GAUSSIAN,
    NormEstimate,
    RADEMACHER,
    SeedSpec,
    distribution_from_code,
    distribution_moment,
    sample_matrix,
)
from .specnorm import NormResult, eigenvalues_all, max_row_norm, spectral_norm
from .experiments import (
    PhaseGridResult,
    bounds_vs_empirical_report,
    estimate_expected_norm,
    phase_scan,
    regular_random_pattern,
    seginer_block_experiment,
    semicircle_cdf,
    spectral_density_check,
    tail_empirics,
)

__version__ = "0.1.0"
