"""Spectral radii of commutators of selfadjoint involution pairs.

Pairs in one-shifted block form have a tridiagonal sum whose finite
sections can be cross-validated against closed-form spectra; the package
provides the eigensolver, the family builders, the closed forms, the
finite-section experiments, and a CLI.
"""

from .analysis import (
    detect_outliers,
    hausdorff_distance,
    rho_commutator_direct,
    rho_numeric,
    tsirelson_suite,
)
from .forms import (
    AngleSpec,
    GeneralPair,
    PairFamily,
    build_dense_pair,
    build_sum_truncation,
    commutator,
    paper_example_3x3,
    rotation_block,
    validate_involution,
)
from .theory import (
    LimitSet,
    OutlierSolveResult,
    RhoReport,
    TwoAngleParams,
    bell_chsh_rho,
    constant_angle_limit_set,
    outlier_solve_eq4,
    rho_constant_angle,
    rho_from_lambda,
    rho_two_constant_angles,
    select_lambda0,
    theorem_bounds_general,
    tilde_point,
    two_angle_essential,
    wiener_hopf_outlier_check,
)
from .tridiag import (
    DenseSymmetricMatrix,
    SpectrumSample,
    TridiagonalSymmetricMatrix,
    dense_sym_eigenvalues,
    sturm_count,
    tridiag_eigenvalues,
)

__version__ = "0.1.0"
