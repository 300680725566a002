"""Diagonal-product images of the classical matrix groups.

Boundary-curve evaluation and polar inversion, membership oracles for the
SU(n)/U(n)/SO(n) images, construction and recognition of boundary-attaining
matrices, constructive preimages through a homotopy family, and seeded
numerical verification runs.
"""

from .boundary import (
    PolarPoint,
    alpha_of_theta,
    big_gamma,
    gamma,
    gamma_derivative,
    jacobian_big_gamma,
    radius_of_theta,
    theta_derivative,
    theta_of_alpha,
    wrap_angle,
)
from .constructors import (
    ExtremalDecomposition,
    build_extremal,
    build_homotopy_matrix,
    build_u_theta,
    build_u_z,
    decompose_su2,
    homotopy_diag_product,
    omega_max,
    random_extremal,
    recognize_extremal,
)
from .matrices import (
    derive_seed,
    diag_product,
    exp_skew_hermitian,
    generator_x,
    generator_y,
    haar_special_orthogonal,
    haar_special_unitary,
    haar_unitary,
    is_special_orthogonal,
    is_special_unitary,
    is_unitary,
)
from .region import (
    Membership,
    MembershipVerdict,
    so_interval,
    su_region_contains,
    su_region_contains_winding,
    u_region_contains,
)
from .verify import (
    CheckRecord,
    OptimizerConfig,
    PreimageConvergenceError,
    VerificationReport,
    constrained_max_numeric,
    monte_carlo_containment,
    preimage,
    verify_preimage,
    verify_unit_disk,
    verify_so_interval,
)

__version__ = "0.1.0"

__all__ = [
    "PolarPoint",
    "alpha_of_theta",
    "big_gamma",
    "gamma",
    "gamma_derivative",
    "jacobian_big_gamma",
    "radius_of_theta",
    "theta_derivative",
    "theta_of_alpha",
    "wrap_angle",
    "ExtremalDecomposition",
    "build_extremal",
    "build_homotopy_matrix",
    "build_u_theta",
    "build_u_z",
    "decompose_su2",
    "homotopy_diag_product",
    "omega_max",
    "random_extremal",
    "recognize_extremal",
    "derive_seed",
    "diag_product",
    "exp_skew_hermitian",
    "generator_x",
    "generator_y",
    "haar_special_orthogonal",
    "haar_special_unitary",
    "haar_unitary",
    "is_special_orthogonal",
    "is_special_unitary",
    "is_unitary",
    "Membership",
    "MembershipVerdict",
    "so_interval",
    "su_region_contains",
    "su_region_contains_winding",
    "u_region_contains",
    "CheckRecord",
    "OptimizerConfig",
    "PreimageConvergenceError",
    "VerificationReport",
    "constrained_max_numeric",
    "monte_carlo_containment",
    "preimage",
    "verify_preimage",
    "verify_unit_disk",
    "verify_so_interval",
]
