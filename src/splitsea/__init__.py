"""splitsea: split Fermi seas on the lattice and their edge laws.

Exact correlation kernels for a family of hopping fermion ground states,
Toeplitz-determinant edge distributions, higher-order Airy Fredholm
determinants, determinantal sampling, and the corresponding unitary matrix
model, with a CLI (``splitsea``) orchestrating desk-scale studies.
"""

from .airy import (FredholmConfig, airy_fn, airy_kernel, fredholm_F,
                   limiting_cdf)
from .edge import (exact_cdf, fredholm_cdf_check, oscillation_average,
                   scaled_convergence_study, symbol_coeffs, toeplitz_cdf)
from .kernel import (CoefficientBand, coefficient_band, edge_prediction,
                     kernel_eval, kernel_eval_quadrature, kernel_matrix,
                     local_sine_prediction)
from .potential import (EdgeProfile, FermiSea, HoppingCoefficients,
                        edge_profile, eval_dispersion, fermi_sea,
                        global_extrema, limit_density, limit_shape)
from .sampler import (WindowedKernel, empirical_edge_law,
                      limit_shape_deviation, sample, sample_many,
                      windowed_kernel)
from .schur import (brute_cdf_first_part, brute_correlation,
                    complete_homogeneous, elementary, measure_weight,
                    partitions_upto, schur)
from .unitary import (eigen_density_supercritical, log_joint_density,
                      metropolis_chain, partition_function_toeplitz)

__all__ = [
    "CoefficientBand", "EdgeProfile", "FermiSea",
    "FredholmConfig", "HoppingCoefficients", "WindowedKernel",
    "airy_fn", "airy_kernel", "brute_cdf_first_part", "brute_correlation",
    "coefficient_band", "complete_homogeneous",
    "edge_prediction", "edge_profile", "eigen_density_supercritical",
    "elementary", "empirical_edge_law", "eval_dispersion", "exact_cdf",
    "fermi_sea", "fredholm_F", "fredholm_cdf_check", "global_extrema",
    "kernel_eval", "kernel_eval_quadrature", "kernel_matrix",
    "limit_density", "limit_shape", "limit_shape_deviation", "limiting_cdf",
    "local_sine_prediction", "log_joint_density", "measure_weight",
    "metropolis_chain", "oscillation_average", "partition_function_toeplitz",
    "partitions_upto", "sample", "sample_many", "scaled_convergence_study",
    "schur", "symbol_coeffs", "toeplitz_cdf", "windowed_kernel",
]

__version__ = "0.1.0"
