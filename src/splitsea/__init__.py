"""splitsea: split Fermi seas on the lattice and their edge laws.

Exact correlation kernels for a family of hopping fermion ground states,
Toeplitz-determinant edge distributions, higher-order Airy Fredholm
determinants, determinantal sampling, and the corresponding unitary matrix
model, with a CLI (``splitsea``) orchestrating desk-scale studies.
"""

from .airy import FredholmConfig, fredholm_F, limiting_cdf
from .edge import (exact_cdf, fredholm_cdf_check, scaled_convergence_study,
                   symbol_coeffs, toeplitz_cdf)
from .kernel import (CoefficientBand, coefficient_band, kernel_eval,
                     kernel_eval_quadrature, kernel_matrix)
from .potential import (EdgeProfile, FermiSea, HoppingCoefficients,
                        edge_profile, eval_dispersion, fermi_sea,
                        global_extrema, limit_density, limit_shape)
from .sampler import (WindowedKernel, empirical_edge_law, sample,
                      sample_many, windowed_kernel)
from .schur import (brute_cdf_first_part, complete_homogeneous, elementary,
                    measure_weight, partitions_upto, schur)
from .unitary import (eigen_density_supercritical, metropolis_chain,
                      partition_function_toeplitz)

__all__ = [
    "CoefficientBand", "EdgeProfile", "FermiSea",
    "FredholmConfig", "HoppingCoefficients", "WindowedKernel",
    "brute_cdf_first_part", "coefficient_band", "complete_homogeneous",
    "edge_profile", "eigen_density_supercritical",
    "elementary", "empirical_edge_law", "eval_dispersion", "exact_cdf",
    "fermi_sea", "fredholm_F", "fredholm_cdf_check", "global_extrema",
    "kernel_eval", "kernel_eval_quadrature", "kernel_matrix",
    "limit_density", "limit_shape", "limiting_cdf", "measure_weight",
    "metropolis_chain", "partition_function_toeplitz",
    "partitions_upto", "sample", "sample_many", "scaled_convergence_study",
    "schur", "symbol_coeffs", "toeplitz_cdf", "windowed_kernel",
]

__version__ = "0.1.0"
