"""Fractional Laplacian representations and self-similar lattice models."""

from .constants import (DomainError, a_delta, c_standard, c_standard_levy,
                        central_diff_power, diff_weights, gamma,
                        norm_constants, sin_half_pi, unit_sphere_moment,
                        v_integral, v_integral_quadrature)
from .fields import Field, Gaussian, PlaneWave, UserField
from .flcore import (FLResult, fl_apply, fl_eigenvalue, fl_order_m,
                     fl_regularized, fl_standard)
from .lattice import (SelfSimilarParams, selfsim_laplacian, wm_dispersion,
                      wm_energy_density, wm_limit_amplitude)
from .oracle import GridField, dft_fl, fft, gaussian_reference
from .potentials import (induced_difference_matrix, potential_eigenvalue,
                         ring_potential, scaling_factor, validate_stiffness)
from .quad import QuadratureError, i_reg, integrate_adaptive, reg_halfline

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
