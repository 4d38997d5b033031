"""End-to-end acceptance gate.

Each test prints a single pass/fail line for its criterion; together
they certify that every representation, constant, and lattice identity
the package exposes agrees with an independent route to the same
number.
"""

import math
import warnings

import numpy as np
import pytest

from fraclap.constants import (c_standard, c_standard_levy,
                               central_diff_power, norm_constants,
                               unit_sphere_moment, v_integral,
                               v_integral_quadrature)
from fraclap.fields import Gaussian
from fraclap.flcore import fl_eigenvalue, fl_order_m, fl_regularized
from fraclap.lattice import (SelfSimilarParams, wm_dispersion,
                             wm_limit_amplitude)
from fraclap.oracle import (GridField, dft_fl, gaussian_reference,
                            periodic_image_tail)
from fraclap.potentials import (potential_eigenvalue, ring_potential,
                                scaling_factor)
from fraclap.quad import i_reg, reg_halfline


def report(criterion, ok, detail):
    print("criterion %d: %s (%s)" % (criterion, "PASS" if ok else "FAIL",
                                     detail))
    assert ok, detail


def test_criterion_1_plane_wave_eigenvalues():
    """Every representation reproduces -k^alpha on plane waves."""
    cases = ([("standard", a, 1) for a in (0.5, 1.0, 1.5)]
             + [("order_m", 2.5, 2), ("order_m", 4.5, 3)]
             + [("regularized", a, 1)
                for a in (0.5, 1.0, 1.5, 2.5, 3.0, 3.5)])
    worst = 0.0
    for rep, alpha, m in cases:
        for k in (0.5, 1.0, 2.0):
            got = fl_eigenvalue(rep, alpha, k, n=1, m=m)
            worst = max(worst, abs(got + k ** alpha) / k ** alpha)
    report(1, worst < 1e-6, "max rel eigenvalue error %.3e" % worst)


def test_criterion_2_matches_spectral_oracle():
    """Regularized form on a Gaussian agrees with the DFT multiplier."""
    nn, ll = 1024, 16.0
    xs = [-2.0, -1.0, 0.0, 0.5, 1.0]
    grid = np.linspace(-ll / 2.0, ll / 2.0, nn, endpoint=False)
    u = Gaussian(1.0)
    dx = ll / nn
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5, 2.5, 3.0):
        spectral = dft_fl(GridField(np.exp(-grid ** 2), ll), alpha)
        for x in xs:
            j = int(round((x + ll / 2.0) / dx))
            local = float(np.real(fl_regularized(u, np.array([x]),
                                                 alpha).value))
            # the oracle acts on the periodized Gaussian, whose images
            # contribute algebraic tails the free-space value lacks
            corr = periodic_image_tail(x, alpha, ll)
            worst = max(worst, abs(local + corr - float(spectral[j])))
    report(2, worst < 1e-5, "max abs deviation %.3e" % worst)


def test_criterion_3_integer_collapse_and_continuity():
    """Even integer alpha collapses to the exact differential branch."""
    u = Gaussian(1.0)
    exact = True
    for alpha in (0.0, 2.0, 4.0):
        for x in (0.0, 0.7, 1.3):
            got = fl_regularized(u, np.array([x]), alpha).value
            exact = exact and got == gaussian_reference(alpha, 1.0, x)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in (0.0, 0.5):
            mid = fl_regularized(u, np.array([x]), 2.0).value
            for alpha in (2.0 - 1e-3, 2.0 + 1e-3):
                side = fl_regularized(u, np.array([x]), alpha).value
                worst = max(worst, abs(side - mid) / abs(mid))
    report(3, exact and worst < 1e-2,
           "integer branch exact: %s, bracket rel gap %.3e" % (exact, worst))


def test_criterion_4_normalization_constants():
    """Closed forms, product forms and quadrature all agree."""
    errs = []
    errs.append(("C(1,1)", abs(c_standard(1, 1.0) - 1.0 / math.pi), 1e-12))
    levy = max(abs(c_standard(n, a) - c_standard_levy(n, a))
               for n in (1, 2, 3) for a in np.linspace(0.1, 1.9, 10))
    errs.append(("levy", levy, 1e-12))
    u_err = max(abs(unit_sphere_moment(3, a) - 4.0 * math.pi / (a + 1.0))
                for a in (0.5, 1.0, 2.7))
    errs.append(("U(3)", u_err, 1e-10))
    errs.append(("V(1,1)", abs(v_integral_quadrature(1, 1.0) - math.pi),
                 1e-8))
    a_ok = all(norm_constants(m, n, 0.8 * m).a_factor > 1e-10
               for m in range(1, 6) for n in (1, 2, 3))
    ok = a_ok and all(e <= tol for _, e, tol in errs)
    report(4, ok, "; ".join("%s %.2e" % (name, e) for name, e, _ in errs)
           + "; A positive: %s" % a_ok)


def test_criterion_5_representation_independence():
    """All orders and the regularized form give one operator."""
    u = Gaussian(1.0)
    worst = 0.0
    for alpha in (0.7, 1.5):
        for x in (0.0, 0.9):
            vals = [float(np.real(fl_order_m(u, np.array([x]), alpha,
                                             m).value))
                    for m in (1, 2, 3)]
            vals.append(float(np.real(fl_regularized(u, np.array([x]),
                                                     alpha).value)))
            spread = (max(vals) - min(vals)) / max(abs(v) for v in vals)
            worst = max(worst, spread)
    report(5, worst < 1e-6, "max rel spread across forms %.3e" % worst)


def test_criterion_6_lattice_self_similarity():
    """Exact dispersion scaling and the continuum limit."""
    worst = 0.0
    for d, a, m in ((0.45, 1.5, 1), (1.05, 1.5, 1), (1.5, 2.0, 2)):
        p = SelfSimilarParams(delta=d, a=a, m=m)
        for kh in (0.5, 1.0, 1.25):
            lhs = wm_dispersion(a * kh, p)
            rhs = a ** d * wm_dispersion(kh, p)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    d, m, kh = 1.5, 1, 1.0
    lim = wm_limit_amplitude(SelfSimilarParams(delta=d, a=2.0, m=m), kh)
    errors = [abs(math.log(a)
                  * wm_dispersion(kh, SelfSimilarParams(delta=d, a=a, m=m))
                  - lim)
              for a in (1.5, 1.25, 1.1, 1.05, 1.02)]
    monotone = all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    report(6, worst < 1e-10 and monotone,
           "max scaling defect %.3e; monotone limit errors: %s"
           % (worst, monotone))


def test_criterion_7_regularized_kernel_moments():
    """Closed-form kernel moment against direct regularized quadrature."""
    worst = 0.0
    for alpha in (0.5, 1.0, 1.5):
        val, _ = reg_halfline(lambda t: 1.0 * (t < 1.0), alpha,
                              derivs=lambda q: 0.0 if q else 1.0)
        worst = max(worst, abs(val - i_reg(1.0, alpha)))
    limit_err = abs(i_reg(1.0, 1e-6) - math.pi / 2.0)
    report(7, worst < 1e-6 and limit_err < 1e-6,
           "indicator gap %.3e; alpha->0 limit gap %.3e"
           % (worst, limit_err))


def _stencil_matrix(rng, rows=4):
    """Lag stencil of a random PSD zero-row-sum matrix admissible on
    2 < alpha < 4: the diagonal sums of b^T b."""
    b = np.zeros((rows, rows + 2))
    for r in range(rows):
        b[r, r:r + 3] = rng.uniform(0.2, 1.0) * np.array([1.0, -2.0, 1.0])
    mat = b.T @ b
    offs = np.arange(-rows - 1, rows + 2)
    return offs, np.array([np.trace(mat, d) for d in offs])


def test_criterion_8_lattice_potentials():
    """Potentials reproduce the continuum normalization and signs."""
    ref = potential_eigenvalue(ring_potential([1.0]), 1.0, 1.0)
    ref_err = abs(ref + math.pi)
    route = -0.5 * unit_sphere_moment(1, 1.0) * v_integral_quadrature(1, 1.0)
    route_err = abs(ref - route)

    rng = np.random.default_rng(20260826)
    signs_ok = True
    for _ in range(5):
        v = ring_potential(rng.uniform(0.1, 1.0, size=rng.integers(1, 4)))
        for alpha in np.linspace(0.2, 1.8, 7):
            signs_ok = signs_ok and (scaling_factor(v, alpha)
                                     * c_standard(1, alpha) <= 0.0)
    for _ in range(5):
        v = _stencil_matrix(rng)
        for alpha in np.linspace(2.2, 3.8, 7):
            signs_ok = signs_ok and (scaling_factor(v, alpha)
                                     * c_standard(1, alpha) <= 0.0)

    diff_zero = all(central_diff_power(m, 2 * j) == 0.0
                    for m in range(2, 6) for j in range(1, m))
    ok = ref_err < 1e-10 and route_err < 1e-8 and signs_ok and diff_zero
    report(8, ok, "ref err %.2e; route err %.2e; signs ok %s; "
           "even-moment zeros exact %s"
           % (ref_err, route_err, signs_ok, diff_zero))
