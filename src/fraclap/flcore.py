"""Fractional Laplacian representations applied to test fields.

Three interchangeable routes to -(-Delta)^(alpha/2):

  * fl_standard   - the Levy-range singular integral (0 < alpha < 2),
    which is the m = 1 difference form with the Levy constant,
  * fl_order_m    - the order-2m difference kernel (0 < alpha < 2m),
  * fl_regularized - the eps-regularized form, valid for every alpha >= 0
    and collapsing to (-1)^(p+1) Delta^p at alpha = 2p.

fl_apply dispatches on their names (REPRESENTATIONS).  All of them run
through one driver (_operator), which takes the form's constant and its
stencil order m (0: the field itself, times the lead -sin(pi alpha/2)
that _lead applies) and integrates over radii the field's sphere mean
(Field.sphere_mean, in closed form) under one tolerance rule.  Plane
waves take the analytic angular reduction through the unit-sphere
moment.  Their
k-independent radial factor is one cosine finite part for every form
(constants.cos_moment, cached per form and alpha) and is still computed
by genuine quadrature, so cross-checks against -|k|^alpha stay
meaningful.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (DomainError, c_standard_levy, cos_moment, gamma,
                        norm_constants, radial_stencil, sin_half_pi,
                        stencil_series, unit_sphere_moment)
from .fields import PlaneWave
from .quad import QuadratureError, finite_part


@dataclass
class FLResult:
    value: complex
    error: float
    representation: str
    alpha: float
    n: int
    m: int | None = None


def sphere_rule(n):
    """Full-sphere quadrature nodes and weights (total weight |S^(n-1)|),
    exact for direction polynomials to degree 15 (the Taylor data needs
    14): the two-point rule (n = 1), the 16-point trapezoid rule in the
    angle (n = 2), 8-point Gauss-Legendre in cos(theta) times it in phi
    (n = 3)."""
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        phi = 2.0 * math.pi * np.arange(16) / 16
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return dirs, np.full(16, 2.0 * math.pi / 16)
    if n == 3:
        c, wc = np.polynomial.legendre.leggauss(8)
        phi = 2.0 * math.pi * np.arange(16) / 16
        cc, pp = np.meshgrid(c, phi, indexing="ij")
        s = np.sqrt(1.0 - cc ** 2)
        dirs = np.stack([s * np.cos(pp), s * np.sin(pp), cc], axis=-1)
        return dirs.reshape(-1, 3), np.repeat(wc * math.pi / 8, 16)
    raise DomainError("n must be 1, 2 or 3")


def _lead(m, alpha):
    """The kernel's lead: 1 for a difference (m >= 1); for the field itself
    (m = 0) the regularized kernel's eps -> 0+ limit, -sin(pi alpha/2)."""
    return 1.0 if m else -sin_half_pi(alpha)


def _radial_singular(u, x, alpha, m, qmax, tol):
    """integral over radii of sum_p w_p u.sphere_mean(x, p r) r^(-1-alpha),
    the order-2m stencil (m = 0: u itself, the regularized form's profile)
    of a decaying field's sphere mean; the result carries _lead(m,
    alpha).  The Taylor data sums line derivatives over sphere_rule(u.n).
    Returns (value, err)."""
    offs, w = radial_stencil(m)
    dirs, wts = sphere_rule(u.n)
    omega_tot = float(np.sum(wts))

    tiny = tol * 1e-2
    big = u.decay_radius(x, tiny)

    def deriv(q):   # sphere-rule sum of the line derivatives
        return float(np.real(u.line_deriv(x, dirs, q)) @ wts)

    # the series from order 2m up, its remainder at order qmax + 2
    taylor, k = stencil_series(offs, w, range(2 * m, qmax + 2, 2), deriv,
                               lambda q: u.sup_line_deriv(q) * omega_tot)

    def profile(r):
        return w @ [np.real(u.sphere_mean(x, p * r)) for p in offs]

    # beyond the decay radius only the central weight survives
    w0 = float(np.sum(w[offs == 0]))
    val, err = finite_part(profile, alpha, taylor, (k, qmax + 2 - alpha),
                           tol, big, min(getattr(u, "sigma", 1.0), 1.0),
                           [(w0 * deriv(0), 0.0)] if w0 else [], [1.0])
    lead = _lead(m, alpha)
    return lead * val, abs(lead) * (
        err + omega_tot * 4.0 ** m * tiny * big ** (-alpha) / alpha)


@functools.lru_cache(maxsize=64)
def _plane_wave_factor(m, alpha, tol):
    """The k-independent radial factor of a plane wave, (F, error): the
    cosine finite part of radial_stencil(m) times _lead(m, alpha).  A
    sweep over k reuses it."""
    f, err = cos_moment(m, alpha, tol)
    lead = _lead(m, alpha)
    return lead * f, abs(lead) * err


def _operator(u, x, alpha, m, coef, label, tol):
    """coef times the radial integral of the order-2m stencil of u at x
    (m = 0: u itself), the one path of all three forms.  A plane wave
    takes the analytic angular reduction, coef U(n, alpha) k^alpha u(x)
    times _plane_wave_factor.  Any other field takes one _radial_singular,
    its series to order min(14, max_line_deriv), with rtol = tol /
    max(|coef|, 1e-3) for the radial integral and its decay radius.  A
    non-finite value raises QuadratureError."""
    n = u.n
    with np.errstate(all="ignore"):     # a non-finite value is refused
        if isinstance(u, PlaneWave):
            amp = (coef * unit_sphere_moment(n, alpha)
                   * np.float64(u.wavenumber) ** alpha)
            f, ferr = _plane_wave_factor(m, alpha, min(tol, 1e-12))
            u0 = u(np.atleast_1d(np.asarray(x, dtype=float)))
            value, error = amp * f * u0, abs(amp) * ferr
        else:
            rtol = tol / max(abs(coef), 1e-3)
            val, rerr = _radial_singular(u, x, alpha, m,
                                         min(14, u.max_line_deriv), rtol)
            value, error = coef * val, abs(coef) * (rtol + rerr)
    if not np.isfinite(value):
        raise QuadratureError("the %s form's value is not finite" % label)
    return FLResult(value, error, label, alpha, n, m or None)


REPRESENTATIONS = ("standard", "order_m", "regularized")


def fl_standard(u, x, alpha, tol=1e-9):
    """Levy-range singular integral form, 0 < alpha < 2."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(
            "standard form needs 0 < alpha < 2: the kernel moment "
            "r^(2-alpha) diverges outside the Levy range")
    coef = 0.5 * c_standard_levy(u.n, alpha)
    return _operator(u, x, alpha, 1, coef, "standard", tol)


def fl_order_m(u, x, alpha, m, tol=1e-9):
    """Order-2m difference-kernel form, 0 < alpha < 2m."""
    coef = norm_constants(m, u.n, alpha).c_general   # validates 0 < alpha < 2m
    return _operator(u, x, alpha, m, coef, "order_m", tol)


def fl_regularized(u, x, alpha, tol=1e-10):
    """eps-regularized representation, valid for every alpha >= 0.

    Even integer alpha dispatches to the analytic branch
    (-1)^(p+1) Delta^p u; fractional alpha takes the eps -> 0+ limit of
    the radial integral in closed form, -sin(pi alpha/2) times a finite
    part (quad.finite_part).
    """
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    half = alpha / 2.0
    if abs(half - round(half)) <= 1e-12:
        p = round(half)
        with np.errstate(all="ignore"):     # a non-finite value is refused
            value = (-1.0) ** (p + 1) * u.laplacian_power(x, p)
        if not np.isfinite(value):
            raise QuadratureError("the regularized form's value is not finite")
        return FLResult(value, 0.0, "regularized", alpha, u.n, None)
    # the small-radius series needs line derivatives beyond order
    # alpha + 1; a plane wave's factor has an exact series but keeps the
    # field's order limit, beyond alpha
    if min(14, u.max_line_deriv) <= alpha + (
            0 if isinstance(u, PlaneWave) else 1):
        raise DomainError("field cannot supply enough derivative data "
                          "for alpha = %g" % alpha)
    coef = (-2.0 * gamma(alpha + 1.0)
            / (math.pi * unit_sphere_moment(u.n, alpha)))
    return _operator(u, x, alpha, 0, coef, "regularized", tol)


def fl_apply(representation, u, x, alpha, m=1, tol=1e-9):
    """The named representation (one of REPRESENTATIONS) of u at x; m is
    order_m's stencil order.  Each form is looked up when it is called."""
    if representation == "standard":
        return fl_standard(u, x, alpha, tol=tol)
    if representation == "order_m":
        return fl_order_m(u, x, alpha, m, tol=tol)
    if representation == "regularized":
        return fl_regularized(u, x, alpha, tol=tol)
    raise DomainError("unknown representation %r" % representation)


def fl_eigenvalue(representation, alpha, k, n=1, m=1, tol=1e-9):
    """Plane-wave eigenvalue of the chosen representation at |k| = k.

    Exact answer is -k^alpha; the returned number keeps the quadrature
    content of the representation (the angular factor is analytic), so
    agreement with -k^alpha is a genuine cross-check.  tol goes to each
    representation.
    """
    if k <= 0.0:
        raise DomainError("k must be positive")
    pw = PlaneWave(np.concatenate([[k], np.zeros(n - 1)]))
    res = fl_apply(representation, pw, np.zeros(n), alpha, m, tol)
    return complex(res.value).real
