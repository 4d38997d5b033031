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
that _lead applies) and integrates the angular average first and the
radial variable second under one tolerance rule.  Plane waves take the
analytic angular reduction through the unit-sphere moment.  Their
k-independent radial factor is one cosine finite part for every form
(constants.cos_moment, cached per form and alpha) and is still computed
by genuine quadrature, so cross-checks against -|k|^alpha stay
meaningful.
"""

import functools
import math
import warnings
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


def sphere_rule(n, level=0):
    """Full-sphere quadrature nodes and weights (total weight |S^(n-1)|).

    n = 1 is the exact two-point rule; n = 2 uses the trapezoid rule in
    the angle (spectrally accurate for smooth integrands); n = 3 pairs
    Gauss-Legendre in cos(theta) with the trapezoid in phi.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if n == 2:
        mm = 16 * 2 ** level
        phi = 2.0 * math.pi * np.arange(mm) / mm
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return dirs, np.full(mm, 2.0 * math.pi / mm)
    if n == 3:
        kk = 8 * 2 ** level
        c, wc = np.polynomial.legendre.leggauss(kk)
        phi = 2.0 * math.pi * np.arange(2 * kk) / (2 * kk)
        cc, pp = np.meshgrid(c, phi, indexing="ij")
        s = np.sqrt(1.0 - cc ** 2)
        dirs = np.stack([s * np.cos(pp), s * np.sin(pp), cc], axis=-1)
        return dirs.reshape(-1, 3), np.repeat(wc * math.pi / kk, 2 * kk)
    raise DomainError("n must be 1, 2 or 3")


def _lead(m, alpha):
    """The kernel's lead: 1 for a difference (m >= 1); for the field itself
    (m = 0) the regularized kernel's eps -> 0+ limit, -sin(pi alpha/2)."""
    return 1.0 if m else -sin_half_pi(alpha)


def _radial_singular(u, x, alpha, m, qmax, tol, dirs, wts):
    """integral over directions and radii of Delta_2m(r nhat) u(x)
    r^(-1-alpha), for a decaying field; m = 0 takes u(x + r nhat) itself,
    the profile of the regularized form; the result carries _lead(m,
    alpha).  Returns (value, err)."""
    offs, w = radial_stencil(m)
    omega_tot = float(np.sum(wts))

    tiny = tol * 1e-2
    big = u.decay_radius(x, tiny)

    def deriv(q):   # sphere-rule sum of the line derivatives
        return float(np.real(u.line_deriv(x, dirs, q)) @ wts)

    # the series from order 2m up, its remainder at order qmax + 2
    taylor, k = stencil_series(offs, w, range(2 * m, qmax + 2, 2), deriv,
                               lambda q: u.sup_line_deriv(q) * omega_tot)

    # a ray call per stencil offset: batches 2m+1 times smaller in memory
    def profile(r):
        return w @ [np.real(u.on_ray(x, dirs, p * r)) @ wts for p in offs]

    # beyond the decay radius only the central weight survives
    w0 = float(np.sum(w[offs == 0]))
    val, err = finite_part(profile, alpha, taylor, (k, qmax + 2 - alpha),
                           tol, big, min(getattr(u, "sigma", 1.0), 1.0),
                           [(w0 * deriv(0), 0.0)] if w0 else [], [1.0])
    lead = _lead(m, alpha)
    return lead * val, abs(lead) * (
        err + omega_tot * 4.0 ** m * tiny * big ** (-alpha) / alpha)


def _angular_loop(compute, n, tol):
    """Evaluate compute(tol, dirs, wts) -> (value, radial error) on refining
    sphere rules until stable.  Returns the last value, its change from
    the rule before, and the radial error of that value."""
    if n == 1:
        val, err = compute(tol, *sphere_rule(1))
        return val, 0.0, err
    prev = None
    for level in range(5):
        val, err = compute(tol, *sphere_rule(n, level))
        change = math.inf if prev is None else abs(val - prev)
        if change < 0.5 * tol or not math.isfinite(val):  # NaN never settles
            return val, change, err
        prev = val
    warnings.warn("angular quadrature did not stabilize; returning anyway")
    return val, change, err


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
    times _plane_wave_factor.  Any other field runs the angular loop over
    _radial_singular, its series to order min(14, max_line_deriv), with
    rtol = tol / max(|coef|, 1e-3) for the radial integral, its decay
    radius and the loop.  A non-finite value raises QuadratureError."""
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
            radial = functools.partial(_radial_singular, u, x, alpha, m,
                                       min(14, u.max_line_deriv))
            val, aerr, rerr = _angular_loop(radial, n, rtol)
            value, error = coef * val, abs(coef) * (aerr + rtol + rerr)
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
