"""Closed-form constants for the fractional Laplacian representations.

Everything here is exact analysis: the Euler gamma function (the
standard library's math.gamma), the half-angle sine with exact zeros at
even integers, the central difference weights, their power sums and the
Richardson-refined even derivative built on them, the unit-sphere
angular moment, the sine-power radial integral, and the normalization
constants tying the lattice, singular-integral and regularized forms
together.
"""

import math

import numpy as np

from .quad import finite_part


class DomainError(ValueError):
    """Parameter outside the admissible range of an operation."""


def gamma(x):
    """Euler gamma (math.gamma); DomainError at the poles."""
    if x == math.floor(x) and x <= 0.0:
        raise DomainError("gamma pole at non-positive integer %g" % x)
    return math.gamma(x)


def sin_half_pi(alpha):
    """sin(pi*alpha/2) with exact zeros at even integer alpha.

    Integer range reduction modulo 4 keeps the argument in [-1, 1] before
    calling math.sin, so the zeros of the distributional regime are exact
    floating-point zeros rather than ~1e-16 residues.
    """
    r = math.fmod(alpha, 4.0)           # exact
    if r > 2.0:
        r -= 4.0
    elif r < -2.0:
        r += 4.0
    if r == 0.0 or r == 2.0 or r == -2.0:
        return 0.0
    if r > 1.0:
        r = 2.0 - r
    elif r < -1.0:
        r = -2.0 - r
    return math.sin(0.5 * math.pi * r)


def check_order(m):
    """Raise DomainError unless m is a difference order in 1..20."""
    if not isinstance(m, int) or m < 1 or m > 20:
        raise DomainError("m must be an integer in 1..20")


def diff_weights(m):
    """Stencil of the even-order difference -(2 - D - D^-1)^m.

    Returns offsets -m..m and integer-valued weights: w_0 = -(2m)!/(m!)^2
    and w_(+-p) = (-1)^(p+1) (2m)!/((m+p)!(m-p)!).  Applied to samples
    u(x + p*h) this is the 2m-th order self-similar building block; times
    (-1)^(m+1) it is the central difference of order 2m.
    """
    check_order(m)
    offs = list(range(-m, m + 1))
    fact = math.factorial(2 * m)
    w = []
    for p in offs:
        q = abs(p)
        if q == 0:
            w.append(-fact // (math.factorial(m) ** 2))
        else:
            w.append((-1) ** (q + 1) * fact
                     // (math.factorial(m + q) * math.factorial(m - q)))
    return np.array(offs), np.array(w, dtype=float)


def even_deriv(sample, q, h):
    """q-th derivative at 0 (q even) of a smooth function by central
    differences at steps h and h/2, Richardson-refined.

    sample maps an array of offsets t to the values g(t), with optional
    trailing axes for several functions; the term-by-term stencil sum
    gives each the same value as alone.  The error is O(h^4) with a
    constant set by the higher derivatives of g.
    """
    offs, w = diff_weights(q // 2)
    w = (-1) ** (q // 2 + 1) * w
    ests = [sum(wi * g for wi, g in zip(w, sample(offs * hh))) / hh ** q
            for hh in (h, 0.5 * h)]
    return (4.0 * ests[1] - ests[0]) / 3.0


def central_diff_power(m, alpha):
    """(D(1) - D(-1))^(2m) applied to |lam|^alpha at lam = 0.

    Closed form 2^(1+alpha) (-1)^m sum_p (2m)!/((m+p)!(m-p)!) (-1)^p
    p^alpha.  For even integer alpha the sum is done in exact integer
    arithmetic, so the interior zeros (alpha/2 < m) come out exactly 0.
    """
    check_order(m)
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    fact = math.factorial(2 * m)
    half = alpha / 2.0
    if alpha == math.floor(alpha) and half == math.floor(half):
        a = int(alpha)
        s = sum(fact // (math.factorial(m + p) * math.factorial(m - p))
                * (-1) ** p * p ** a for p in range(1, m + 1))
        return float(2 ** (1 + a) * (-1) ** m * s)
    s = sum(fact / (math.factorial(m + p) * math.factorial(m - p))
            * (-1) ** p * p ** alpha for p in range(1, m + 1))
    return 2.0 ** (1.0 + alpha) * (-1) ** m * s


def unit_sphere_moment(n, alpha):
    """U(n, alpha) = integral over S^(n-1) of |e . xhat|^alpha.

    General form 2 pi^((n-1)/2) Gamma((alpha+1)/2) / Gamma((alpha+n)/2);
    U(1) = 2 for every alpha.
    """
    if n not in (1, 2, 3):
        raise DomainError("n must be 1, 2 or 3")
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    return (2.0 * math.pi ** (0.5 * (n - 1))
            * gamma(0.5 * (alpha + 1.0)) / gamma(0.5 * (alpha + n)))


def v_integral_quadrature(m, alpha, tol=1e-12):
    """V(m, alpha) = 2^(2m-alpha) integral_0^inf sin^(2m) x / x^(alpha+1).

    The finite-part driver takes it in three regions: the Taylor series of
    sin^(2m) term by term below x = 1/2 (the adaptive rule cannot resolve
    the x^(2m-alpha-1) endpoint when alpha is close to 2m), adaptive
    quadrature up to 60 pi, and beyond that the Fourier series of sin^(2m)
    term by term in closed form.
    """
    _check_mv(m, alpha)
    # sin^(2m) x = sum of c cos(omega x) over these (c, omega)
    waves = [((2.0 if j else 1.0) * (-1) ** j * math.comb(2 * m, m - j)
              / 4.0 ** m, 2.0 * j) for j in range(m + 1)]
    # sin^(2m) x = x^(2m) (sin x / x)^(2m), a power of a series in x^2 that
    # does not cancel; each cos(omega x) leaves out at most (omega x)^q / q!
    sinc = [(-1.0) ** k / math.factorial(2 * k + 1) for k in range(20)]
    series = [1.0]
    for _ in range(2 * m):
        series = np.convolve(series, sinc)[:20]
    q = 2 * m + 40
    rem = (sum(abs(c) * w ** q for c, w in waves) / math.factorial(q),
           q - alpha)
    val, _ = finite_part(lambda x: np.sin(x) ** (2 * m), alpha,
                         {2 * (m + k): g for k, g in enumerate(series)}, rem,
                         tol, 60.0 * math.pi, 1.0, waves, [1.0])
    return 2.0 ** (2 * m - alpha) * val


def v_integral(m, alpha):
    """Radial normalization V(m, alpha) for 0 < alpha < 2m.

    Closed form pi (-1)^(m+1) central_diff_power / (2^(alpha+1)
    Gamma(alpha+1) sin(pi alpha/2)) for fractional alpha/2; even integer
    alpha (where the closed form is 0/0) falls back to quadrature.
    """
    _check_mv(m, alpha)
    s = sin_half_pi(alpha)
    if s == 0.0:
        return v_integral_quadrature(m, alpha)
    return ((-1) ** (m + 1) * math.pi * central_diff_power(m, alpha)
            / (2.0 ** (alpha + 1.0) * gamma(alpha + 1.0) * s))


def _check_mv(m, alpha):
    check_order(m)
    if not 0.0 < alpha < 2.0 * m:
        raise DomainError("need 0 < alpha < 2m, got alpha=%g, m=%d"
                          % (alpha, m))


def c_standard(n, alpha):
    """Normalization of the standard singular-integral form.

    Gamma((alpha+n)/2) Gamma(alpha+1) sin(pi alpha/2)
    / (pi^((n+1)/2) Gamma((alpha+1)/2)); exactly 0 at even integer alpha,
    where the representation degenerates to a distribution.
    """
    if n not in (1, 2, 3):
        raise DomainError("n must be 1, 2 or 3")
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    s = sin_half_pi(alpha)
    if s == 0.0:
        return 0.0
    return (gamma(0.5 * (alpha + n)) * gamma(alpha + 1.0) * s
            / (math.pi ** (0.5 * (n + 1)) * gamma(0.5 * (alpha + 1.0))))


def c_standard_levy(n, alpha):
    """Levy-range form 2^(alpha-1) alpha Gamma((alpha+n)/2)
    / (pi^(n/2) Gamma(1 - alpha/2)), valid for 0 < alpha < 2."""
    if n not in (1, 2, 3):
        raise DomainError("n must be 1, 2 or 3")
    if not 0.0 < alpha < 2.0:
        raise DomainError("need 0 < alpha < 2")
    return (2.0 ** (alpha - 1.0) * alpha * gamma(0.5 * (alpha + n))
            / (math.pi ** (0.5 * n) * gamma(1.0 - 0.5 * alpha)))


class NormConstants:
    """Bundle of the constants for one (m, n, alpha) triple."""

    def __init__(self, m, n, alpha):
        _check_mv(m, alpha)
        self.m, self.n, self.alpha = m, n, alpha
        self.u_moment = unit_sphere_moment(n, alpha)
        self.v_radial = v_integral(m, alpha)
        self.a_factor = self.u_moment * self.v_radial
        self.c_general = 1.0 / self.a_factor
        self.c_standard = c_standard(n, alpha)
        self.distributional = (self.c_standard == 0.0)

    def __repr__(self):
        return ("NormConstants(m=%d, n=%d, alpha=%g, U=%.17g, V=%.17g, "
                "A=%.17g, C_general=%.17g, C_standard=%.17g)"
                % (self.m, self.n, self.alpha, self.u_moment, self.v_radial,
                   self.a_factor, self.c_general, self.c_standard))


def norm_constants(m, n, alpha):
    return NormConstants(m, n, alpha)


def a_delta(delta, h=1.0, zeta=1.0):
    """Continuum-limit amplitude (h^delta/zeta) pi
    / (Gamma(delta+1) sin(pi delta/2)), defined for 0 < delta < 2."""
    if not 0.0 < delta < 2.0:
        raise DomainError("need 0 < delta < 2")
    if h <= 0.0 or zeta <= 0.0:
        raise DomainError("h and zeta must be positive")
    return (h ** delta / zeta) * math.pi / (gamma(delta + 1.0)
                                            * sin_half_pi(delta))
