"""Closed-form constants for the fractional Laplacian representations.

Everything here is exact analysis: the Euler gamma function (the
standard library's math.gamma), the half-angle sine with exact zeros at
even integers, the one difference stencil (forward_weights builds the
integer weights of (D - 1)^k, diff_weights is its centred order-2m case,
stencil_moment their exact power sums, stencil_series the small-step
series and its remainder that every difference operator takes), the
Richardson-refined even derivative, the unit-sphere angular moment, the
cosine finite part of a stencil (the plane-wave radial factor of every
operator form, and V by quadrature), and the normalization constants
tying the lattice, singular-integral and regularized forms together.
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


def forward_weights(k):
    """Stencil of the forward difference (D - 1)^k: offsets 0..k and the
    integer-valued weights (-1)^(k-j) C(k, j)."""
    offs = np.arange(k + 1)
    return offs, np.array([(-1) ** (k - j) * math.comb(k, j) for j in offs],
                          dtype=float)


def diff_weights(m):
    """Stencil of the even-order difference -(2 - D - D^-1)^m.

    The centred order-2m case (-1)^(m+1) D^-m (D - 1)^(2m) of
    forward_weights: offsets -m..m, w_0 = -(2m)!/(m!)^2 and w_(+-p) =
    (-1)^(p+1) (2m)!/((m+p)!(m-p)!).  Applied to samples u(x + p*h) this
    is the 2m-th order self-similar building block; times (-1)^(m+1) it
    is the central difference of order 2m.
    """
    check_order(m)
    offs, w = forward_weights(2 * m)
    return offs - m, (-1) ** (m + 1) * w


def stencil_moment(offs, w, q):
    """M_q = sum_p w_p p^q of a stencil.

    Integer q sums integer-valued weights in Python integers, so the
    moments below the stencil's order are exact zeros and the others
    exact; any other weight sums as a float.  A fractional power q
    sums w_p |p|^q over p != 0 relative to the exact integer moment at
    the nearest even order 2j, as that moment plus the sum of
    w_p |p|^2j expm1((q - 2j) ln|p|): where that moment is 0 nothing
    cancels, so the sum keeps its digits however close q is to 2j.
    """
    w = [int(wp) if float(wp).is_integer() else float(wp) for wp in w]
    if q == int(q):
        return sum(wp * int(p) ** int(q) for p, wp in zip(offs, w))
    j2 = 2 * round(q / 2)
    terms = [wp * abs(int(p)) ** j2 for p, wp in zip(offs, w) if p]
    logs = [math.log(abs(int(p))) for p in offs if p]
    return sum(terms) + sum(float(t) * math.expm1((q - j2) * lg)
                            for t, lg in zip(terms, logs))


def stencil_series(offs, w, orders, deriv, sup):
    """The small-step series sum_p w_p g(p z) = sum_q c_q z^q + R(z) as
    (c, K): c maps each q in the range orders with M_q != 0 to
    M_q g^(q)(0) / q!, g^(q)(0) = deriv(q), and each offset's Lagrange
    remainder at e = orders.stop gives |R(z)| <= K z^e with K = sum_p
    |w_p p^e| sup(e) / e!, sup(e) >= |g^(e)|.  A range of step 2 takes the
    odd orders it skips as 0 (symmetric stencils, antipodal directions)."""
    moments = {q: stencil_moment(offs, w, q) for q in orders}
    c = {q: mq / math.factorial(q) * deriv(q)
         for q, mq in moments.items() if mq}
    e = orders.stop
    return c, (stencil_moment(np.abs(offs), np.abs(w), e)
               / math.factorial(e) * sup(e))


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

    Closed form 2^alpha (-1)^(m+1) sum_p w_p |p|^alpha over the
    diff_weights stencil, summed as twice its p > 0 half (p = 0 adds
    nothing).  Integer alpha sums in exact integer arithmetic, so the
    interior zeros (even alpha < 2m) come out exactly 0.
    """
    offs, w = diff_weights(m)
    if alpha < 0.0:
        raise DomainError("alpha must be >= 0")
    half = stencil_moment(offs[offs > 0], w[offs > 0], alpha)
    # the sign goes on the sum, so that an exact zero stays +0.0
    return 2.0 ** (1.0 + alpha) * ((-1) ** (m + 1) * half)


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


def radial_stencil(m):
    """The stencil of a radial integral's profile: diff_weights(m), or the
    single offset 1 (the field itself) for m = 0."""
    return diff_weights(m) if m else (np.array([1]), np.array([1.0]))


def cos_moment(m, alpha, tol=1e-12):
    """Finite part of integral_0^inf sum_p w_p cos(p r) r^(-1-alpha) dr
    over radial_stencil(m): -V(m, alpha) for m >= 1, and
    Gamma(-alpha) cos(pi alpha/2) for m = 0.

    It runs in x = r/2, where the stencil sum is -4^m sin(x)^(2m) (cos(2x)
    for m = 0); summing the stencil itself cancels at large m.  The series
    is stencil_series of cos(2x) to order 2m + 38.  Adaptive quadrature,
    split at each multiple of pi, runs to 2(alpha+15) + pi, and the
    cosines beyond it are taken in closed form.  Returns (value, error).
    """
    if m:
        _check_mv(m, alpha)
    elif alpha <= 0.0 or sin_half_pi(alpha) == 0.0:
        raise DomainError("the m = 0 moment needs alpha > 0, not even")
    offs, w = radial_stencil(m)
    e = 2 * m + 40
    taylor, k = stencil_series(offs, w, range(2 * m, e, 2),
                               lambda q: (-1) ** (q // 2) * 2 ** q,
                               lambda q: 2 ** q)
    if m:
        def profile(x):
            return -4.0 ** m * np.sin(x) ** (2 * m)
    else:
        def profile(x):
            return np.cos(2.0 * x)
    big = 2.0 * (alpha + 15.0) + math.pi
    val, err = finite_part(profile, alpha, taylor, (k, e - alpha), tol, big,
                           1.0, [(wp, 2.0 * abs(p)) for p, wp in zip(offs, w)],
                           math.pi * np.arange(1.0, big / math.pi))
    return 2.0 ** -alpha * val, 2.0 ** -alpha * err


def v_integral_quadrature(m, alpha, tol=1e-12):
    """V(m, alpha) = 2^(2m-alpha) integral_0^inf sin^(2m) x / x^(alpha+1)
    by quadrature: minus the cosine moment of the order-2m stencil."""
    return -cos_moment(m, alpha, tol)[0]


def v_integral(m, alpha):
    """Radial normalization V(m, alpha) for 0 < alpha < 2m.

    Closed form pi (-1)^(m+1) central_diff_power / (2^(alpha+1)
    Gamma(alpha+1) sin(pi alpha/2)) for fractional alpha/2.  At even
    alpha = 2j the closed form is 0/0, and its limit is
    2 (-1)^j sum_(p>1) w_p p^(2j) ln p / Gamma(alpha+1).
    """
    _check_mv(m, alpha)
    s = sin_half_pi(alpha)
    if s == 0.0:
        j = round(alpha / 2)
        offs, w = diff_weights(m)
        dsum = sum(float(int(wp) * int(p) ** (2 * j)) * math.log(p)
                   for p, wp in zip(offs, w) if p > 1)
        return 2.0 * (-1) ** j * dsum / gamma(alpha + 1.0)
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
