"""Adaptive quadrature and the one finite-part driver for singular radial
integrals.

finite_part takes the Hadamard finite part of integral_0^inf f(r)
r^(-1-alpha) dr for a smooth even profile f: its Taylor series term by
term below a matching radius, adaptive quadrature beyond it, and a closed
form past the quadrature radius.  Its three callers supply their own
profile and Taylor data: the regularized half-line integral of a
decaying profile (reg_halfline), the radial integral of every flcore
form, and the cosine finite part of a stencil (constants.cos_moment),
which is every form's plane-wave factor and V by quadrature.
"""

import cmath
import math

import numpy as np


class QuadratureError(RuntimeError):
    """Requested tolerance not met within the panel budget."""


# relative rounding of a floating-point sum, the floor below which no
# error estimate of a sum of terms can go
_ROUND = 50.0 * np.finfo(float).eps
_TAIL_TERMS = 14        # terms of osc_power_tail's asymptotic series


# 15-point Kronrod rule with the embedded 7-point Gauss rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_IG = np.arange(1, 15, 2)   # Gauss nodes sit at the odd Kronrod indices


def _panel(f, a, b):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = np.asarray(f(mid + half * _XK))
    ik = half * (_WK * y).sum()
    ig = half * (_WG * y[_IG]).sum()
    err = abs(ik - ig)
    if not math.isfinite(err):  # also when ik is not: NaN would never settle
        raise QuadratureError("integrand not finite on (%r, %r)" % (a, b))
    return ik, err


def integrate_adaptive(f, lo, hi, tol=1e-10, limit=20000, points=()):
    """Integrate a vectorized callable on the finite range (lo, hi).

    Bisects the panel with the largest Kronrod-Gauss error estimate until
    the summed estimate drops below tol (absolute); a non-finite panel
    raises QuadratureError.  Returns (value, err)."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("need finite limits, got (%r, %r)" % (lo, hi))
    cuts = [lo] + sorted(p for p in points if lo < p < hi) + [hi]
    panels = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        ik, err = _panel(f, a, b)
        panels.append((err, a, b, ik))

    while True:
        total = sum(p[3] for p in panels)
        errsum = sum(p[0] for p in panels)
        floor = _ROUND * sum(abs(p[3]) for p in panels)
        if errsum <= max(tol, floor):
            return total, errsum
        if len(panels) >= limit:
            raise QuadratureError(
                "tolerance %g not met within %d panels (err=%g)"
                % (tol, limit, errsum))
        panels.sort(key=lambda p: p[0])
        _, a, b, _ = panels.pop()
        m = 0.5 * (a + b)
        if m <= a or m >= b:
            # panel collapsed to rounding width; keep its estimate
            ik, err = _panel(f, a, b)
            panels.append((0.0, a, b, ik))
            continue
        ik, err = _panel(f, a, m)
        panels.append((err, a, m, ik))
        ik, err = _panel(f, m, b)
        panels.append((err, m, b, ik))


# Re(i^p z) for p mod 4 = 0,1,2,3 without going through complex pow,
# so that the purely real lower-boundary terms drop *exactly*.
def _re_rot(p, z):
    p %= 4
    if p == 0:
        return z.real
    if p == 1:
        return -z.imag
    if p == 2:
        return -z.real
    return z.imag


def kernel_moment(q, alpha, eps, cut):
    """Re of the q-th moment of (eps - i*xi)^(-alpha-1) on (0, cut).

    q must be even (odd moments never arise: the profiles integrated here
    are even).  Substituting w = eps - i*xi turns the moment into a finite
    binomial sum whose eps-boundary terms are purely real and are killed
    exactly by the i^(q+1) rotation, so the result is cancellation-free
    even when eps^(-alpha) would overflow the naive route.  eps = 0 gives
    the tempered limit directly.
    """
    from .constants import forward_weights
    if q % 2:
        raise ValueError("only even moments are defined for even profiles")
    if eps < 0.0 or cut <= 0.0:
        raise ValueError("need eps >= 0 and cut > 0")
    w1 = complex(eps, -cut)
    acc = 0j
    for j, b in enumerate(forward_weights(q)[1].tolist()):
        c = b * eps ** (q - j)
        if c == 0.0:
            continue
        e = j - alpha
        if abs(e) < 1e-13:
            # log branch (alpha an integer <= q); log(eps) is real and
            # would drop from the rotated real part anyway
            acc += c * cmath.log(w1)
        else:
            acc += c * w1 ** e / e
    return _re_rot(q + 1, acc)


def osc_power_tail(omega, lo, s):
    """integral_lo^inf cos(omega*xi) xi^(-s) dxi by parts, omega*lo large.

    Returns (value, bound) where bound is the magnitude of the first
    dropped term of the asymptotic series.
    """
    if omega * lo < 4.0 * (s + _TAIL_TERMS):
        raise ValueError("omega*lo too small for the asymptotic tail")
    total = 0.0
    for sign in (1.0, -1.0):
        w = sign * omega
        val = 0j
        coef = 1.0 + 0j
        p = s
        mag = lo ** (-s)
        for _ in range(_TAIL_TERMS):
            bterm = -coef * cmath.exp(1j * w * lo) * lo ** (-p) / (1j * w)
            val += bterm
            coef *= p / (1j * w)
            p += 1.0
            mag *= p / (abs(w) * lo)
        total += 0.5 * val.real
    return total, mag / (abs(omega) * lo)


def i_reg(xi0, alpha):
    """Regularized value of the kernel integral over (0, xi0).

    Equals sin(pi*alpha/2) * xi0^(-alpha) / alpha, with the alpha -> 0+
    limit pi/2; vanishes at even integer alpha.
    """
    from .constants import sin_half_pi
    if xi0 <= 0.0:
        raise ValueError("xi0 must be positive")
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if alpha == 0.0:
        return 0.5 * math.pi
    return sin_half_pi(alpha) / alpha * xi0 ** (-alpha)


def finite_part(f, alpha, taylor, rem, tol, big, scale=1.0, waves=(),
                points=()):
    """Hadamard finite part of integral_0^inf f(r) r^(-1-alpha) dr.

    taylor maps even q (never alpha) to the coefficient of r^q in f at 0,
    and K r^e / e, with rem = (K, e), bounds the rest of the series
    against the power on (0, r).  The matching radius r_s halves from
    scale/2 while that bound is at least tol/20 and halving lowers its sum
    with the rounding of the series head, _ROUND times the sum of the
    terms' magnitudes: past that point a smaller r_s only trades
    remainder for rounding.  The series integrates term by term below r_s
    and adaptive quadrature to tol/4 covers (r_s, big).  Beyond big f is
    the sum of a*cos(omega*r) over waves = [(a, omega)], integrated in
    closed form.  Returns (value, error): remainder bound + head rounding
    + quadrature estimate + tail bounds.
    """
    k, e = rem

    def head(rs):
        # the series terms up to rs, the remainder bound, their rounding
        terms = [c * rs ** (q - alpha) / (q - alpha)
                 for q, c in taylor.items()]
        return terms, k * rs ** e / e, _ROUND * sum(map(abs, terms))

    rs = 0.5 * scale
    terms, bound, rounding = head(rs)
    while bound >= 0.05 * tol:
        nxt = head(0.5 * rs)
        if nxt[1] + nxt[2] >= bound + rounding:
            break
        rs *= 0.5
        terms, bound, rounding = nxt
    body, err = integrate_adaptive(lambda r: f(r) * r ** (-1.0 - alpha),
                                   rs, big, tol=0.25 * tol, points=points)
    tail = 0.0
    for a, omega in waves:
        if omega == 0.0:
            tail += a * big ** (-alpha) / alpha
        else:
            val, cut = osc_power_tail(omega, big, alpha + 1.0)
            tail += a * val
            err += abs(a) * cut
    return sum(terms) + body + tail, err + bound + rounding


def reg_halfline(f, alpha, derivs, tol=1e-10):
    """eps -> 0+ limit of integral_0^inf f(xi) Re(eps-i*xi)^(-alpha-1) dxi.

    f must be the restriction to (0, inf) of a smooth *even* profile that
    is negligible beyond xi = 30, and derivs maps even order q to
    f^(q)(0) (a dict or callable; a missing order ends the Taylor data).

    The kernel tends to -sin(pi*alpha/2) xi^(-alpha-1) away from 0, and
    its eps -> 0 moments near 0 are that power's finite parts, so the
    limit is -sin(pi*alpha/2) times finite_part.  Returns (value,
    error_estimate).
    """
    from .constants import sin_half_pi
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")

    # Taylor data of the even profile at 0
    get = derivs if callable(derivs) else derivs.get
    taylor = {}
    for q in range(0, 17, 2):
        v = get(q)
        if v is None:
            break
        taylor[q] = v / math.factorial(q)
    if not taylor:
        raise ValueError("need at least f(0)")
    qmax = max(taylor)
    if qmax <= alpha:
        raise ValueError("need Taylor data beyond order alpha")

    lead = -sin_half_pi(alpha)      # the kernel is lead * xi^(-alpha-1)
    if lead == 0.0:
        # even alpha: only the q = alpha moment is left, the limit of
        # lead / (q - alpha)
        return 0.5 * math.pi * (-1) ** round(alpha / 2) * taylor[alpha], 0.0
    val, err = finite_part(f, alpha, taylor,
                           (abs(taylor[qmax]), qmax - alpha), tol, 30.0,
                           points=[1.0])
    return lead * val, abs(lead) * err
