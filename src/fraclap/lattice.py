"""Self-similar harmonic chains and their Weierstrass-Mandelbrot spectra.

The lattice operators are bi-infinite sums over dilation levels s with
weight a^(-delta*s).  Both tails are truncated with certified geometric
bounds: for s -> +inf the difference operators are bounded by the sup of
the field, for s -> -inf by the mean-value bound l^q sup|u^(q)| on a
step-l difference of order q.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import DomainError, check_order, diff_weights
from .quad import integrate_adaptive


@dataclass
class SelfSimilarParams:
    """Exponent delta, dilation a > 1, base step h, difference order m.

    Admissibility 0 < delta < 2m makes both level sums converge; zeta is
    fixed to ln a (the level-density normalization of the continuum
    limit).
    """
    delta: float
    a: float
    h: float = 1.0
    m: int = 1
    tol: float = 1e-12

    def __post_init__(self):
        if self.a <= 1.0:
            raise DomainError("dilation a must exceed 1")
        check_order(self.m)
        if not 0.0 < self.delta < 2.0 * self.m:
            raise DomainError("need 0 < delta < 2m")
        if self.h <= 0.0:
            raise DomainError("h must be positive")
        if self.tol <= 0.0:
            raise DomainError("tol must be positive")

    @property
    def zeta(self):
        return math.log(self.a)


def _level_range(p, amp_pos, amp_neg, decay_neg):
    """Symmetric truncation: largest |s| kept on each side.

    amp_pos bounds the summand for s >= 0 up to the factor a^(-delta*s);
    amp_neg * a^(decay_neg*s) bounds it for s < 0 (decay_neg > 0).
    """
    la = math.log(p.a)
    rp = p.a ** (-p.delta)
    s_pos = max(1, int(math.ceil(
        math.log(max(amp_pos, 1e-300) / (p.tol * (1.0 - rp))) / (p.delta * la))))
    rn = p.a ** (-decay_neg)
    s_neg = max(1, int(math.ceil(
        math.log(max(amp_neg, 1e-300) / (p.tol * (1.0 - rn))) / (decay_neg * la))))
    return s_pos, s_neg


# 2*pi to 85 digits, as an exact rational; used to reduce the phases of
# high dilation levels, where kh * a^s overflows double phase accuracy
_TWO_PI = Fraction(
    6283185307179586476925286766559005768394338798750211641949889184615632812572417997256069,
    10 ** 87)


def _reduced_phase(half_kh, a_frac, s):
    """0.5 * kh * a^s mod 2*pi in exact rational arithmetic.

    Both kh and a are doubles, hence exact rationals, so the only error
    is the 85-digit truncation of 2*pi scaled by the reduced quotient.
    """
    x = half_kh * a_frac ** s
    return float(x - (x // _TWO_PI) * _TWO_PI)


def wm_dispersion(kh, p):
    """omega^2(kh) = 4^m sum_s a^(-delta*s) sin^(2m)(kh a^s / 2).

    Exactly self-similar: omega^2(a*kh) = a^delta omega^2(kh),
    preserved numerically by exact rational phase reduction at high
    levels (whenever the dilated product a*kh itself rounds exactly).
    """
    if kh < 0.0:
        raise DomainError("kh must be >= 0")
    if kh == 0.0:
        return 0.0
    m, d = p.m, p.delta
    amp_pos = 4.0 ** m
    amp_neg = 4.0 ** m * (kh / 2.0) ** (2 * m)
    s_pos, s_neg = _level_range(p, amp_pos, amp_neg, 2.0 * m - d)
    s = np.arange(-s_neg, s_pos + 1)
    ash = p.a ** s.astype(float)
    phase = 0.5 * kh * ash
    big = phase > 1e4
    if np.any(big):
        half_kh = Fraction(kh) / 2
        a_frac = Fraction(p.a)
        phase = phase.copy()
        phase[big] = [_reduced_phase(half_kh, a_frac, int(sv))
                      for sv in s[big]]
    return float(4.0 ** m * np.sum(
        p.a ** (-d * s.astype(float)) * np.sin(phase) ** (2 * m)))


def selfsim_laplacian(u, x, p):
    """sum_s a^(-delta*s) Delta_2m(h a^s) u(x) for a decaying field u."""
    m, d = p.m, p.delta
    offs, w = diff_weights(m)
    u0 = u(np.atleast_1d(np.asarray(x, dtype=float)))
    sup_u = max(abs(u0), 1.0)
    amp_pos = 4.0 ** m * sup_u
    amp_neg = p.h ** (2 * m) * u.sup_line_deriv(2 * m)
    s_pos, s_neg = _level_range(p, amp_pos, amp_neg, 2.0 * m - d)
    total = 0.0 + 0.0j
    direction = np.ones(1)
    sign = (-1.0) ** (m + 1)
    for s in range(-s_neg, s_pos + 1):
        step = p.h * p.a ** s
        if step ** (2 * m) * u.sup_line_deriv(2 * m) < 1e-5 * sup_u:
            # the direct difference is dominated by cancellation noise
            # here; (4 sinh^2(z/2))^m = z^2m (1 + m z^2/12 + ...) gives
            # the same value in Taylor form without it
            diff = sign * step ** (2 * m) * (
                complex(u.line_deriv(x, direction, 2 * m))
                + (m / 12.0) * step ** 2
                * complex(u.line_deriv(x, direction, 2 * m + 2)))
        else:
            vals = u.on_ray(x, direction, offs.astype(float) * step)
            diff = complex(w @ vals)
        total += p.a ** (-d * s) * diff
    if abs(total.imag) <= 1e-13 * max(abs(total.real), 1.0):
        return total.real
    return total


def wm_energy_density(u, x, p, f_m=1.0):
    """(f_m/2) sum_s a^(-delta*s) [(D(h a^s) - 1)^m u(x)]^2.

    Scales as a^delta under h -> a*h; admissible for 0 < delta < 2m.
    """
    m, d = p.m, p.delta
    c = np.array([(-1.0) ** (m - j) * math.comb(m, j)
                  for j in range(m + 1)])
    offs = np.arange(m + 1, dtype=float)
    sup_u = 1.0 if u.wavenumber is not None else max(
        abs(float(np.real(u(np.atleast_1d(np.asarray(x, dtype=float)))))), 1.0)
    amp_pos = (2.0 ** m * sup_u) ** 2
    amp_neg = (p.h ** m * u.sup_line_deriv(m)) ** 2
    s_pos, s_neg = _level_range(p, amp_pos, amp_neg, 2.0 * m - d)
    total = 0.0
    direction = np.ones(1)
    for s in range(-s_neg, s_pos + 1):
        step = p.h * p.a ** s
        vals = u.on_ray(x, direction, offs * step)
        diff = float(np.real(c @ vals))
        total += p.a ** (-d * s) * diff * diff
    return 0.5 * f_m * total


def selfsim_series(f, delta, a, h=1.0, tol=1e-12, max_levels=40000):
    """Direct level sum Lambda_a = sum_s a^(-delta*s) f(a^s h).

    f must vanish like a power > delta at 0 and stay bounded; both tails
    are cut when three consecutive terms fall below tol scaled by the
    geometric remainder factor.
    """
    if a <= 1.0:
        raise DomainError("dilation a must exceed 1")
    total = 0.0
    for sign in (1, -1):
        quiet = 0
        s = 0 if sign > 0 else -1
        ratio = a ** (-delta) if sign > 0 else a ** (-1.0)
        guard = tol * (1.0 - min(ratio, 0.99))
        for _ in range(max_levels):
            term = a ** (-delta * s) * float(f(a ** s * h))
            total += term
            quiet = quiet + 1 if abs(term) < guard else 0
            if quiet >= 3:
                break
            s += sign
        else:
            raise DomainError("level sum did not converge; check admissibility")
    return total


def fractional_continuum_limit(f, delta, h=1.0, tol=1e-10,
                               mean=None, period=None, cutoff=None):
    """h^delta integral_0^inf f(tau) tau^(-delta-1) dtau.

    This is the a -> 1 limit of |ln a| * Lambda_a.  f must vanish faster
    than tau^delta at the origin.  For bounded oscillatory profiles pass
    the asymptotic mean and period: the mean integrates in closed form
    beyond the quadrature radius and the zero-mean remainder is summed
    period by period until the increments drop below tol.
    """
    if not delta > 0.0:
        raise DomainError("delta must be positive")
    if h <= 0.0:
        raise DomainError("h must be positive")

    def g(t):
        return f(t) * t ** (-delta - 1.0)

    if mean is not None:
        if period is None or period <= 0.0:
            raise DomainError("oscillatory tail needs a period")
        big = max(cutoff or 0.0, 8.0 * period, 4.0)
        body, _ = integrate_adaptive(g, 0.0, big, tol=0.2 * tol,
                                     points=[min(1.0, 0.5 * big)])
        tail = mean * big ** (-delta) / delta
        # zero-mean remainder: one Kronrod panel per period, batched;
        # the per-period integrals settle to one sign and decay like
        # tau^(-delta-2), so the final geometric remainder is estimated
        # by its integral and added
        from .quad import _XK, _WK
        lo = big
        acc = 0.0
        val = 0.0
        done = False
        for _ in range(400):
            batch = 64
            starts = lo + period * np.arange(batch)
            mids = starts + 0.5 * period
            nodes = mids[:, None] + 0.5 * period * _XK[None, :]
            vals = 0.5 * period * (
                (f(nodes) - mean) * nodes ** (-delta - 1.0)) @ _WK
            for val in vals:
                acc += val
            lo += batch * period
            if abs(vals[-1]) < 0.3 * tol and lo > big + 8 * period:
                done = True
                break
        if not done:
            raise DomainError("oscillatory tail did not converge")
        acc += val * lo / ((delta + 1.0) * period)
        return h ** delta * (body + tail + acc)

    if cutoff is not None:
        body, _ = integrate_adaptive(g, 0.0, cutoff, tol=0.5 * tol,
                                     points=[min(1.0, 0.5 * cutoff)])
        return h ** delta * body
    body, _ = integrate_adaptive(g, 0.0, math.inf, tol=0.5 * tol,
                                 points=[1.0])
    return h ** delta * body


def wm_limit_amplitude(p, kh=1.0, tol=1e-10):
    """Continuum-limit value lim |ln a| omega^2 = A'(delta) (kh)^delta,
    computed by generic quadrature of the WM profile."""
    m = p.m
    mu = float(math.comb(2 * m, m))

    def f(t):
        return 4.0 ** m * np.sin(0.5 * kh * t) ** (2 * m)

    per = 2.0 * math.pi / kh
    return fractional_continuum_limit(f, p.delta, h=1.0, tol=tol,
                                      mean=mu, period=per)
