"""Self-similar harmonic chains and their Weierstrass-Mandelbrot spectra.

The lattice operators are bi-infinite sums over dilation levels s with
weight a^(-delta*s), and both split them by one rule (_levels).  Every
level where a stencil's small-step series (constants.stencil_series) is
exact to the direct level's rounding takes the series, and all of those
levels, down to s -> -inf, sum in closed form.  The levels above are
direct, and the s -> +inf tail is cut with a certified geometric bound:
the sup of the field, or 4^m for the dispersion.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (DomainError, check_order, diff_weights,
                        forward_weights, stencil_moment, stencil_series,
                        v_integral)
from .quad import QuadratureError

# the most levels one sum may take; the count grows like 1/ln a as a -> 1
_MAX_LEVELS = 10 ** 6


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


def _levels(p, step, qs, cq, rem, e, rnd, log_amp, square=False):
    """Split sum_s a^(-delta*s) d_s, d_s the level at step z = step a^s
    with the series sum_q cq z^q + O(rem z^e) over the powers qs (square:
    the squares of their real parts).  Returns (top, s_pos, the closed
    form of the levels s <= top); the caller adds the direct levels
    top+1..s_pos.

    top is the highest level where rem z^e is below rnd, the direct level's
    rounding, and every z^q is finite.  Each power's levels s <= top are
    one geometric series, scaled in logs.  The tail beyond s_pos, at most
    e^log_amp a^(-delta*s) a level, stays below tol/2.  Over _MAX_LEVELS
    direct levels, DomainError names an a that fits.
    """
    la, ls = math.log(p.a), math.log(step)
    top = min(math.ceil((math.log(rnd / max(rem, 1e-300)) / e - ls) / la) - 1,
              math.floor((700.0 / qs.max() - ls) / la))
    n = ((log_amp - math.log(-0.5 * p.tol * math.expm1(-p.delta * la)))
         / (p.delta * la))
    count = n - top
    if not count <= _MAX_LEVELS:
        # the count falls at least like 1/ln a: scale ln a by the overshoot
        raise DomainError("the level sum needs %.3g levels, over the budget "
                          "of %d; use a >= %r" % (count, _MAX_LEVELS,
                              math.exp(min(la * count / _MAX_LEVELS, 709))))
    # the terms at the top level with its weight, half on each factor of
    # a square, in one exp: z^q or the weight alone may overflow
    cq = cq * np.exp(qs * (ls + top * la)
                     - p.delta * top * la / (2 if square else 1))
    if square:      # every product of two terms' real parts
        qs, cq = np.add.outer(qs, qs), np.outer(cq.real, cq.real)
    closed = np.sum(cq / -np.expm1((p.delta - qs) * la))
    return top, math.ceil(n), closed


def _reduced_phases(kh, a, s0, s1):
    """Yield 0.5 kh a^s mod 2*pi for s = s0..s1, each correctly rounded.

    kh and a are dyadic rationals, so X_s = 0.5 kh a^s 2^F is an integer
    recurrence, exact at s0 and then X <- floor(X num_a / den_a), reduced
    modulo 2*pi 2^F only for output: (x mod 2*pi) a != x a mod 2*pi.  The
    floors build up to a^(s1-s0) a/(a-1) units, so F holds the bits of the
    top phase and of 1/(a-1) plus 80 guard bits.  2*pi 2^F comes from
    Machin's pi/4 = 4 atan(1/5) - atan(1/239); 32 more guard bits absorb
    the floor of each series term.
    """
    num_a, den_a = a.as_integer_ratio()
    num_k, den_k = kh.as_integer_ratio()
    bits = (80 + max(0, math.ceil(math.log2(kh) - 1 + s1 * math.log2(a)))
            + max(0, math.ceil(-math.log2(a - 1.0))))

    def atan_inv(x):
        total, term, k = 0, (1 << (bits + 32)) // x, 0
        while term:
            total += (-1) ** k * (term // (2 * k + 1))
            term, k = term // (x * x), k + 1
        return total

    two_pi = 8 * (4 * atan_inv(5) - atan_inv(239)) >> 32
    up, down = (num_a, den_a) if s0 >= 0 else (den_a, num_a)
    x = (num_k * up ** abs(s0) << bits) // (2 * den_k * down ** abs(s0))
    for _ in range(s0, s1 + 1):
        yield (x % two_pi) / (1 << bits)
        x = (x * num_a) >> (den_a.bit_length() - 1)     # den_a = 2^j


@functools.lru_cache(maxsize=None)
def _dispersion_series(m):
    """The arguments of _levels after the step for a dispersion level
    4^m sin^(2m)(z/2) = -sum_p w_p cos(p z) over diff_weights(m): its
    small-step series (qs, cq, K, e), leaving out at most K z^e, the
    rounding eps 4^m and the log of its bound 4^m."""
    orders = range(2 * m, 2 * m + 30, 2)
    c, rem = stencil_series(*diff_weights(m), orders,
                            lambda q: (-1) ** (q // 2), lambda q: 1.0)
    return (np.array(list(c), dtype=float), -np.array(list(c.values())),
            rem, orders.stop, np.finfo(float).eps * 4.0 ** m,
            m * math.log(4.0))


def wm_dispersion(kh, p):
    """omega^2(kh) = 4^m sum_s a^(-delta*s) sin^(2m)(kh a^s / 2).

    The small steps kh a^s sum in closed form (_levels, with the rounding
    eps 4^m of a direct level); the levels above them are direct, their
    phases reduced exactly (_reduced_phases) once they pass 1e4.  Exactly
    self-similar: omega^2(a*kh) = a^delta omega^2(kh), preserved
    numerically whenever the dilated product a*kh itself rounds exactly.
    A value past the doubles raises QuadratureError.
    """
    if not 0.0 <= kh < math.inf:
        raise DomainError("kh must be finite and >= 0")
    if kh == 0.0:
        return 0.0
    m = p.m
    with np.errstate(over="ignore", invalid="ignore"):
        top, s_pos, total = _levels(p, kh, *_dispersion_series(m))
        s = np.arange(top + 1, s_pos + 1).astype(float)
        phase = 0.5 * kh * p.a ** s
        i = int(np.searchsorted(phase, 1e4, side="right"))
        if i < s.size:      # with no direct level, a^(top+1) is too big
            phase[i:] = list(_reduced_phases(kh, p.a, top + 1 + i, s_pos))
        total += 4.0 ** m * np.sum(p.a ** (-p.delta * s)
                                   * np.sin(phase) ** (2 * m))
    if not math.isfinite(total):
        raise QuadratureError("the dispersion's value is not finite")
    return float(total)


def _series(u, x, offs, w, orders):
    """stencil_series of (offs, w) for u at x; DomainError where a line
    derivative or the remainder bound it needs overflows a double."""
    def deriv(q):
        return complex(u.line_deriv(x, np.ones(1), q))

    with np.errstate(all="ignore"):     # a non-finite value is refused
        c, rem = stencil_series(offs, w, orders, deriv, u.sup_line_deriv)
        if all(map(cmath.isfinite, c.values())) and rem < math.inf:
            return c, rem
        reach = next((q for q in range(orders.stop) if not (cmath.isfinite(
            deriv(q)) and u.sup_line_deriv(q) < math.inf)), orders.stop) - 1
    raise DomainError("the series needs line derivatives through order %d, "
                      "finite only through order %d" % (orders.stop, reach))


def _level_sum(u, x, p, offs, w, square):
    """sum_s a^(-delta*s) d_s, with d_s the stencil (offs, w) applied to u
    at x with step h a^s, or the square of its real part.

    The stencil's series (constants.stencil_series from its order k to
    k + 29, or to the field's max_line_deriv) leaves out at most K step^e.
    _levels sums the levels where that is below the direct difference's
    rounding eps sum|w| max(|u(x)|, 1) in closed form, one geometric
    series a^((j - delta)s) per power step^j; the rest are differences.
    A value past the doubles raises QuadratureError.
    """
    k = next(q for q in range(len(offs)) if stencil_moment(offs, w, q))
    w_sum = float(np.sum(np.abs(w)))
    sup_u = max(abs(u(np.atleast_1d(np.asarray(x, dtype=float)))), 1.0)
    e = min(k + 30, max(k, u.max_line_deriv) + 1)
    c, rem = _series(u, x, offs, w, range(k, e))
    a = np.float64(p.a)
    with np.errstate(all="ignore"):     # a non-finite total is refused
        top, s_pos, total = _levels(
            p, p.h, np.array(list(c), dtype=float),
            np.array(list(c.values())), rem, e,
            np.finfo(float).eps * w_sum * sup_u,
            (2 if square else 1) * math.log(w_sum * sup_u), square)
        for s in range(top + 1, s_pos + 1):
            diff = complex(w @ u.on_ray(x, np.ones(1), offs * (p.h * a ** s)))
            total += a ** (-p.delta * s) * (diff.real ** 2 if square
                                            else diff)
    if not cmath.isfinite(total):
        raise QuadratureError("the level sum's value is not finite")
    return total


def selfsim_laplacian(u, x, p):
    """sum_s a^(-delta*s) Delta_2m(h a^s) u(x) for a decaying field u."""
    total = complex(_level_sum(u, x, p, *diff_weights(p.m), False))
    if abs(total.imag) <= 1e-13 * max(abs(total.real), 1.0):
        return total.real
    return total


def wm_energy_density(u, x, p, f_m=1.0):
    """(f_m/2) sum_s a^(-delta*s) [(D(h a^s) - 1)^m u(x)]^2.

    Scales as a^delta under h -> a*h; admissible for 0 < delta < 2m.
    """
    return 0.5 * f_m * _level_sum(u, x, p, *forward_weights(p.m), True)


def wm_limit_amplitude(p, kh=1.0, tol=1e-10):
    """Continuum limit lim_{a -> 1} |ln a| omega^2(kh) = kh^delta V(m, delta),
    for one kh or an array of them.

    Substituting t = 2x/kh turns the limit integral of the level sum into
    the radial integral V of constants.v_integral, a closed form that
    meets any tol.  A value past the doubles raises QuadratureError.
    """
    kh = np.asarray(kh, dtype=float)
    if np.any(kh < 0.0):
        raise DomainError("kh must be >= 0")
    with np.errstate(over="ignore"):
        value = kh ** p.delta * v_integral(p.m, p.delta)
    if not np.all(np.isfinite(value)):
        raise QuadratureError("the continuum limit's value is not finite")
    return value
