"""Self-similar harmonic chains and their Weierstrass-Mandelbrot spectra.

The lattice operators are bi-infinite sums over dilation levels s with
weight a^(-delta*s).  The s -> +inf tail is cut with a certified geometric
bound, the sup of the field.  As s -> -inf a field's levels take the
stencil's small-step series and sum in closed form; the dispersion cuts
that tail too, by sin x <= x.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .constants import (DomainError, check_order, diff_weights,
                        forward_weights, stencil_moment, stencil_series,
                        v_integral)

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


def _level_range(p, log_pos, *neg, below=0):
    """Truncation: largest |s| kept on each side, one count per side given.

    e^log_pos bounds the summand for s >= 0 up to the factor a^(-delta*s);
    neg = (log_neg, decay_neg), if given, bounds it for s < 0 by
    e^log_neg * a^(decay_neg*s) (decay_neg > 0), in logs so that no bound
    overflows.  Each omitted tail stays below tol/2.  The budget also
    counts the levels below 0 that the caller sums itself.
    """
    la = math.log(p.a)
    sides = [(log_pos, p.delta), neg] if neg else [(log_pos, p.delta)]
    n = [(amp - math.log(0.5 * p.tol * (1.0 - p.a ** -decay))) / (decay * la)
         for amp, decay in sides]
    levels = sum(n) + below
    if not levels <= _MAX_LEVELS:
        # the count falls at least like 1/ln a: scale ln a by the overshoot
        raise DomainError("the level sum needs %.3g levels, over the budget "
                          "of %d; use a >= %r" % (levels, _MAX_LEVELS,
                              math.exp(min(la * levels / _MAX_LEVELS, 709))))
    return tuple(max(1, math.ceil(ni)) for ni in n)


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


def wm_dispersion(kh, p):
    """omega^2(kh) = 4^m sum_s a^(-delta*s) sin^(2m)(kh a^s / 2).

    Exactly self-similar: omega^2(a*kh) = a^delta omega^2(kh), preserved
    numerically by exact phase reduction at high levels (whenever the
    dilated product a*kh itself rounds exactly).
    """
    if kh < 0.0:
        raise DomainError("kh must be >= 0")
    if kh == 0.0:
        return 0.0
    m, d = p.m, p.delta
    s_pos, s_neg = _level_range(p, m * math.log(4.0),
                                2 * m * math.log(kh), 2.0 * m - d)
    s = np.arange(-s_neg, s_pos + 1).astype(float)
    with np.errstate(over="ignore", invalid="ignore"):
        phase = 0.5 * kh * p.a ** s
        i = int(np.searchsorted(phase, 1e4, side="right"))
        phase[i:] = list(_reduced_phases(kh, p.a, i - s_neg, s_pos))
        weight, sine = p.a ** (-d * s), np.sin(phase) ** (2 * m)
        terms = weight * sine
    # where a^(-delta*s) overflows or sin^(2m) underflows (deep s < 0), the
    # product is inf*0 or loses bits; sin x = x there, so use the log form
    deep = (s < 0) & ~((weight < math.inf) & (sine >= np.finfo(float).tiny))
    terms[deep] = np.exp(2 * m * math.log(0.5 * kh)
                         + (2 * m - d) * math.log(p.a) * s[deep])
    return float(4.0 ** m * np.sum(terms))


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
    The levels where that is below the direct difference's rounding
    eps sum|w| max(|u(x)|, 1) take it and sum in closed form, one geometric
    series a^((j - delta)s) per power step^j; the rest are differences.
    """
    k = next(q for q in range(len(offs)) if stencil_moment(offs, w, q))
    la, w_sum = math.log(p.a), float(np.sum(np.abs(w)))
    sup_u = max(abs(u(np.atleast_1d(np.asarray(x, dtype=float)))), 1.0)
    e = min(k + 30, max(k, u.max_line_deriv) + 1)
    c, rem = _series(u, x, offs, w, range(k, e))
    qs, cq = np.array(list(c), dtype=float), np.array(list(c.values()))
    # the top series level: rem step^e under the rounding, step^q finite
    rnd, lh = np.finfo(float).eps * w_sum * sup_u, math.log(p.h)
    top = min(math.ceil((math.log(rnd / max(rem, 1e-300)) / e - lh) / la) - 1,
              math.floor((700.0 / qs.max() - lh) / la))
    cq = cq * (p.h * p.a ** top) ** qs      # the terms at the top level
    if square:      # every product of two terms' real parts
        qs, cq = np.add.outer(qs, qs), np.outer(cq.real, cq.real)
    total = (np.sum(cq / -np.expm1((p.delta - qs) * la))
             * p.a ** (-p.delta * top))
    s_pos, = _level_range(p, (2 if square else 1) * math.log(w_sum * sup_u),
                          below=-top)
    for s in range(top + 1, s_pos + 1):
        diff = complex(w @ u.on_ray(x, np.ones(1), offs * (p.h * p.a ** s)))
        total += p.a ** (-p.delta * s) * (diff.real ** 2 if square else diff)
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
    """Continuum limit lim_{a -> 1} |ln a| omega^2(kh) = kh^delta V(m, delta).

    Substituting t = 2x/kh turns the limit integral of the level sum into
    the radial integral V of constants.v_integral, a closed form that
    meets any tol.
    """
    if kh < 0.0:
        raise DomainError("kh must be >= 0")
    return kh ** p.delta * v_integral(p.m, p.delta)
