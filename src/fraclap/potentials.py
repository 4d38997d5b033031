"""Quadratic lattice potentials as symmetric lag stencils.

A translation-invariant quadratic potential (1/2) sum_pq V_(p-q) u_p u_q is
its lag stencil (offs, w): offs = -L..L, w symmetric with sum zero, w_d
the coupling at lag d per site.  The nearest-neighbour spring is
(-1, 2, -1), the negation of constants.diff_weights(1), and the order-m
difference energy [(D - 1)^m u]^2 induces the negation of diff_weights(m).

Every derived number is a constants.stencil_moment.  Rescaling the
potential into the singular-integral normal form produces the scaling
factor A_V = sum_(d>0) w_d d^alpha; the admissible order is the first
nonzero even moment; and on plane waves the induced operator has
eigenvalue (A_V / C_standard(n, alpha)) k^alpha, which is <= 0 whenever
the potential is admissible at that alpha.  For the induced difference
potential in 1-D it is -(1/2) U(1, alpha) V(m, alpha) k^alpha, with V the
radial constant of the same stencil.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DomainError, c_standard, diff_weights, stencil_moment


@dataclass
class ValidationReport:
    valid: bool
    failures: list = field(default_factory=list)
    eigenvalues: np.ndarray | None = None


def _stencil(v):
    """(offs, w) of a lag stencil v; DomainError for anything else."""
    try:
        offs, w = (np.asarray(a, dtype=float) for a in v)
    except (TypeError, ValueError):
        raise DomainError("a potential is a lag stencil (offs, w)") from None
    half = offs.size // 2
    if (w.shape != offs.shape or half < 1
            or not np.array_equal(offs, np.arange(-half, half + 1))):
        raise DomainError("a lag stencil needs offsets -L..L, L >= 1, "
                          "and one weight per offset")
    if not np.all(np.isfinite(w)):
        raise DomainError("the stencil's weights must be finite")
    return offs.astype(int), w


def validate_stiffness(v, atol=1e-10):
    """Check symmetry, translational invariance and positivity.

    Requires w symmetric with sum zero (within atol relative to sum|w|),
    and the eigenvalues sum_d w_d cos(2 pi k d / (2L+1)) of the stencil's
    (2L+1)-site ring >= 0 with one zero, at k = 0 (the constants).  An
    eigenvalue is zero within the rounding of its sum, 50 eps sum|w|.
    """
    offs, w = _stencil(v)
    scale = float(np.sum(np.abs(w)))
    fails = []
    if not np.allclose(w, w[::-1], rtol=0.0, atol=atol * scale):
        fails.append("not symmetric")
    if abs(np.sum(w)) > atol * scale:
        fails.append("total sum nonzero (not translation invariant)")
    k = np.arange(offs.size)
    lam = np.cos(2.0 * math.pi / offs.size * np.outer(k, offs)) @ w
    tiny = 50.0 * np.finfo(float).eps * scale
    if lam.min() < -tiny:
        fails.append("not positive semidefinite")
    zero = np.abs(lam) <= tiny
    if zero.sum() != 1 or not zero[0]:
        fails.append("kernel dimension %d, expected 1 (the constants)"
                     % zero.sum())
    return ValidationReport(not fails, fails, lam)


def scaling_factor(v, alpha):
    """A_V = sum_(d>0) w_d d^alpha: the half stencil's moment, so an odd
    integer alpha is not the signed (zero) moment of the full stencil."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    offs, w = _stencil(v)
    return float(stencil_moment(offs[offs > 0], w[offs > 0], alpha))


def admissible_order(v, atol=1e-10):
    """The first even q >= 2 with a nonzero moment M_q (relative to atol
    times sum |w_p| |p|^q), at most 2L; inf for the zero stencil.

    The potential is admissible for fractional alpha < q: a plain
    nearest-neighbour spring gives 2, the order-m difference energy 2m.
    """
    offs, w = _stencil(v)
    return next((q for q in range(2, offs.size, 2)
                 if abs(stencil_moment(offs, w, q))
                 > atol * stencil_moment(np.abs(offs), np.abs(w), q)),
                math.inf)


def potential_eigenvalue(v, alpha, k, n=1):
    """Plane-wave eigenvalue (A_V / C_standard) k^alpha of a valid potential.

    alpha must be fractional (C_standard vanishes at even integers) and
    below the admissible order of the potential.
    """
    if k <= 0.0:
        raise DomainError("k must be positive")
    c = c_standard(n, alpha)
    if c == 0.0:
        raise DomainError("even integer alpha: distributional regime, "
                          "no singular-integral eigenvalue")
    rep = validate_stiffness(v)
    if not rep.valid:
        raise DomainError("invalid potential: " + "; ".join(rep.failures))
    order = admissible_order(v)
    if alpha >= order:
        raise DomainError("alpha = %g beyond the admissible order %d "
                          "of this potential" % (alpha, order))
    return scaling_factor(v, alpha) / c * k ** alpha


def induced_difference_matrix(m):
    """Lag stencil of the order-m difference energy [(D - 1)^m u]^2.

    The autocorrelation of constants.forward_weights(m), which is the
    negation of diff_weights(m): symmetric, zero-sum, admissible below 2m.
    """
    offs, w = diff_weights(m)
    return offs, -w


def ring_potential(weights):
    """Lag stencil of springs weights[d-1] >= 0 at lag d: w_0 = 2 sum
    weights, w_(+-d) = -weights[d-1].  With weights[0] > 0 it is valid."""
    g = np.asarray(weights, dtype=float)
    if (g.ndim != 1 or g.size < 1 or not np.all(np.isfinite(g))
            or np.any(g < 0.0) or g[0] <= 0.0):
        raise DomainError("need finite nonnegative weights with "
                          "weights[0] > 0")
    return (np.arange(-g.size, g.size + 1),
            np.concatenate([-g[::-1], [2.0 * np.sum(g)], -g]))
