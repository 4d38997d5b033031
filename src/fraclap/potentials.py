"""Quadratic lattice potentials and their continuum eigenvalues.

A stiffness matrix couples sites p, q through |p - q|-dependent
generators.  Rescaling the quadratic form into the singular-integral
normal form produces the scaling factor A_V = (1/2) sum V_pq |p-q|^alpha,
and on plane waves the induced operator has eigenvalue
(A_V / C_standard(n, alpha)) k^alpha, which is <= 0 whenever the
potential is admissible at that alpha.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import DomainError, c_standard, forward_weights


class StiffnessMatrix:
    """Symmetric matrix V_pq = g_|p-q| built from Toeplitz generators."""

    def __init__(self, generators):
        g = np.asarray(generators, dtype=float).ravel()
        if g.size < 2:
            raise DomainError("need at least two generators")
        self.generators = g
        m = g.size
        idx = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
        self.matrix = g[idx]

    @property
    def size(self):
        return self.generators.size


@dataclass
class ValidationReport:
    valid: bool
    failures: list = field(default_factory=list)
    eigenvalues: np.ndarray | None = None


def validate_stiffness(v, atol=1e-10):
    """Check symmetry, translational invariance and positivity.

    Requires: symmetric; total sum zero with the constant vector in the
    kernel; positive semidefinite with a one-dimensional kernel.
    """
    mat = v.matrix if isinstance(v, StiffnessMatrix) else np.asarray(v, float)
    fails = []
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return ValidationReport(False, ["not a square matrix"])
    if not np.allclose(mat, mat.T, atol=atol):
        fails.append("not symmetric")
    scale = max(np.max(np.abs(mat)), 1.0)
    ones = np.ones(mat.shape[0])
    if abs(ones @ mat @ ones) > atol * scale * mat.size:
        fails.append("total sum nonzero (not translation invariant)")
    if np.max(np.abs(mat @ ones)) > atol * scale * mat.shape[0]:
        fails.append("constant vector not in the kernel")
    w = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if w[0] < -atol * scale:
        fails.append("not positive semidefinite")
    nker = int(np.sum(np.abs(w) <= atol * scale * 10.0))
    if nker != 1:
        fails.append("kernel dimension %d, expected 1" % nker)
    return ValidationReport(not fails, fails, w)


def scaling_factor(v, alpha):
    """A_V = (1/2) sum_pq V_pq |p - q|^alpha."""
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    mat = v.matrix if isinstance(v, StiffnessMatrix) else np.asarray(v, float)
    m = mat.shape[0]
    d = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :]).astype(float)
    powd = np.where(d > 0.0, d ** alpha, 0.0)
    return 0.5 * float(np.sum(mat * powd))


def admissible_order(v, atol=1e-10):
    """Largest even 2j with vanishing |p-q| moments below it.

    The quadratic form is admissible for fractional alpha < 2j; a plain
    zero-sum potential gives 2, one whose second moment also vanishes
    gives 4, and so on.
    """
    mat = v.matrix if isinstance(v, StiffnessMatrix) else np.asarray(v, float)
    scale = max(np.max(np.abs(mat)), 1.0)
    order = 2
    for j in range(1, 5):
        if abs(scaling_factor(mat, 2.0 * j)) > atol * scale:
            break
        order = 2 * (j + 1)
    return order


def potential_eigenvalue(v, alpha, k, n=1, validate=True):
    """Plane-wave eigenvalue (A_V / C_standard) k^alpha of the potential.

    alpha must be fractional (C_standard vanishes at even integers) and
    below the admissible order of the potential.
    """
    if k <= 0.0:
        raise DomainError("k must be positive")
    c = c_standard(n, alpha)
    if c == 0.0:
        raise DomainError("even integer alpha: distributional regime, "
                          "no singular-integral eigenvalue")
    if validate:
        rep = validate_stiffness(v)
        if not rep.valid:
            raise DomainError("invalid stiffness matrix: "
                              + "; ".join(rep.failures))
        if alpha >= admissible_order(v):
            raise DomainError("alpha = %g beyond the admissible order %d "
                              "of this potential" % (alpha, admissible_order(v)))
    return scaling_factor(v, alpha) / c * k ** alpha


def induced_difference_matrix(m):
    """Rank-one potential from expanding the order-m difference energy.

    [(D-1)^m u]^2 = sum_pq c_p c_q u_p u_q with c the forward stencil
    (-1)^(m-j) C(m, j) of constants.forward_weights;
    zero-sum and PSD, but its kernel has dimension m, so it passes only
    the relaxed (validate=False) eigenvalue route for m > 1.
    """
    if not isinstance(m, int) or m < 1:
        raise DomainError("m must be a positive integer")
    c = forward_weights(m)[1]
    return np.outer(c, c)


def ring_potential(weights):
    """Valid stiffness matrix from nonnegative ring-spring weights.

    weights[d-1] couples sites at lag d on a ring of M = len(weights)*2+1
    sites; the result is a symmetric circulant, hence Toeplitz in |p-q|,
    zero row sums, PSD, kernel spanned by the constants when the lag-1
    weight is positive.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1 or np.any(w < 0.0) or w[0] <= 0.0:
        raise DomainError("need nonnegative weights with weights[0] > 0")
    mm = 2 * w.size + 1
    mat = np.zeros((mm, mm))
    for d, wd in enumerate(w, start=1):
        for p in range(mm):
            mat[p, p] += 2.0 * wd
            mat[p, (p + d) % mm] -= wd
            mat[p, (p - d) % mm] -= wd
    return mat
