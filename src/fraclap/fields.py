"""Test fields the operators can be applied to.

A field knows how to evaluate itself along rays, supplies analytic
directional derivatives at a point (used for the small-radius series of
the singular integrals), global derivative bounds (used for truncation
estimates), and a decay radius.
"""

import functools
import math

import numpy as np

from .constants import even_deriv

_SUP_SAMPLES = 20001    # grid points of _hermite_gauss_sup's search


def hermite_poly(q, t):
    """Physicists' Hermite H_q(t), three-term recursion, vectorized."""
    t = np.asarray(t, dtype=float)
    h0 = np.ones_like(t)
    if q == 0:
        return h0
    h1 = 2.0 * t
    for k in range(1, q):
        h0, h1 = h1, 2.0 * t * h1 - 2.0 * k * h0
    return h1


@functools.lru_cache(maxsize=None)
def _hermite_gauss_sup(q):
    # sup over R of |H_q(t) exp(-t^2)|; the max sits below sqrt(2q)+2
    t = np.linspace(0.0, math.sqrt(2.0 * q + 1.0) + 3.0, _SUP_SAMPLES)
    return float(np.max(np.abs(hermite_poly(q, t)) * np.exp(-t * t))) * 1.01


class Field:
    """Base interface; n is the ambient dimension."""

    n = 1
    max_line_deriv = math.inf   # highest order line_deriv supplies

    def __call__(self, pts):
        raise NotImplementedError

    def on_ray(self, x, direction, r):
        """Values u(x + r*d) for an array of radii r, of shape r.shape for
        one direction d, or r.shape + (ndirs,) for an (ndirs, n) stack."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        return self(x + np.multiply.outer(np.asarray(r, dtype=float), d))

    def line_deriv(self, x, direction, order):
        """d^order/dt^order u(x + t*d) at t = 0, for one direction d or
        an (ndirs, n) stack (one value per direction)."""
        raise NotImplementedError

    def sup_line_deriv(self, order):
        """Global bound on |d^order/dt^order u| along any ray."""
        raise NotImplementedError

    def laplacian_power(self, x, p):
        """Delta^p u(x), analytic."""
        raise NotImplementedError

    def decay_radius(self, x, tol):
        """Radius beyond which |u(x + r*nhat)| < tol for every direction."""
        raise NotImplementedError


class PlaneWave(Field):
    """u(x) = exp(i k . x); complex-valued, |u| = 1 everywhere."""

    def __init__(self, k):
        k = np.atleast_1d(np.asarray(k, dtype=float))
        self.k = k
        self.n = k.size
        self.wavenumber = math.hypot(*k)    # no overflow before |k| does
        if self.wavenumber <= 0.0:
            raise ValueError("plane wave needs a nonzero wavevector")

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.exp(1j * pts @ self.k)

    def line_deriv(self, x, direction, order):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        kappa = d @ self.k
        return (1j * kappa) ** order * np.exp(1j * float(self.k @ x))

    def sup_line_deriv(self, order):
        return np.float64(self.wavenumber) ** order

    def laplacian_power(self, x, p):
        # float64 powers overflow to inf, as in sup_line_deriv
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return ((-np.float64(self.wavenumber) ** 2) ** p
                * np.exp(1j * float(self.k @ x)))

    def decay_radius(self, x, tol):
        raise ValueError("plane waves do not decay; use the spectral path")


class Gaussian(Field):
    """u(x) = exp(-|x - c|^2 / sigma^2), radial and rapidly decaying.

    Along any ray the restriction is a shifted one-dimensional Gaussian,
    so directional derivatives are Hermite closed forms.
    """

    def __init__(self, sigma=1.0, center=0.0, n=1):
        if not (sigma > 0.0 and 0.0 < sigma * sigma < math.inf):
            raise ValueError("sigma must be > 0 with 0 < sigma^2 < inf, got %r"
                             % sigma)
        self.sigma = float(sigma)
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if c.size == 1 and n > 1:
            c = np.full(n, float(c[0]))
        self.center = c
        self.n = c.size

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        d = pts - self.center
        return np.exp(-np.sum(d * d, axis=-1) / self.sigma ** 2)

    def line_deriv(self, x, direction, order):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        d = np.atleast_1d(np.asarray(direction, dtype=float))
        # u(x) (-1/sigma)^q H_q(d.(x-c)/sigma); float64 powers overflow to inf
        w = x - self.center
        t = d @ w / self.sigma
        return (np.float64(-1.0 / self.sigma) ** order * hermite_poly(order, t)
                * math.exp(-float(w @ w) / self.sigma ** 2))

    def sup_line_deriv(self, order):
        return _hermite_gauss_sup(order) / np.float64(self.sigma) ** order

    def laplacian_power(self, x, p):
        # product of 1-d Gaussians: expand (sum_i d^2/dy_i^2)^p by the
        # multinomial theorem, each factor a Hermite closed form; float64
        # powers overflow to inf
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = (x - self.center) / self.sigma
        if p == 0:
            return math.exp(-float(t @ t))
        n = self.n
        total = 0.0
        for combo in _compositions(p, n):
            coef = math.factorial(p)
            for c in combo:
                coef //= math.factorial(c)
            term = coef
            for ti, ci in zip(t, combo):
                term *= (np.float64(self.sigma) ** (-2 * ci)
                         * float(hermite_poly(2 * ci, np.array([ti]))[0])
                         * math.exp(-ti * ti))
            total += term
        return total

    def decay_radius(self, x, tol):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        off = float(np.linalg.norm(x - self.center))
        return off + self.sigma * math.sqrt(max(math.log(1.0 / tol), 1.0)) + self.sigma


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class UserField(Field):
    """Wrap a plain callable; derivative data falls back to differences.

    The callable receives an (..., n) array of points.  A decay radius
    function (or constant) must be declared: the singular integrals need
    a certified truncation radius.  The derivative bound is likewise a
    function of the order, or one number for every order.
    """

    max_line_deriv = 6

    def __init__(self, fn, n=1, decay_radius=None, deriv_bound=None):
        self.fn = fn
        self.n = n
        self._decay = decay_radius
        self._bound = deriv_bound

    def __call__(self, pts):
        return self.fn(np.asarray(pts, dtype=float))

    def line_deriv(self, x, direction, order):
        if order == 0:
            return self.on_ray(x, direction, np.zeros(1))[0]
        if order > self.max_line_deriv or order % 2:
            raise NotImplementedError(
                "numeric line derivatives available for even orders <= %d"
                % self.max_line_deriv)
        return even_deriv(lambda t: self.on_ray(x, direction, t), order, 0.05)

    def sup_line_deriv(self, order):
        if self._bound is None:
            raise ValueError("user field needs a deriv_bound")
        return float(self._bound(order) if callable(self._bound)
                     else self._bound)

    def decay_radius(self, x, tol):
        if self._decay is None:
            raise ValueError("user field must declare its decay radius")
        if callable(self._decay):
            return self._decay(x, tol)
        return float(self._decay)
