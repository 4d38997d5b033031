"""Test fields the operators can be applied to.

A field knows how to evaluate itself along rays and its integral over
spheres (the profile of the singular integrals), supplies analytic
directional derivatives at a point (used for the small-radius series of
the singular integrals), global derivative bounds (used for truncation
estimates), and a decay radius.
"""

import functools
import math

import numpy as np

from .constants import DomainError, even_deriv

_SUP_SAMPLES = 20001    # grid points of _hermite_gauss_sup's search
# the unit sphere in 1-D: two directions of weight 1
_POLES, _POLE_WEIGHTS = np.array([[1.0], [-1.0]]), np.ones(2)


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


def _i0e(z):
    """I_0(z) exp(-z) for an array of z >= 0.  Up to z = 64 it is the
    midpoint rule in phi of the mean of exp(-2z sin^2(phi/2)) over a
    period, with floor(z) + 25 points: that rule converges geometrically
    (Trefethen & Weideman, SIAM Review 56(3), 2014).  Beyond, it is the
    asymptotic series to 14 terms (DLMF 10.40.1)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    near = z <= 64.0
    npts = int(np.max(z[near], initial=0.0)) + 25
    s2 = np.sin(math.pi * (np.arange(npts) + 0.5) / npts) ** 2
    out[near] = np.exp(np.multiply.outer(-2.0 * z[near], s2)).sum(-1) / npts
    far = z[~near]
    if far.size:
        terms = np.cumprod([(2 * k - 1) ** 2 / (8 * k * far)
                            for k in range(1, 14)], axis=0)
        out[~near] = (1.0 + terms.sum(axis=0)) / np.sqrt(2.0 * math.pi * far)
    return out


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

    def sphere_mean(self, x, r):
        """The integral of u(x + r*theta) over the unit sphere theta, for
        an array of radii r: u(x + r) + u(x - r) in 1-D.  A field in more
        dimensions needs a closed form of its own."""
        if self.n != 1:
            raise DomainError("%s has no sphere mean in %d-D"
                              % (type(self).__name__, self.n))
        return self.on_ray(x, _POLES, r) @ _POLE_WEIGHTS

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

    def sphere_mean(self, x, r):
        # exp(-(w^2 + r^2)/sigma^2) times the sphere integral of
        # exp(-z cos), z = 2|r|w/sigma^2: 2 pi I_0(z) in 2-D, 2 pi
        # (e^z - e^-z)/z in 3-D; both scaled by e^-z for range
        if self.n not in (2, 3):
            return super().sphere_mean(x, r)
        w = float(np.linalg.norm(np.atleast_1d(x) - self.center))
        r = np.abs(np.asarray(r, dtype=float))
        z = 2.0 * r * w / self.sigma ** 2
        peak = 2.0 * math.pi * np.exp(-((r - w) / self.sigma) ** 2)
        if self.n == 2:
            return peak * _i0e(z)
        with np.errstate(invalid="ignore", divide="ignore"):
            return peak * np.where(z > 0.0, -np.expm1(-2.0 * z) / z, 2.0)

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
